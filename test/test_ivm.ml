(* Tests for incremental view maintenance and the durable catalog.

   - Catalog differential: random load/insert/delete/drop streams
     against a naive set-semantics oracle; effective-row reports
     (in-batch duplicates, already-present inserts and absent deletes
     included), ragged-batch errors, per-relation versions, snapshot
     isolation of earlier databases, and dump/restore round-trips
     (also from rows not in dump shape) must agree.
   - Server IVM differential: the same random query/write session run
     against IVM-maintained servers under every driver (sequential,
     pooled, sharded) and an oracle server with IVM off
     must produce byte-identical answers, and maintenance must
     actually fire (serve.ivm.maintained > 0).
   - WAL fault injection: logs truncated at every record boundary, torn
     mid-record, and CRC/length/payload-corrupted at every record must
     replay to exactly the longest valid prefix, never raise, and be
     repairable in place.
   - Kill-and-restart: a server abandoned without shutdown must come
     back from --data-dir state with the same relations and a warm
     result cache serving byte-identical answers, even when the WAL
     tail was corrupted after the crash. *)

module Json = Lb_service.Json
module Protocol = Lb_service.Protocol
module Catalog = Lb_service.Catalog
module Server = Lb_service.Server
module Wal = Lb_service.Wal
module Ivm = Lb_service.Ivm
module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Prng = Lb_util.Prng
module Metrics = Lb_util.Metrics
module Pool = Lb_util.Pool

let check = Alcotest.check

let rounds =
  match int_of_string_opt (Sys.getenv "LBT_PROP_COUNT") with
  | Some n when n > 0 -> n
  | Some _ | None | (exception Not_found) -> 30

(* --- row plumbing --- *)

let sorted_distinct rows =
  let a = Array.of_list rows in
  Array.sort compare a;
  let out = ref [] in
  Array.iter
    (fun r ->
      match !out with h :: _ when compare h r = 0 -> () | _ -> out := r :: !out)
    a;
  Array.of_list (List.rev !out)

let rows_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> compare x y = 0) a b

let show_rows rows =
  String.concat ";"
    (List.map
       (fun r ->
         "[" ^ String.concat "," (List.map string_of_int (Array.to_list r)) ^ "]")
       (Array.to_list rows))

let check_rows ctxt expected got =
  if not (rows_equal expected got) then
    Alcotest.failf "%s: expected {%s} got {%s}" ctxt (show_rows expected)
      (show_rows got)

let random_row rng width dom = Array.init width (fun _ -> Prng.int rng dom)

let random_rows rng ~width ~n ~dom = List.init n (fun _ -> random_row rng width dom)

(* Set-semantics oracle for one write batch, deletes first. *)
let oracle_apply live ~inserts ~deletes =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace tbl (Array.to_list r) r) live;
  List.iter (fun r -> Hashtbl.remove tbl (Array.to_list r)) deletes;
  List.iter
    (fun r ->
      if not (Hashtbl.mem tbl (Array.to_list r)) then
        Hashtbl.replace tbl (Array.to_list r) r)
    inserts;
  sorted_distinct (Hashtbl.fold (fun _ r acc -> r :: acc) tbl [])

(* --- catalog differential --- *)

(* [n] rows drawn from [rows] (with repeats); none when it is empty. *)
let sample rng rows n =
  if Array.length rows = 0 then []
  else List.init n (fun _ -> rows.(Prng.int rng (Array.length rows)))

let test_catalog_differential () =
  let names = [| "R"; "S"; "T" |] in
  for round = 1 to rounds do
    let rng = Prng.create (9_400 + round) in
    let cat = Catalog.create () in
    let oracle : (string, string array * int array array) Hashtbl.t =
      Hashtbl.create 4
    in
    let versions : (string, int) Hashtbl.t = Hashtbl.create 4 in
    let global = ref 0 in
    let bump name =
      incr global;
      Hashtbl.replace versions name
        (1 + Option.value ~default:0 (Hashtbl.find_opt versions name))
    in
    (* a snapshot taken early must dump the same rows after every later
       write: writes build new row arrays and never mutate old ones *)
    let early = ref None in
    for step = 1 to 16 do
      let name = names.(Prng.int rng (Array.length names)) in
      let ctxt = Printf.sprintf "round %d step %d %s" round step name in
      let width = 2 in
      let dom = 4 in
      if step = 5 then begin
        let db = Catalog.database cat in
        early :=
          Some
            ( db,
              List.map
                (fun n -> (n, Array.map Array.copy (R.tuples (Db.find db n))))
                (Db.names db) )
      end;
      (match Prng.int rng 5 with
      | 0 ->
          let attrs = [| "u"; "v" |] in
          let tuples = random_rows rng ~width ~n:(Prng.int rng 10) ~dom in
          (match Catalog.load cat ~name ~attrs tuples with
          | Ok card ->
              bump name;
              let rows = sorted_distinct tuples in
              Hashtbl.replace oracle name (attrs, rows);
              check Alcotest.int (ctxt ^ ": load card") (Array.length rows)
                card
          | Error msg -> Alcotest.failf "%s: load failed: %s" ctxt msg)
      | 1 when Hashtbl.mem oracle name ->
          let attrs, old_rows = Hashtbl.find oracle name in
          let fresh = random_rows rng ~width ~n:(Prng.int rng 6) ~dom in
          (* in-batch duplicates and already-present rows are no-ops *)
          let tuples =
            fresh
            @ List.filteri (fun i _ -> i mod 2 = 0) fresh
            @ sample rng old_rows (Prng.int rng 3)
          in
          (match Catalog.insert cat ~name tuples with
          | Ok (card, added) ->
              bump name;
              let rows = oracle_apply old_rows ~inserts:tuples ~deletes:[] in
              Hashtbl.replace oracle name (attrs, rows);
              check Alcotest.int (ctxt ^ ": insert card") (Array.length rows)
                card;
              check_rows (ctxt ^ ": effective added")
                (Ivm.diff_rows rows old_rows)
                added
          | Error msg -> Alcotest.failf "%s: insert failed: %s" ctxt msg)
      | 2 when Hashtbl.mem oracle name ->
          let attrs, old_rows = Hashtbl.find oracle name in
          (* absent rows, present rows, and in-batch duplicates *)
          let tuples =
            random_rows rng ~width ~n:(Prng.int rng 3) ~dom
            @ sample rng old_rows (Prng.int rng 3)
          in
          let tuples = tuples @ List.filteri (fun i _ -> i mod 2 = 1) tuples in
          (match Catalog.delete cat ~name tuples with
          | Ok (card, removed) ->
              bump name;
              let rows = oracle_apply old_rows ~inserts:[] ~deletes:tuples in
              Hashtbl.replace oracle name (attrs, rows);
              check Alcotest.int (ctxt ^ ": delete card") (Array.length rows)
                card;
              check_rows (ctxt ^ ": effective removed")
                (Ivm.diff_rows old_rows rows)
                removed
          | Error msg -> Alcotest.failf "%s: delete failed: %s" ctxt msg)
      | 3 when Hashtbl.mem oracle name && Prng.bernoulli rng 0.3 ->
          (match Catalog.drop cat ~name with
          | Ok () ->
              bump name;
              Hashtbl.remove oracle name
          | Error msg -> Alcotest.failf "%s: drop failed: %s" ctxt msg)
      | 4 when Hashtbl.mem oracle name ->
          (* one ragged row anywhere in the batch rejects the whole
             write; the state checks below see nothing changed *)
          let ok = random_rows rng ~width ~n:(Prng.int rng 3) ~dom in
          let tuples = ok @ [ [| 1; 2; 3 |] ] @ ok in
          let write = if Prng.bool rng then Catalog.insert else Catalog.delete in
          (match write cat ~name tuples with
          | Ok _ -> Alcotest.failf "%s: ragged write accepted" ctxt
          | Error msg ->
              check Alcotest.string (ctxt ^ ": ragged error")
                (Printf.sprintf "tuple of width 3 does not fit %S (width 2)"
                   name)
                msg)
      | _ -> ());
      (* full-state comparison after every step *)
      check Alcotest.int (ctxt ^ ": global version") !global
        (Catalog.version cat);
      let expected_summary =
        Hashtbl.fold
          (fun n (_, rows) acc -> (n, Array.length rows) :: acc)
          oracle []
        |> List.sort compare
      in
      check
        Alcotest.(list (pair string int))
        (ctxt ^ ": summary") expected_summary (Catalog.summary cat);
      let db = Catalog.database cat in
      Hashtbl.iter
        (fun n (attrs, rows) ->
          let rel = Db.find db n in
          check
            Alcotest.(array string)
            (ctxt ^ ": attrs") attrs (R.attrs rel);
          check_rows (ctxt ^ ": stored rows sorted") rows (R.tuples rel))
        oracle;
      Hashtbl.iter
        (fun n v ->
          check Alcotest.int
            (ctxt ^ ": rel_version " ^ n)
            v (Catalog.rel_version cat n))
        versions
    done;
    (match !early with
    | Some (db, rows) ->
        List.iter
          (fun (n, want) ->
            check_rows
              (Printf.sprintf "round %d: early snapshot of %s" round n)
              want
              (R.tuples (Db.find db n)))
          rows
    | None -> ());
    (* dump/restore round-trip preserves content and provenance *)
    let dump = Catalog.dump cat in
    let cat2 = Catalog.create () in
    Catalog.restore cat2 ~version:(Catalog.version cat) dump;
    check Alcotest.int "restore: version" (Catalog.version cat)
      (Catalog.version cat2);
    check
      Alcotest.(list (pair string int))
      "restore: summary" (Catalog.summary cat) (Catalog.summary cat2);
    List.iter
      (fun (n, _, _, _) ->
        check Alcotest.int ("restore: rel_version " ^ n)
          (Catalog.rel_version cat n)
          (Catalog.rel_version cat2 n);
        check_rows ("restore: rows " ^ n)
          (R.tuples (Db.find (Catalog.database cat) n))
          (R.tuples (Db.find (Catalog.database cat2) n)))
      dump;
    (* rows not in dump shape (unsorted, duplicated) restore to the
       state R.make gives them *)
    let messy =
      List.map
        (fun (n, attrs, rows, rv) ->
          let rev = Array.of_list (List.rev (Array.to_list rows)) in
          (n, attrs, Array.append rev rows, rv))
        dump
    in
    let cat3 = Catalog.create () in
    Catalog.restore cat3 ~version:(Catalog.version cat) messy;
    List.iter
      (fun (n, attrs, rows, _) ->
        check_rows ("restore messy: rows " ^ n)
          (R.tuples (R.make attrs (Array.to_list rows)))
          (R.tuples (Db.find (Catalog.database cat3) n));
        check Alcotest.int ("restore messy: rel_version " ^ n)
          (Catalog.rel_version cat n)
          (Catalog.rel_version cat3 n))
      messy
  done

(* --- server IVM differential across drivers --- *)

let field name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string json)

let status json =
  match field "status" json with
  | Json.String s -> s
  | _ -> Alcotest.fail "non-string status"

let expect_ok ctxt json =
  if status json <> "ok" then
    Alcotest.failf "%s: expected ok, got %s" ctxt (Json.to_string json)

let cached_of json =
  match field "cached" json with
  | Json.Bool b -> b
  | _ -> Alcotest.fail "cached is not a bool"

let rows_bytes json = Json.to_string (field "rows" json)

let queries =
  [
    "E(x,y), E(y,z), E(z,x)";
    "E(x,y), E(y,z)";
    "E(x,y), F(y,z)";
    "E(x,y), E(y,x)";
    "F(x,y), F(y,z), F(z,x)";
  ]

let test_server_ivm_differential () =
  Pool.with_pool 2 (fun pool ->
      for round = 1 to max 3 (rounds / 6) do
        let rng = Prng.create (9_700 + round) in
        let mk config = Server.create ~config () in
        let ivm_servers =
          [
            ("default", mk Server.default_config);
            ("pooled", mk { Server.default_config with pool = Some pool });
            ("sharded", mk { Server.default_config with shards = 3 });
          ]
        in
        (* the oracle recomputes from scratch after every write *)
        let oracle = mk { Server.default_config with ivm = false } in
        let everyone = ("oracle", oracle) :: ivm_servers in
        let dom = 5 in
        let broadcast ctxt req =
          List.map
            (fun (label, srv) ->
              let reply = Server.handle srv req in
              expect_ok (ctxt ^ " on " ^ label) reply;
              (label, reply))
            everyone
        in
        let load name =
          let tuples =
            List.map Array.to_list
              (random_rows rng ~width:2 ~n:(8 + Prng.int rng 12) ~dom)
          in
          ignore
            (broadcast ("load " ^ name)
               (Protocol.Load { name; attrs = [ "u"; "v" ]; tuples }))
        in
        load "E";
        load "F";
        let compare_query ctxt text =
          let replies =
            broadcast ctxt
              (Protocol.Query { text; opts = Protocol.default_opts })
          in
          match replies with
          | (_, oracle_reply) :: rest ->
              let want = rows_bytes oracle_reply in
              List.iter
                (fun (label, reply) ->
                  check Alcotest.string
                    (ctxt ^ ": " ^ label ^ " rows byte-identical to recompute")
                    want (rows_bytes reply))
                rest
          | [] -> assert false
        in
        (* warm every cache, then interleave writes and queries *)
        List.iteri
          (fun i text -> compare_query (Printf.sprintf "warm %d" i) text)
          queries;
        for step = 1 to 14 do
          let ctxt = Printf.sprintf "round %d step %d" round step in
          (match Prng.int rng 5 with
          | 0 | 1 ->
              let name = if Prng.bool rng then "E" else "F" in
              let tuples =
                List.map Array.to_list
                  (random_rows rng ~width:2 ~n:(1 + Prng.int rng 3) ~dom)
              in
              ignore
                (broadcast
                   (ctxt ^ " insert " ^ name)
                   (Protocol.Insert { name; tuples }))
          | 2 ->
              let name = if Prng.bool rng then "E" else "F" in
              let tuples =
                List.map Array.to_list
                  (random_rows rng ~width:2 ~n:(1 + Prng.int rng 3) ~dom)
              in
              ignore
                (broadcast
                   (ctxt ^ " delete " ^ name)
                   (Protocol.Delete { name; tuples }))
          | _ -> ());
          let text = List.nth queries (Prng.int rng (List.length queries)) in
          compare_query (ctxt ^ " query") text
        done;
        (* a query repeated right after a write must be served from the
           maintained cache on every IVM server *)
        ignore
          (broadcast "final insert"
             (Protocol.Insert { name = "E"; tuples = [ [ 0; 1 ]; [ 1; 0 ] ] }));
        List.iter
          (fun (label, srv) ->
            let reply =
              Server.handle srv
                (Protocol.Query
                   { text = List.hd queries; opts = Protocol.default_opts })
            in
            expect_ok ("post-write query on " ^ label) reply;
            check Alcotest.bool
              (label ^ ": post-write answer came from the maintained cache")
              true (cached_of reply);
            let maintained =
              Option.value ~default:0
                (Metrics.find_counter (Server.metrics srv)
                   "serve.ivm.maintained")
            in
            if maintained = 0 then
              Alcotest.failf "%s: IVM never maintained an entry" label)
          ivm_servers;
        compare_query "final" (List.hd queries)
      done)

(* --- a cached 5-cycle across writes --- *)

(* The 5-cycle routes to the raced decomposition, and so do its
   maintenance terms: after every insert and delete the IVM-maintained
   cached answer must equal a server that recomputes from scratch, and
   the maintenance must have run through the race. *)
let test_five_cycle_maintained () =
  let rng = Prng.create 5_005 in
  let text = "E(a,b), F(b,c), E(c,d), F(d,e), E(e,a)" in
  let ivm = Server.create () in
  let oracle =
    Server.create ~config:{ Server.default_config with ivm = false } ()
  in
  let both ctxt req =
    List.map
      (fun srv ->
        let reply = Server.handle srv req in
        expect_ok ctxt reply;
        reply)
      [ ivm; oracle ]
  in
  let rows n = List.map Array.to_list (random_rows rng ~width:2 ~n ~dom:6) in
  List.iter
    (fun name ->
      ignore
        (both ("load " ^ name)
           (Protocol.Load { name; attrs = [ "u"; "v" ]; tuples = rows 14 })))
    [ "E"; "F" ];
  let query = Protocol.Query { text; opts = Protocol.default_opts } in
  ignore (both "warm" query);
  let race_runs () =
    List.fold_left
      (fun acc name ->
        acc
        + Option.value ~default:0
            (Metrics.find_counter (Server.metrics ivm) name))
      0
      [ "decomposed.race.flat"; "decomposed.race.bags" ]
  in
  let races0 = race_runs () in
  for step = 1 to 10 do
    let ctxt = Printf.sprintf "step %d" step in
    let name = if Prng.bool rng then "E" else "F" in
    let tuples = rows (1 + Prng.int rng 3) in
    ignore
      (both (ctxt ^ " write")
         (if step mod 3 = 0 then Protocol.Delete { name; tuples }
          else Protocol.Insert { name; tuples }));
    match both (ctxt ^ " query") query with
    | [ maintained; recomputed ] ->
        check Alcotest.bool (ctxt ^ ": served from the maintained cache")
          true (cached_of maintained);
        check Alcotest.string (ctxt ^ ": rows equal a full recompute")
          (rows_bytes recomputed) (rows_bytes maintained)
    | _ -> assert false
  done;
  if race_runs () = races0 then
    Alcotest.fail "maintenance terms never ran the raced decomposition"

(* --- WAL fault injection --- *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let temp_path =
  let counter = ref 0 in
  fun stem ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lbt_%s_%d_%d" stem (Unix.getpid ()) !counter)

let sample_records =
  [
    Wal.Load
      { name = "E"; attrs = [| "u"; "v" |]; tuples = [ [| 1; 2 |]; [| 2; 3 |] ] };
    Wal.Insert { name = "E"; tuples = [ [| 3; 4 |] ] };
    Wal.Delete { name = "E"; tuples = [ [| 1; 2 |] ] };
    Wal.Load { name = "F"; attrs = [| "a" |]; tuples = [ [| 7 |] ] };
    Wal.Insert { name = "F"; tuples = [ [| 8 |]; [| 9 |] ] };
    Wal.Drop { name = "F" };
  ]

let check_prefix ctxt path ~want ~valid_bytes ~truncated =
  let r = Wal.replay path in
  check Alcotest.int (ctxt ^ ": record count") (List.length want)
    (List.length r.Wal.records);
  List.iter2
    (fun (v1, rec1) (v2, rec2) ->
      check Alcotest.int (ctxt ^ ": version") v1 v2;
      check Alcotest.bool (ctxt ^ ": record") true (compare rec1 rec2 = 0))
    want r.Wal.records;
  check Alcotest.int (ctxt ^ ": valid_bytes") valid_bytes r.Wal.valid_bytes;
  check Alcotest.bool (ctxt ^ ": truncated") truncated r.Wal.truncated

let test_wal_fault_injection () =
  let path = temp_path "wal" in
  if Sys.file_exists path then Sys.remove path;
  let w = Wal.open_writer path in
  List.iteri (fun i r -> Wal.append w ~version:(i + 1) r) sample_records;
  Wal.close w;
  let whole = read_file path in
  let stamped = List.mapi (fun i r -> (i + 1, r)) sample_records in
  let frames =
    List.map (fun (v, r) -> Wal.frame (Wal.encode ~version:v r)) stamped
  in
  (* cumulative offsets: offsets.(k) = end of record k's frame *)
  let offsets =
    let head = String.length Wal.magic in
    let off = ref head in
    let ends =
      List.map
        (fun f ->
          off := !off + String.length f;
          !off)
        frames
    in
    Array.of_list (head :: ends)
  in
  let n = List.length sample_records in
  check Alcotest.int "file length matches frames" offsets.(n)
    (String.length whole);
  check_prefix "clean log" path ~want:stamped ~valid_bytes:offsets.(n)
    ~truncated:false;
  let prefix k = List.filteri (fun i _ -> i < k) stamped in
  (* 1. truncation at every record boundary: a clean shorter log *)
  for k = 0 to n do
    write_file path (String.sub whole 0 offsets.(k));
    check_prefix
      (Printf.sprintf "boundary cut after %d" k)
      path ~want:(prefix k) ~valid_bytes:offsets.(k) ~truncated:false
  done;
  (* 2. torn tails: cuts strictly inside each frame lose only that
     record and flag the damage *)
  for k = 0 to n - 1 do
    let len = offsets.(k + 1) - offsets.(k) in
    List.iter
      (fun extra ->
        write_file path (String.sub whole 0 (offsets.(k) + extra));
        check_prefix
          (Printf.sprintf "torn cut %d+%d" k extra)
          path ~want:(prefix k) ~valid_bytes:offsets.(k) ~truncated:true)
      [ 1; len / 2; len - 1 ]
  done;
  (* header damage: no records, never a crash *)
  write_file path (String.sub whole 0 3);
  check_prefix "short header" path ~want:[] ~valid_bytes:0 ~truncated:true;
  write_file path ("XXXXXXXX" ^ String.sub whole 8 (offsets.(n) - 8));
  check_prefix "bad magic" path ~want:[] ~valid_bytes:0 ~truncated:true;
  (* 3. corruption inside every record: flip bytes in the length field,
     the payload, and the CRC - replay stops exactly before the damaged
     record *)
  for k = 0 to n - 1 do
    let flen = offsets.(k + 1) - offsets.(k) in
    List.iter
      (fun rel ->
        let b = Bytes.of_string whole in
        let pos = offsets.(k) + rel in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
        write_file path (Bytes.to_string b);
        let r = Wal.replay path in
        check Alcotest.int
          (Printf.sprintf "flip %d@%d: prefix" k rel)
          k
          (List.length r.Wal.records);
        check Alcotest.bool
          (Printf.sprintf "flip %d@%d: truncated" k rel)
          true r.Wal.truncated;
        check Alcotest.int
          (Printf.sprintf "flip %d@%d: valid_bytes" k rel)
          offsets.(k) r.Wal.valid_bytes)
      [ 0; 4 + ((flen - 8) / 2); flen - 1 ]
  done;
  (* 4. repair then append: the log is usable again and the new record
     lands after the surviving prefix *)
  let cut = 2 in
  write_file path (String.sub whole 0 (offsets.(cut) + 5));
  let damaged = Wal.replay path in
  check Alcotest.bool "repair target is damaged" true damaged.Wal.truncated;
  let w = Wal.open_writer path in
  Wal.repair w ~valid_bytes:damaged.Wal.valid_bytes;
  let extra = Wal.Insert { name = "E"; tuples = [ [| 42; 42 |] ] } in
  Wal.append w ~version:99 extra;
  Wal.close w;
  let r = Wal.replay path in
  check Alcotest.bool "repaired log is clean" false r.Wal.truncated;
  check Alcotest.int "repaired log length" (cut + 1)
    (List.length r.Wal.records);
  (match List.nth r.Wal.records cut with
  | 99, Wal.Insert { name = "E"; tuples = [ [| 42; 42 |] ] } -> ()
  | _ -> Alcotest.fail "appended record not recovered");
  Sys.remove path

(* --- kill-and-restart recovery --- *)

let temp_dir stem =
  let d = temp_path stem in
  Unix.mkdir d 0o700;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let durable_config dir =
  { Server.default_config with data_dir = Some dir; snapshot_every = 100 }

let triangle = List.hd queries

let run_query srv =
  Server.handle srv (Protocol.Query { text = triangle; opts = Protocol.default_opts })

let counter srv name =
  Option.value ~default:0 (Metrics.find_counter (Server.metrics srv) name)

let test_kill_and_restart () =
  let dir = temp_dir "durable" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let rng = Prng.create 4242 in
      let tuples =
        List.map Array.to_list (random_rows rng ~width:2 ~n:24 ~dom:6)
      in
      (* session 1: load, warm the cache, checkpoint (persisting the
         cache), then write through IVM and vanish without shutdown -
         recovery must restore the snapshot's cache AND maintain it
         forward through the WAL records past the snapshot *)
      let s1 = Server.create ~config:(durable_config dir) () in
      expect_ok "load"
        (Server.handle s1
           (Protocol.Load { name = "E"; attrs = [ "u"; "v" ]; tuples }));
      expect_ok "first query" (run_query s1);
      expect_ok "mid-session checkpoint" (Server.handle s1 Protocol.Checkpoint);
      expect_ok "insert"
        (Server.handle s1
           (Protocol.Insert { name = "E"; tuples = [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] }));
      let last = run_query s1 in
      expect_ok "post-insert query" last;
      check Alcotest.bool "session 1 answer is IVM-maintained" true
        (cached_of last);
      let want_rows = rows_bytes last in
      let want_summary = Catalog.summary (Server.catalog s1) in
      let want_version = Catalog.version (Server.catalog s1) in
      (* session 2: recover from snapshot + WAL replay *)
      let s2 = Server.create ~config:(durable_config dir) () in
      check
        Alcotest.(list (pair string int))
        "relations survive the crash" want_summary
        (Catalog.summary (Server.catalog s2));
      check Alcotest.int "catalog version survives" want_version
        (Catalog.version (Server.catalog s2));
      check Alcotest.bool "WAL records were replayed" true
        (counter s2 "serve.wal.replayed" > 0);
      let replayed = run_query s2 in
      expect_ok "recovered query" replayed;
      check Alcotest.bool "recovered answer comes from the warm cache" true
        (cached_of replayed);
      check Alcotest.string "recovered answer byte-identical" want_rows
        (rows_bytes replayed);
      check Alcotest.bool "warm cache registered a hit" true
        (counter s2 "serve.cache.result.hits" > 0);
      (* checkpoint, then restart again: now recovery comes from the
         snapshot alone *)
      let ck = Server.handle s2 Protocol.Checkpoint in
      expect_ok "checkpoint" ck;
      check Alcotest.bool "snapshot written" true
        (counter s2 "serve.wal.snapshots" > 0);
      let s3 = Server.create ~config:(durable_config dir) () in
      check Alcotest.int "snapshot-only replay" 0
        (counter s3 "serve.wal.replayed");
      let from_snapshot = run_query s3 in
      check Alcotest.bool "snapshot restores the result cache" true
        (cached_of from_snapshot);
      check Alcotest.string "snapshot answer byte-identical" want_rows
        (rows_bytes from_snapshot);
      (* a write after recovery keeps maintaining the recovered cache *)
      expect_ok "post-recovery insert"
        (Server.handle s3
           (Protocol.Insert { name = "E"; tuples = [ [ 3; 4 ] ] }));
      let maintained = run_query s3 in
      expect_ok "post-recovery query" maintained;
      check Alcotest.bool "recovered entry is maintainable" true
        (cached_of maintained))

let test_restart_with_corrupt_tail () =
  let dir = temp_dir "torn" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s1 = Server.create ~config:(durable_config dir) () in
      expect_ok "load"
        (Server.handle s1
           (Protocol.Load
              {
                name = "E";
                attrs = [ "u"; "v" ];
                tuples = [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 1 ] ];
              }));
      expect_ok "insert"
        (Server.handle s1
           (Protocol.Insert { name = "E"; tuples = [ [ 4; 5 ] ] }));
      let want = rows_bytes (run_query s1) in
      (* the crash tears the last append mid-frame *)
      let wal = Filename.concat dir "wal.lbt" in
      let bytes = read_file wal in
      write_file wal (String.sub bytes 0 (String.length bytes - 3));
      let s2 = Server.create ~config:(durable_config dir) () in
      check Alcotest.bool "torn tail was repaired" true
        (counter s2 "serve.wal.repaired" > 0);
      (* the torn record (the insert) is lost; the load survives *)
      check
        Alcotest.(list (pair string int))
        "prefix state recovered"
        [ ("E", 3) ]
        (Catalog.summary (Server.catalog s2));
      (* the repaired log accepts new appends and the next restart sees
         them *)
      expect_ok "insert after repair"
        (Server.handle s2
           (Protocol.Insert { name = "E"; tuples = [ [ 4; 5 ] ] }));
      let healed = rows_bytes (run_query s2) in
      check Alcotest.string "replayed write restores the answer" want healed;
      let s3 = Server.create ~config:(durable_config dir) () in
      check
        Alcotest.(list (pair string int))
        "post-repair append is durable"
        [ ("E", 4) ]
        (Catalog.summary (Server.catalog s3));
      check Alcotest.string "final restart byte-identical" want
        (rows_bytes (run_query s3)))

let suite =
  [
    Alcotest.test_case "catalog differential + dump/restore round-trip"
      `Quick test_catalog_differential;
    Alcotest.test_case "server IVM differential across drivers" `Quick
      test_server_ivm_differential;
    Alcotest.test_case "cached 5-cycle maintained = recompute" `Quick
      test_five_cycle_maintained;
    Alcotest.test_case "WAL fault injection (truncate, tear, corrupt)"
      `Quick test_wal_fault_injection;
    Alcotest.test_case "kill-and-restart recovery with warm caches" `Quick
      test_kill_and_restart;
    Alcotest.test_case "restart over a corrupt WAL tail" `Quick
      test_restart_with_corrupt_tail;
  ]
