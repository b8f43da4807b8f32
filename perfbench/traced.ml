(* The traced run: one fixed-length prefix of the seeded stream, run
   twice.

   Pass 1 (TCP) sends it to a real `lbt serve` and keeps each
   request's end-to-end latency, plus the server's gc telemetry from
   `stats` before and after.

   Pass 2 (in process) sends it through Server.handle_line on a
   Server.t with the same config, and replays the work each request
   did through the layers' public functions, under spans recorded in
   this file: Protocol decode; Planner.choose on plan-cache misses;
   Trie.build + Compile.answer, Yannakakis.answer or
   Decomposed_join.answer, then Ivm.canonical, on result-cache misses;
   Json encode of every reply.  Writes replay on a shadow Catalog, on
   shadow IVM entries for the warm read set, on a shadow WAL, and as a
   shadow snapshot whenever the server checkpointed.  All spans of one
   request share its index as id.

   Counts come from reply counters and the server's metrics and repeat
   exactly for a seed (the self-test checks this); timings sit beside
   them. *)

module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Metrics = Lb_util.Metrics
module Json = Lb_service.Json
module Server = Lb_service.Server
module Catalog = Lb_service.Catalog
module Planner = Lb_service.Planner
module Protocol = Lb_service.Protocol
module Ivm = Lb_service.Ivm
module Wal = Lb_service.Wal
module Snapshot = Lb_service.Snapshot

(* Requests of the traced prefix (stream ops, not counting warm-up and
   the write probe). *)
let stream_ops = function
  | Workload.Hot_reads -> 20_000
  | Workload.Cold_joins -> 300
  | Workload.Fhw_joins -> 120
  | Workload.Write_mix -> 600

(* warm-up ops, measured ops *)
let plan ?(probe = 200) (wl : Workload.t) ~seed ~ops =
  let warm =
    List.map
      (fun text -> Workload.Read { text; count_only = true; limit = None })
      (Served.warm_texts wl ~seed)
  in
  let stream = List.init ops (fun _ -> wl.Workload.next ()) in
  let probe =
    if wl.Workload.kind = Workload.Write_mix then []
    else List.init probe (fun _ -> wl.Workload.next_write ())
  in
  (warm, Array.of_list (stream @ probe))

(* --- spans --- *)

type span = { req : int; name : string; t0 : float; t1 : float }

type tracer = {
  mutable spans : span list;
  totals : (string, float ref) Hashtbl.t; (* name -> total seconds *)
}

let tracer () = { spans = []; totals = Hashtbl.create 32 }

let bump tbl name v =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r + v
  | None -> Hashtbl.replace tbl name (ref v)

let add_time tr name dt =
  match Hashtbl.find_opt tr.totals name with
  | Some r -> r := !r +. dt
  | None -> Hashtbl.replace tr.totals name (ref dt)

(* Run [f] under a span; returns its value and duration in seconds. *)
let span_dt tr ~req name f =
  let t0 = Stat.now () in
  let v = f () in
  let t1 = Stat.now () in
  tr.spans <- { req; name; t0; t1 } :: tr.spans;
  add_time tr name (t1 -. t0);
  (v, t1 -. t0)

let span tr ~req name f = fst (span_dt tr ~req name f)

let total tr name =
  match Hashtbl.find_opt tr.totals name with Some r -> !r | None -> 0.0

let write_spans tr path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"req\":%d,\"name\":%S,\"start_us\":%.1f,\"dur_us\":%.1f}\n"
        s.req s.name (s.t0 *. 1e6) ((s.t1 -. s.t0) *. 1e6))
    (List.rev tr.spans);
  close_out oc

(* --- the in-process pass --- *)

(* Deterministic counts of one pass: the self-test compares these. *)
type counts = {
  reads : int;
  writes : int;
  loads : int;
  plan_misses : int;
  checkpoints : int;
  wal_bytes : int;
  rows_written : int;
  bad_replies : int; (* replies the mirror disagreed with *)
  counters : (string * int) list;
      (* summed reply counters, routes, rows sorted, and server metric
         deltas - every deterministic count of the pass *)
}

let int_member k j = match Json.member k j with Some (Json.Int n) -> n | _ -> 0

let server_counter srv name =
  Option.value ~default:0 (Metrics.find_counter (Server.metrics srv) name)

let watched =
  [
    "serve.cache.plan.hits";
    "serve.cache.plan.misses";
    "serve.cache.result.hits";
    "serve.cache.result.misses";
    "serve.ivm.maintained";
    "serve.ivm.refreshed";
    "serve.ivm.invalidated";
    "serve.ivm.untouched";
    "serve.ivm.delta_rows";
    "serve.wal.appends";
    "serve.wal.snapshots";
  ]

(* What the server runs IVM delta terms with: interpreted, planner's
   engine. *)
let runner : Ivm.runner =
 fun db q ->
  let plan = Planner.choose ~compile:false db q in
  match plan.Planner.engine with
  | Planner.Yannakakis -> fst (Lb_relalg.Yannakakis.answer db q)
  | Planner.Binary_hash -> fst (Lb_relalg.Binary_plan.run db q)
  | Planner.Generic_join -> Lb_relalg.Generic_join.answer db q
  | Planner.Leapfrog -> Lb_relalg.Leapfrog.answer db q
  | Planner.Decomposed ->
      fst
        (Lb_relalg.Decomposed_join.answer
           ?decomposition:plan.Planner.decomposition db q)

type entry = { e_text : string; e_q : Q.t; e_rels : string list; mutable ans : Ivm.answer }

let rels_of (q : Q.t) = List.sort_uniq compare (List.map (fun (a : Q.atom) -> a.Q.rel) q)

(* The shadow checkpoint: what Server.checkpoint writes, from the
   shadow catalog and shadow entries. *)
let shadow_checkpoint ~path catalog entries =
  let row r = Json.List (List.map (fun v -> Json.Int v) (Array.to_list r)) in
  let dump = Catalog.dump catalog in
  let doc =
    Json.Obj
      [
        ("version", Json.Int (Catalog.version catalog));
        ( "relations",
          Json.List
            (List.map
               (fun (name, _, tuples, rv) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("version", Json.Int rv);
                     ("tuples", Json.List (List.map row (Array.to_list tuples)));
                   ])
               dump) );
        ( "results",
          Json.List
            (List.map
               (fun e ->
                 Json.Obj
                   [
                     ("key", Json.String e.e_text);
                     ("rows", Json.List (List.map row (Array.to_list e.ans.Ivm.rows)));
                   ])
               entries) );
      ]
  in
  Snapshot.write ~path doc;
  Snapshot.write_image ~path
    ~stamp:(Digest.to_hex (Digest.string (Json.to_string doc)))
    (List.map
       (fun (name, attrs, (rows : int array array), _) ->
         let n = Array.length rows in
         (name, n, Array.init (Array.length attrs) (fun d ->
              Lb_util.Column.init n (fun i -> rows.(i).(d)))))
       dump)

(* Replay one result-cache miss through the engine layers its plan
   names, under spans; returns the answer relation.  Flat WCOJ plans
   split into their trie builds and the compiled loop nest. *)
let replay_engine tr ~req ~add (plan : Planner.plan) db q =
  match (plan.Planner.engine, plan.Planner.compiled) with
  | (Planner.Leapfrog | Planner.Generic_join), Some ir ->
      let order = ir.Lb_relalg.Compile.order in
      let built =
        List.fold_left
          (fun acc atom ->
            let bound = Q.bind_atom db atom in
            add "Trie.rows_sorted" (R.cardinality bound);
            acc
            +. snd
                 (span_dt tr ~req "Trie.build" (fun () ->
                      Lb_relalg.Trie.build ~order bound)))
          0.0 q
      in
      let rel, dt =
        span_dt tr ~req "Compile.answer" (fun () -> Lb_relalg.Compile.answer ir db q)
      in
      add_time tr "Compile.loop" (dt -. built);
      rel
  | Planner.Yannakakis, _ ->
      fst (span tr ~req "Yannakakis.answer" (fun () -> Lb_relalg.Yannakakis.answer db q))
  | Planner.Decomposed, _ ->
      fst
        (span tr ~req "Decomposed_join.answer" (fun () ->
             Lb_relalg.Decomposed_join.answer ~compile:true
               ?decomposition:plan.Planner.decomposition db q))
  | _ -> Q.answer db q

let inproc ?(tr = tracer ()) (wl : Workload.t) ~warm ~(ops : Workload.op array) =
  let dir = Proc.fresh_dir "traced" in
  let config =
    { Server.default_config with Server.data_dir = Some (Filename.concat dir "server") }
  in
  let srv = Server.create ~config () in
  let shadow = Catalog.create () in
  let wal = Wal.open_writer (Filename.concat dir "shadow.wal") in
  let snap_path = Filename.concat dir "shadow.snapshot" in
  List.iter
    (fun ((name, tuples) as rel) ->
      ignore (Server.handle_line srv (Workload.load_line rel));
      ignore
        (span tr ~req:(-1) "Catalog.load" (fun () ->
             Catalog.load shadow ~name ~attrs:Workload.attrs tuples)))
    wl.Workload.relations;
  let mirror = Mirror.create () in
  List.iter (Mirror.load mirror) wl.Workload.relations;
  let bad = ref 0 in
  let check op reply =
    match Mirror.check mirror op (Mirror.digest op (Ok reply)) with
    | Ok () -> ()
    | Error _ -> incr bad
  in
  List.iter
    (fun op -> check op (Json.parse (Server.handle_line srv (Workload.line op))))
    warm;
  let entries =
    if wl.Workload.kind <> Workload.Write_mix then []
    else
      let db = Catalog.database shadow in
      List.map
        (fun text ->
          let q = Q.parse text in
          { e_text = text; e_q = q; e_rels = rels_of q; ans = Ivm.canonical q (runner db q) })
        (Array.to_list wl.Workload.working_set)
  in
  let base = List.map (fun n -> (n, server_counter srv n)) watched in
  let sums = Hashtbl.create 32 in
  let add k v = bump sums k v in
  let reads = ref 0 and writes = ref 0 and plan_misses = ref 0 in
  let checkpoints = ref 0 and wal_bytes = ref 0 and rows_written = ref 0 in
  (* reply sizes vary with the embedded elapsed_ms, so they are not
     among the repeatable counts *)
  let reply_bytes = ref 0 in
  let handle_s = Array.make (Array.length ops) 0.0 in
  Array.iteri
    (fun req op ->
      let line = Workload.line op in
      ignore (span tr ~req "Protocol.decode" (fun () -> Protocol.request_of_string line));
      let before name = server_counter srv name in
      let pm0 = before "serve.cache.plan.misses"
      and rm0 = before "serve.cache.result.misses"
      and sn0 = before "serve.wal.snapshots" in
      let name = match op with Workload.Read _ -> "Server.query" | _ -> "Server.write" in
      let reply, dt = span_dt tr ~req name (fun () -> Server.handle_line srv line) in
      handle_s.(req) <- dt;
      let j = Json.parse reply in
      ignore (span tr ~req "Json.encode" (fun () -> Json.to_string j));
      reply_bytes := !reply_bytes + String.length reply;
      check op j;
      match op with
      | Workload.Read { text; _ } -> (
          incr reads;
          let counters =
            match Json.member "counters" j with Some (Json.Obj l) -> l | _ -> []
          in
          List.iter (function k, Json.Int v -> add ("reply." ^ k) v | _ -> ()) counters;
          let engine =
            match Option.bind (Json.member "plan" j) (Json.member "engine") with
            | Some (Json.String e) -> e
            | _ -> "none"
          in
          add ("route." ^ engine) 1;
          let plan_miss = server_counter srv "serve.cache.plan.misses" > pm0 in
          let result_miss = server_counter srv "serve.cache.result.misses" > rm0 in
          if plan_miss then incr plan_misses;
          if plan_miss || result_miss then begin
            let q = Q.parse text in
            let db = Catalog.database (Server.catalog srv) in
            let choose () = Planner.choose ~compile:true db q in
            let plan =
              if plan_miss then span tr ~req "Planner.choose" choose else choose ()
            in
            if result_miss then begin
              let rel = replay_engine tr ~req ~add plan db q in
              let ans = span tr ~req "Ivm.canonical" (fun () -> Ivm.canonical q rel) in
              add "Ivm.rows_sorted" (Array.length ans.Ivm.rows);
              if plan.Planner.engine = Planner.Decomposed then
                add "Decomposed_join.rows" (int_member "count" j)
            end
          end)
      | Workload.Insert (name, rows) | Workload.Delete (name, rows) ->
          incr writes;
          rows_written := !rows_written + List.length rows;
          let is_insert = match op with Workload.Insert _ -> true | _ -> false in
          let db_old = Catalog.database shadow in
          let effective =
            span tr ~req "Catalog.write" (fun () ->
                if is_insert then Catalog.insert shadow ~name rows
                else Catalog.delete shadow ~name rows)
          in
          let db_new = Catalog.database shadow in
          (match effective with
          | Ok (_, eff) when Array.length eff > 0 ->
              let delta = R.of_sorted_distinct Workload.attrs eff in
              List.iter
                (fun e ->
                  if List.mem name e.e_rels then
                    e.ans <-
                      span tr ~req "Ivm.maintain" (fun () ->
                          (if is_insert then Ivm.insert_maintain else Ivm.delete_maintain)
                            ~runner ~db_old ~db_new ~name ~delta e.e_q e.ans))
                entries
          | _ -> ());
          let record =
            if is_insert then Wal.Insert { name; tuples = rows }
            else Wal.Delete { name; tuples = rows }
          in
          let size0 = Wal.size wal in
          span tr ~req "Wal.append" (fun () ->
              Wal.append wal ~version:(Catalog.version shadow) record);
          wal_bytes := !wal_bytes + (Wal.size wal - size0);
          if server_counter srv "serve.wal.snapshots" > sn0 then begin
            incr checkpoints;
            span tr ~req "Snapshot.checkpoint" (fun () ->
                shadow_checkpoint ~path:snap_path shadow entries);
            Wal.reset wal
          end)
    ops;
  List.iter (fun (n, v0) -> add n (server_counter srv n - v0)) base;
  add "Catalog.compactions"
    (List.fold_left
       (fun acc (name, _) ->
         match Catalog.delta_stats (Server.catalog srv) name with
         | Some (_, _, c) -> acc + c
         | None -> acc)
       0 wl.Workload.relations);
  Wal.close wal;
  ignore (Server.handle_line srv (Protocol.request_to_string Protocol.Shutdown));
  Proc.drop_dir dir;
  let counts =
    {
      reads = !reads;
      writes = !writes;
      loads = List.length wl.Workload.relations;
      plan_misses = !plan_misses;
      checkpoints = !checkpoints;
      wal_bytes = !wal_bytes;
      rows_written = !rows_written;
      bad_replies = !bad;
      counters =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, !v) :: acc) sums []);
    }
  in
  (counts, handle_s, !reply_bytes)

(* --- the TCP pass --- *)

let gc_field stats k =
  match Option.bind stats (Json.member "gc") with
  | Some g -> int_member k g
  | None -> 0

let tcp ~lbt (wl : Workload.t) ~warm ~ops =
  let s, _, _ = Served.setup ~lbt wl in
  List.iter (fun op -> ignore (Served.request s (Workload.line op))) warm;
  let stats () =
    match Served.request s (Protocol.request_to_string Protocol.Stats) with
    | Ok j -> Some j
    | Error _ -> None
  in
  let st0 = stats () in
  let bad = ref 0 in
  let e2e =
    Array.map
      (fun op ->
        let line = Workload.line op in
        let t0 = Stat.now () in
        let r = Served.request s line in
        let dt = Stat.now () -. t0 in
        if not (Served.ok_reply r) then incr bad;
        dt)
      ops
  in
  let st1 = stats () in
  Served.shutdown s;
  let delta k = gc_field st1 k - gc_field st0 k in
  (e2e, delta "minor_words", delta "major_collections", !bad)

(* --- report --- *)

let report ?spans ~lbt kind ~seed =
  let wl = Workload.make kind ~seed in
  let warm, ops = plan wl ~seed ~ops:(stream_ops kind) in
  let e2e, minor_words, majors, tcp_bad = tcp ~lbt wl ~warm ~ops in
  (* a fresh generator: the in-process pass replays the same prefix *)
  let wl' = Workload.make kind ~seed in
  let warm', ops' = plan wl' ~seed ~ops:(stream_ops kind) in
  let tr = tracer () in
  let c, handle_s, reply_bytes = inproc ~tr wl' ~warm:warm' ~ops:ops' in
  Option.iter (write_spans tr) spans;
  let get k = Option.value ~default:0 (List.assoc_opt k c.counters) in
  let n = Array.length ops in
  let per d v = if d = 0 then 0.0 else v /. float_of_int d in
  let us_per d name = per d (total tr name *. 1e6) in
  let ratio a b = per (a + b) (float_of_int a) in
  let frontend = Stat.samples () in
  (* Only requests the server answers in under a millisecond: on
     expensive ones the front end drowns in run-to-run noise. *)
  Array.iteri
    (fun i e ->
      if handle_s.(i) < 1e-3 then Stat.push frontend ((e -. handle_s.(i)) *. 1e6))
    e2e;
  let reads = c.reads and writes = c.writes in
  let metrics =
    [
      ( "Server.frontend_us",
        (if frontend.Stat.n = 0 then 0.0 else Stat.percentile frontend 0.5),
        "us", Printf.sprintf "median e2e - handle_line, n=%d requests under 1 ms" frontend.Stat.n );
      ("Server.query_us", us_per reads "Server.query", "us", "per read");
      ("Server.write_us", us_per writes "Server.write", "us", "per write");
      ("Protocol.decode_us", us_per n "Protocol.decode", "us", "per request");
      ("Json.encode_us", us_per n "Json.encode", "us", "per request");
      ("Json.reply_bytes", per n (float_of_int reply_bytes), "bytes", "per request");
      ( "Server.result_cache_hit_ratio",
        ratio (get "serve.cache.result.hits") (get "serve.cache.result.misses"),
        "ratio", "of result-cache lookups" );
      ( "Server.plan_cache_hit_ratio",
        ratio (get "serve.cache.plan.hits") (get "serve.cache.plan.misses"),
        "ratio", "of plan-cache lookups" );
      ("Planner.choose_us", us_per c.plan_misses "Planner.choose", "us", "per plan miss");
      ("Planner.route.leapfrog", per reads (float_of_int (get "route.leapfrog")), "ratio", "of reads");
      ("Planner.route.yannakakis", per reads (float_of_int (get "route.yannakakis")), "ratio", "of reads");
      ("Planner.route.decomposed", per reads (float_of_int (get "route.decomposed")), "ratio", "of reads");
      ("Trie.build_us", us_per reads "Trie.build", "us", "per read");
      ( "Trie.builds_per_query",
        per reads
          (float_of_int
             (get "reply.leapfrog.trie_builds" + get "reply.generic_join.trie_builds")),
        "count", "per read, reply counters" );
      ("Trie.rows_sorted_per_query", per reads (float_of_int (get "Trie.rows_sorted")), "count", "per read");
      ("Compile.loop_us", us_per reads "Compile.loop", "us", "per read, Compile.answer - Trie.build");
      ( "Compile.work_per_row",
        per
          (get "reply.leapfrog.emitted" + get "reply.generic_join.emitted")
          (float_of_int (get "reply.leapfrog.seeks" + get "reply.generic_join.intersections")),
        "ratio", "seeks+intersections per emitted row" );
      ("Yannakakis.answer_us", us_per reads "Yannakakis.answer", "us", "per read");
      ("Ivm.canonical_us", us_per reads "Ivm.canonical", "us", "per read");
      ("Ivm.rows_sorted", per reads (float_of_int (get "Ivm.rows_sorted")), "count", "per read");
      ("Decomposed_join.answer_us", us_per reads "Decomposed_join.answer", "us", "per read");
      ( "Decomposed_join.bag_tuples_per_row",
        per (get "Decomposed_join.rows") (float_of_int (get "reply.decomposed_join.bag_tuples")),
        "ratio", "bag tuples per answer row" );
      ("Catalog.write_us", us_per writes "Catalog.write", "us", "per write");
      ("Catalog.load_us", us_per c.loads "Catalog.load", "us", "per load");
      ("Catalog.compactions", float_of_int (get "Catalog.compactions"), "count", "delta-trie compactions");
      ("Ivm.maintain_us", us_per writes "Ivm.maintain", "us", "per write");
      ( "Ivm.maintained_ratio",
        per
          (get "serve.ivm.maintained" + get "serve.ivm.refreshed" + get "serve.ivm.invalidated")
          (float_of_int (get "serve.ivm.maintained")),
        "ratio", "of cached entries a write touched" );
      ("Ivm.delta_rows_per_write", per writes (float_of_int (get "serve.ivm.delta_rows")), "count", "per write");
      ("Wal.append_us", us_per writes "Wal.append", "us", "per write");
      ("Wal.bytes_per_row", per c.rows_written (float_of_int c.wal_bytes), "bytes", "per written row");
      ("Snapshot.checkpoint_us", us_per c.checkpoints "Snapshot.checkpoint", "us", "per checkpoint");
      ("Snapshot.checkpoints", float_of_int (get "serve.wal.snapshots"), "count", "server checkpoints");
      ("gc.minor_words_per_op", per n (float_of_int minor_words), "words", "lbt serve, per request");
      ("gc.major_collections", float_of_int majors, "count", "lbt serve, traced prefix");
    ]
  in
  Printf.printf "traced prefix: %d requests (%d reads, %d writes)\n" n reads writes;
  Out.print_result ~attempted:(2 * n) ~failed:(c.bad_replies + tcp_bad) metrics
