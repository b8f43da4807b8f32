(* Tests for the query service (lib/service).

   - Planner differential: for random catalogs and queries, the answer
     produced through the server (planner-chosen engine, and every
     feasible forced engine) must equal the naive hash-join oracle
     (Query.answer).
   - Protocol fuzz: random typed requests encode -> decode -> encode
     byte-identically, and decode is a left inverse of encode.
   - Admission control: a window beyond max_pending is shed with
     "overloaded" replies - the queue never grows past the bound.
   - The scripted acceptance session: plans match the structure
     (Yannakakis on the acyclic query, a WCOJ engine on the triangle),
     repeats hit the result cache, a tick-bounded hard query times out
     with partial counters, and mutations invalidate the cache. *)

module Json = Lb_service.Json
module Protocol = Lb_service.Protocol
module Planner = Lb_service.Planner
module Catalog = Lb_service.Catalog
module Server = Lb_service.Server
module Client = Lb_service.Client
module Worker = Lb_service.Worker
module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Prng = Lb_util.Prng
module Metrics = Lb_util.Metrics

let check = Alcotest.check

(* --- response plumbing --- *)

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

let int_of = function Json.Int i -> i | _ -> Alcotest.fail "expected int"

let rows_of_response json =
  match field "rows" json with
  | Json.List rows ->
      List.map
        (function
          | Json.List cells -> Array.of_list (List.map int_of cells)
          | _ -> Alcotest.fail "row is not an array")
        rows
  | _ -> Alcotest.fail "rows is not an array"

let engine_of_response json =
  match Json.member "engine" (field "plan" json) with
  | Some (Json.String e) -> e
  | _ -> Alcotest.fail "plan lacks engine"

let cached_of_response json =
  match field "cached" json with
  | Json.Bool b -> b
  | _ -> Alcotest.fail "cached is not a bool"

(* Canonical form of the oracle answer: the server's column order
   (attributes in order of first appearance) and sorted rows. *)
let canonical_rows (q : Q.t) (rel : R.t) =
  let projected = R.project rel (Q.attributes q) in
  let rows = Array.copy (R.tuples projected) in
  Array.sort compare rows;
  Array.to_list rows

(* --- random instances (same family as test_join_engine) --- *)

let var_pool = [| "a"; "b"; "c"; "d" |]

let random_query rng =
  let nvars = 2 + Prng.int rng 3 in
  let natoms = 1 + Prng.int rng 3 in
  List.init natoms (fun i ->
      let arity = 1 + Prng.int rng 3 in
      let vs = Array.init arity (fun _ -> var_pool.(Prng.int rng nvars)) in
      Q.atom (Printf.sprintf "R%d" i) vs)

let random_db rng (q : Q.t) =
  let dom = 2 + Prng.int rng 4 in
  Db.of_list
    (List.map
       (fun (a : Q.atom) ->
         let arity = Array.length a.Q.attrs in
         let nrows =
           if Prng.bernoulli rng 0.05 then 0 else 1 + Prng.int rng 12
         in
         let tuples =
           List.init nrows (fun _ ->
               Array.init arity (fun _ -> Prng.int rng dom))
         in
         let attrs = Array.init arity (Printf.sprintf "c%d") in
         (a.Q.rel, R.make attrs tuples))
       q)

let server_with_db ?(config = Server.default_config) db =
  let srv = Server.create ~config () in
  List.iter
    (fun name ->
      let rel = Db.find db name in
      match
        Catalog.load (Server.catalog srv) ~name ~attrs:(R.attrs rel)
          (Array.to_list (R.tuples rel))
      with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "catalog load %s: %s" name msg)
    (Db.names db);
  srv

let query_req ?engine text =
  Protocol.Query
    { text; opts = { Protocol.default_opts with engine } }

(* --- the differential property --- *)

let test_planner_differential () =
  for seed = 1 to 60 do
    let rng = Prng.create (97 * seed) in
    let q = random_query rng in
    let db = random_db rng q in
    let srv = server_with_db db in
    let expected = canonical_rows q (Q.answer db q) in
    let engines =
      None
      :: List.filter_map
           (fun e ->
             if
               e = Planner.Yannakakis
               && not (Lb_relalg.Yannakakis.is_acyclic q)
             then None
             else Some (Some e))
           Planner.all_engines
    in
    List.iter
      (fun engine ->
        let reply = Server.handle srv (query_req ?engine (Q.to_string q)) in
        let ctxt =
          Printf.sprintf "seed %d, query %s, engine %s" seed (Q.to_string q)
            (match engine with
            | None -> "auto"
            | Some e -> Planner.engine_name e)
        in
        expect_ok ctxt reply;
        if rows_of_response reply <> expected then
          Alcotest.failf "%s: answer differs from hash-join oracle" ctxt;
        check Alcotest.int (ctxt ^ " count") (List.length expected)
          (int_of (field "count" reply)))
      engines
  done

(* --- protocol round-trip fuzz --- *)

let name_pool =
  [| "R"; "S"; "edge_2"; "we\"ird"; "back\\slash"; "tab\there"; "nl\nline";
     "ctrl\001"; "caf\xc3\xa9" |]

let random_string rng = name_pool.(Prng.int rng (Array.length name_pool))

let random_tuples rng =
  let rows = Prng.int rng 4 in
  let width = 1 + Prng.int rng 3 in
  List.init rows (fun _ ->
      List.init width (fun _ -> Prng.int rng 20 - 5))

let random_opts rng =
  let opt f = if Prng.bool rng then Some (f ()) else None in
  {
    Protocol.engine =
      (if Prng.bool rng then None
       else
         Some
           (List.nth Planner.all_engines
              (Prng.int rng (List.length Planner.all_engines))));
    count_only = Prng.bool rng;
    limit = opt (fun () -> Prng.int rng 1000);
    timeout_ms = opt (fun () -> 1 + Prng.int rng 10_000);
    max_ticks = opt (fun () -> 1 + Prng.int rng 1_000_000);
  }

let random_request rng =
  match Prng.int rng 10 with
  | 0 ->
      Protocol.Load
        {
          name = random_string rng;
          attrs = List.init (1 + Prng.int rng 3) (fun _ -> random_string rng);
          tuples = random_tuples rng;
        }
  | 1 -> Protocol.Insert { name = random_string rng; tuples = random_tuples rng }
  | 2 -> Protocol.Delete { name = random_string rng; tuples = random_tuples rng }
  | 3 -> Protocol.Drop { name = random_string rng }
  | 4 -> Protocol.Query { text = random_string rng; opts = random_opts rng }
  | 5 -> Protocol.Explain { text = random_string rng }
  | 6 -> Protocol.Stats
  | 7 -> Protocol.Checkpoint
  | 8 -> Protocol.Ping
  | _ -> Protocol.Shutdown

let test_protocol_roundtrip () =
  for seed = 1 to 500 do
    let rng = Prng.create (11 * seed) in
    let req = random_request rng in
    let line = Protocol.request_to_string req in
    match Protocol.request_of_string line with
    | Error msg -> Alcotest.failf "seed %d: decode failed: %s (%s)" seed msg line
    | Ok req' ->
        if req' <> req then
          Alcotest.failf "seed %d: decode is not a left inverse (%s)" seed line;
        let line' = Protocol.request_to_string req' in
        check Alcotest.string
          (Printf.sprintf "seed %d: byte-identical re-encode" seed)
          line line'
  done

(* JSON values that did not originate from our encoder also round-trip
   through parse/print canonically. *)
let test_json_canonical () =
  List.iter
    (fun (input, canonical) ->
      let v = Json.parse input in
      check Alcotest.string input canonical (Json.to_string v);
      check Alcotest.string (input ^ " (idempotent)") canonical
        (Json.to_string (Json.parse (Json.to_string v))))
    [
      ({| { "a" : [ 1, 2.5, -3 ] , "b" : "xA\n" } |},
       {|{"a":[1,2.5,-3],"b":"xA\n"}|});
      ("[true,false,null]", "[true,false,null]");
      ({|"café"|}, "\"caf\xc3\xa9\"");
      ("1e3", "1000.0");
      ("{}", "{}");
    ]

(* --- admission control --- *)

let test_overload_rejection () =
  let config = { Server.default_config with max_pending = 4 } in
  let srv = Server.create ~config () in
  (match
     Catalog.load (Server.catalog srv) ~name:"R" ~attrs:[| "a"; "b" |]
       [ [| 1; 2 |]; [| 2; 3 |] ]
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let reqs = List.init 20 (fun _ -> query_req "R(a,b)") in
  let replies = Server.submit_window srv reqs in
  check Alcotest.int "one reply per request" 20 (List.length replies);
  List.iteri
    (fun i reply ->
      let expected = if i < 4 then "ok" else "overloaded" in
      check Alcotest.string (Printf.sprintf "reply %d" i) expected
        (status reply);
      if i >= 4 then begin
        check Alcotest.int "max_pending echoed" 4
          (int_of (field "max_pending" reply))
      end)
    replies;
  check Alcotest.(option int) "shed count" (Some 16)
    (Metrics.find_counter (Server.metrics srv) "serve.overloaded")

(* --- the scripted acceptance session --- *)

let handle_ok srv ctxt req =
  let reply = Server.handle srv req in
  expect_ok ctxt reply;
  reply

let load_req name attrs tuples = Protocol.Load { name; attrs; tuples }

let test_scripted_session () =
  let srv = Server.create () in
  let handle = Server.handle srv in
  (* complete directed graph on 5 vertices *)
  let edges =
    List.concat_map
      (fun x -> List.filter_map (fun y -> if x = y then None else Some [ x; y ])
          [ 0; 1; 2; 3; 4 ])
      [ 0; 1; 2; 3; 4 ]
  in
  ignore (handle_ok srv "load E" (load_req "E" [ "u"; "v" ] edges));
  ignore
    (handle_ok srv "load P1" (load_req "P1" [ "a"; "b" ] [ [ 1; 2 ]; [ 2; 2 ] ]));
  ignore
    (handle_ok srv "load P2" (load_req "P2" [ "b"; "c" ] [ [ 2; 7 ]; [ 9; 9 ] ]));

  let triangle = "E(x,y), E(y,z), E(z,x)" in
  let path = "P1(a,b), P2(b,c)" in

  (* 1. the planner picks a WCOJ engine for the triangle... *)
  let r1 = handle_ok srv "triangle" (query_req triangle) in
  let wcoj = engine_of_response r1 in
  if wcoj <> "leapfrog" && wcoj <> "generic_join" then
    Alcotest.failf "triangle should run on a WCOJ engine, got %s" wcoj;
  check Alcotest.bool "first run is uncached" false (cached_of_response r1);
  (* K5 has 5*4*3 ordered triangles *)
  check Alcotest.int "triangle count" 60 (int_of (field "count" r1));

  (* ...and Yannakakis for the acyclic query *)
  let r2 = handle_ok srv "path" (query_req path) in
  check Alcotest.string "acyclic engine" "yannakakis" (engine_of_response r2);
  check Alcotest.int "path count" 2 (int_of (field "count" r2));

  (* 2. the second identical query is answered from the result cache *)
  let r3 = handle_ok srv "triangle again" (query_req triangle) in
  check Alcotest.bool "second run cached" true (cached_of_response r3);
  check Alcotest.string "cached rows identical"
    (Json.to_string (field "rows" r1))
    (Json.to_string (field "rows" r3));
  (match
     Metrics.find_counter (Server.metrics srv) "serve.cache.result.hits"
   with
  | Some n when n >= 1 -> ()
  | other ->
      Alcotest.failf "expected result-cache hits >= 1, got %s"
        (match other with None -> "none" | Some n -> string_of_int n));

  (* 3. a deadline-bounded hard query reports a structured timeout with
        partial counters *)
  let hard =
    Protocol.Query
      {
        text = triangle ^ ", E(x,w), E(w,y)";
        opts = { Protocol.default_opts with max_ticks = Some 2 };
      }
  in
  let r4 = handle hard in
  check Alcotest.string "timeout status" "timeout" (status r4);
  check Alcotest.string "timeout reason" "ticks"
    (match field "reason" r4 with Json.String s -> s | _ -> "?");
  check Alcotest.int "ticks consumed" 2 (int_of (field "ticks" r4));
  (match field "partial" r4 with
  | Json.Obj fields ->
      if fields = [] then Alcotest.fail "partial counters empty"
  | _ -> Alcotest.fail "partial is not an object");
  (match Metrics.find_counter (Server.metrics srv) "serve.timeouts" with
  | Some 1 -> ()
  | _ -> Alcotest.fail "serve.timeouts not incremented");

  (* 4. a write to P2 is IVM-maintained into the cached path answer -
        still served as cached, with the updated (recompute-identical)
        rows - while the triangle's cache entry (over E only) is
        untouched *)
  ignore
    (handle_ok srv "insert"
       (Protocol.Insert { name = "P2"; tuples = [ [ 2; 8 ] ] }));
  let r5 = handle_ok srv "path after insert" (query_req path) in
  check Alcotest.bool "post-mutation run maintained in cache" true
    (cached_of_response r5);
  check Alcotest.int "post-mutation count" 4 (int_of (field "count" r5));
  (match
     Metrics.find_counter (Server.metrics srv) "serve.ivm.maintained"
   with
  | Some n when n >= 1 -> ()
  | other ->
      Alcotest.failf "expected serve.ivm.maintained >= 1, got %s"
        (match other with None -> "none" | Some n -> string_of_int n));
  let r6 = handle_ok srv "triangle after insert" (query_req triangle) in
  check Alcotest.bool "triangle entry untouched by P2 write" true
    (cached_of_response r6);
  check Alcotest.string "triangle rows unchanged"
    (Json.to_string (field "rows" r1))
    (Json.to_string (field "rows" r6));

  (* 5. drop, then querying the dropped relation is an error *)
  ignore (handle_ok srv "drop" (Protocol.Drop { name = "P1" }));
  let r7 = handle (query_req path) in
  check Alcotest.string "query after drop fails" "error" (status r7)

(* --- the pipe front end: windows, shedding, in-order replies --- *)

let test_serve_pipe_session () =
  let lines =
    [
      {|{"op":"load","name":"R","attrs":["a","b"],"tuples":[[1,2],[2,3]]}|};
      {|{"op":"query","q":"R(a,b)"}|};
      {|{"op":"query","q":"R(a,b)"}|};
      "this is not json";
      {|{"op":"shutdown"}|};
    ]
  in
  let srv = Server.create () in
  let replies = Client.run_script_lines srv lines in
  check Alcotest.int "one reply per line" (List.length lines)
    (List.length replies);
  check Alcotest.bool "shutdown reached" true (Server.shutdown_requested srv);
  let statuses =
    List.map (fun line -> status (Json.parse line)) replies
  in
  check
    Alcotest.(list string)
    "statuses in order"
    [ "ok"; "ok"; "ok"; "error"; "ok" ]
    statuses;
  (* both queries were in one window: the duplicate collapses onto one
     execution and reports as cached *)
  let q1 = Json.parse (List.nth replies 1)
  and q2 = Json.parse (List.nth replies 2) in
  check Alcotest.bool "first uncached" false (cached_of_response q1);
  check Alcotest.bool "duplicate collapsed to cached" true
    (cached_of_response q2);
  check Alcotest.string "identical rows"
    (Json.to_string (field "rows" q1))
    (Json.to_string (field "rows" q2))

(* --- protocol v1: version stamping, hello, unknown-field tolerance --- *)

let k5_edges =
  List.concat_map
    (fun x ->
      List.filter_map (fun y -> if x = y then None else Some [ x; y ])
        [ 0; 1; 2; 3; 4 ])
    [ 0; 1; 2; 3; 4 ]

let test_protocol_versioning () =
  let srv = Server.create () in
  ignore (handle_ok srv "load" (load_req "R" [ "a"; "b" ] [ [ 1; 2 ] ]));
  (* every response - success, error, hello, stats, ping - carries "v":1 *)
  List.iter
    (fun (ctxt, req) ->
      let reply = Server.handle srv req in
      match field "v" reply with
      | Json.Int 1 -> ()
      | other ->
          Alcotest.failf "%s: bad protocol version %s" ctxt
            (Json.to_string other))
    [
      ("query", query_req "R(a,b)");
      ("error", query_req "NoSuch(a)");
      ("hello", Protocol.Hello);
      ("stats", Protocol.Stats);
      ("ping", Protocol.Ping);
    ];
  (* requests may pin "v":1 or "v":2; beyond max_version is a decode
     error *)
  (match Protocol.request_of_string {|{"op":"ping","v":1}|} with
  | Ok Protocol.Ping -> ()
  | Ok _ | Error _ -> Alcotest.fail "a v:1 request should decode");
  (match Protocol.request_of_string {|{"op":"ping","v":2}|} with
  | Ok Protocol.Ping -> ()
  | Ok _ | Error _ -> Alcotest.fail "a v:2 request should decode");
  (match Protocol.request_of_string {|{"op":"ping","v":3}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a v:3 request should be rejected");
  (* a server without worker support rejects v2 requests with a
     structured error, not a parse failure *)
  let reply = Json.parse (Server.handle_line srv {|{"op":"ping","v":2}|}) in
  check Alcotest.string "v2 on a v1 server rejected" "error" (status reply);
  (match field "code" reply with
  | Json.String "unsupported_version" -> ()
  | other ->
      Alcotest.failf "expected code unsupported_version, got %s"
        (Json.to_string other));
  check Alcotest.int "advertised maximum" 1 (int_of (field "max_version" reply));
  check
    Alcotest.(option int)
    "rejection counted" (Some 1)
    (Metrics.find_counter (Server.metrics srv) "serve.protocol.rejected_version");
  (* the v2 ops themselves need "v":2 even at the decode layer *)
  (match Protocol.request_of_string {|{"op":"sync","version":1,"shards":2}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a v2-only op without v:2 should be rejected");
  (* a v2-enabled worker accepts the same line a plain server rejects *)
  let wrk = Worker.create () in
  let reply = Json.parse (Server.handle_line wrk {|{"op":"ping","v":2}|}) in
  expect_ok "v2 ping on a worker" reply

(* A worker's subquery slice: a full cover (every shard owned, lead)
   answers like the oracle; an owned index outside [0, shards) - from a
   buggy coordinator - draws a structured error counted in
   serve.errors instead of silently dropping that shard's rows. *)
let test_subquery_owned_validation () =
  let wrk = Worker.create () in
  let rng = Prng.create 77 in
  let edges = List.init 50 (fun _ -> [ Prng.int rng 10; Prng.int rng 10 ]) in
  ignore (handle_ok wrk "load E" (load_req "E" [ "u"; "v" ] edges));
  let text = "E(x,y), E(y,z), E(z,x)" in
  let subquery owned =
    Json.parse
      (Server.handle_line wrk
         (Printf.sprintf
            {|{"v":2,"op":"subquery","q":%s,"engine":"generic_join","shards":3,"owned":[%s],"lead":true}|}
            (Json.to_string (Json.String text))
            owned))
  in
  let whole = subquery "0,1,2" in
  expect_ok "full cover" whole;
  let q = Q.parse text in
  let db = Catalog.database (Server.catalog wrk) in
  check
    Alcotest.(list (array int))
    "full cover rows equal the oracle's"
    (canonical_rows q (Lb_relalg.Generic_join.answer db q))
    (rows_of_response whole);
  let errors () =
    Option.value ~default:0
      (Metrics.find_counter (Server.metrics wrk) "serve.errors")
  in
  List.iteri
    (fun i owned ->
      let reply = subquery owned in
      check Alcotest.string ("owned [" ^ owned ^ "] rejected") "error"
        (status reply);
      check Alcotest.int ("owned [" ^ owned ^ "] counted") (i + 1) (errors ()))
    [ "3"; "-1"; "0,1,2,3" ]

let test_hello_capabilities () =
  let config = { Server.default_config with shards = 4 } in
  let srv = Server.create ~config () in
  let reply = handle_ok srv "hello" Protocol.Hello in
  let caps = field "capabilities" reply in
  check Alcotest.int "shards advertised" 4 (int_of (field "shards" caps));
  (match field "batch" caps with
  | Json.Bool true -> ()
  | _ -> Alcotest.fail "batch capability missing");
  (match field "compile" caps with
  | Json.Bool true -> ()
  | _ -> Alcotest.fail "compile capability missing");
  (match field "ivm" caps with
  | Json.Bool true -> ()
  | _ -> Alcotest.fail "ivm capability missing");
  (match field "durable" caps with
  | Json.Bool false -> ()
  | _ -> Alcotest.fail "durable capability should be false without data-dir");
  match field "engines" caps with
  | Json.List engines ->
      let names =
        List.map (function Json.String s -> s | _ -> "?") engines
      in
      List.iter
        (fun e ->
          if not (List.mem (Planner.engine_name e) names) then
            Alcotest.failf "engine %s not advertised" (Planner.engine_name e))
        Planner.all_engines
  | _ -> Alcotest.fail "engines is not a list"

let test_unknown_field_tolerance () =
  (* the extended decoder reports the names it skipped *)
  (match
     Protocol.request_of_string_ext
       {|{"op":"query","q":"R(a,b)","shiny":true,"future":[1]}|}
   with
  | Ok (Protocol.Query _, ignored, _) ->
      check
        Alcotest.(list string)
        "ignored names" [ "future"; "shiny" ]
        (List.sort compare ignored)
  | Ok _ -> Alcotest.fail "decoded to the wrong request"
  | Error msg -> Alcotest.fail msg);
  (* the server answers anyway and counts the tolerated fields *)
  let srv = Server.create () in
  ignore (handle_ok srv "load" (load_req "R" [ "a"; "b" ] [ [ 1; 2 ] ]));
  let reply =
    Json.parse
      (Server.handle_line srv {|{"op":"query","q":"R(a,b)","x_future":0}|})
  in
  expect_ok "unknown field still answered" reply;
  check
    Alcotest.(option int)
    "tolerance counted" (Some 1)
    (Metrics.find_counter (Server.metrics srv) "serve.protocol.ignored_fields")

(* Fuzz: splicing a junk field into any well-formed request must not
   change what it decodes to, and the junk is reported by name. *)
let test_unknown_field_fuzz () =
  for seed = 1 to 300 do
    let rng = Prng.create (13 * seed) in
    let req = random_request rng in
    let line = Protocol.request_to_string req in
    let spliced =
      Printf.sprintf {|{"zz_fuzz":%d,%s|} seed
        (String.sub line 1 (String.length line - 1))
    in
    match Protocol.request_of_string_ext spliced with
    | Error msg -> Alcotest.failf "seed %d: %s (%s)" seed msg spliced
    | Ok (req', ignored, _) ->
        if req' <> req then
          Alcotest.failf "seed %d: junk field changed the decode (%s)" seed
            spliced;
        check
          Alcotest.(list string)
          (Printf.sprintf "seed %d: junk reported" seed)
          [ "zz_fuzz" ] ignored
  done

(* --- batch scheduling: shared executions, isolated deadlines --- *)

let triangle_text = "E(x,y), E(y,z), E(z,x)"

let test_batch_shares_trie_build () =
  let srv = Server.create () in
  ignore (handle_ok srv "load E" (load_req "E" [ "u"; "v" ] k5_edges));
  let req = query_req ~engine:Planner.Generic_join triangle_text in
  let replies = Server.submit_window srv (List.init 8 (fun _ -> req)) in
  check Alcotest.int "8 replies" 8 (List.length replies);
  let rows0 = ref "" in
  List.iteri
    (fun i reply ->
      expect_ok (Printf.sprintf "reply %d" i) reply;
      check Alcotest.int (Printf.sprintf "count %d" i) 60
        (int_of (field "count" reply));
      let rows = Json.to_string (field "rows" reply) in
      if i = 0 then rows0 := rows
      else check Alcotest.string (Printf.sprintf "rows %d identical" i) !rows0
          rows)
    replies;
  let counter name = Metrics.find_counter (Server.metrics srv) name in
  (match counter "generic_join.trie_builds" with
  | Some n when n <= 2 -> ()
  | other ->
      Alcotest.failf "batch of 8 identical queries built %s tries, want <= 2"
        (match other with None -> "no" | Some n -> string_of_int n));
  check Alcotest.(option int) "one execution group" (Some 1)
    (counter "serve.batch.groups");
  check Alcotest.(option int) "seven members shared it" (Some 7)
    (counter "serve.batch.shared")

let test_batch_timeout_isolation () =
  (* one member of the window carries a tiny tick budget and times out;
     the budgeted request never joins a batch group, so the other
     members of the window still get full answers *)
  let load_line =
    Protocol.request_to_string
      (Protocol.Load { name = "E"; attrs = [ "u"; "v" ]; tuples = k5_edges })
  in
  let hard =
    Printf.sprintf {|{"op":"query","q":"%s, E(x,w), E(w,y)","max_ticks":2}|}
      triangle_text
  in
  let plain = Printf.sprintf {|{"op":"query","q":"%s"}|} triangle_text in
  let lines = [ load_line; hard; plain; plain; {|{"op":"shutdown"}|} ] in
  let srv = Server.create () in
  let replies = List.map Json.parse (Client.run_script_lines srv lines) in
  check
    Alcotest.(list string)
    "statuses in order"
    [ "ok"; "timeout"; "ok"; "ok"; "ok" ]
    (List.map status replies);
  let q1 = List.nth replies 2 and q2 = List.nth replies 3 in
  check Alcotest.int "full answer beside the timeout" 60
    (int_of (field "count" q1));
  check Alcotest.string "collapsed members agree"
    (Json.to_string (field "rows" q1))
    (Json.to_string (field "rows" q2));
  (* the two plain queries formed one group; the budgeted one ran alone *)
  match Metrics.find_counter (Server.metrics srv) "serve.batch.shared" with
  | Some n when n >= 1 -> ()
  | _ -> Alcotest.fail "plain duplicates did not share an execution"

(* --- sharded storage mode: same answers, same work counters --- *)

let test_sharded_server_bit_identical () =
  let rng = Prng.create 2024 in
  let edges = List.init 60 (fun _ -> [ Prng.int rng 12; Prng.int rng 12 ]) in
  List.iter
    (fun (engine, work_counter) ->
      let plain = Server.create () in
      let sharded =
        Server.create ~config:{ Server.default_config with shards = 3 } ()
      in
      List.iter
        (fun srv ->
          ignore (handle_ok srv "load E" (load_req "E" [ "u"; "v" ] edges)))
        [ plain; sharded ];
      let r0 = handle_ok plain "unsharded" (query_req ~engine triangle_text) in
      let r1 = handle_ok sharded "sharded" (query_req ~engine triangle_text) in
      let ctxt = Planner.engine_name engine in
      check Alcotest.string (ctxt ^ ": identical rows")
        (Json.to_string (field "rows" r0))
        (Json.to_string (field "rows" r1));
      check Alcotest.int (ctxt ^ ": identical count")
        (int_of (field "count" r0))
        (int_of (field "count" r1));
      check
        Alcotest.(option int)
        (ctxt ^ ": " ^ work_counter ^ " bit-identical")
        (Metrics.find_counter (Server.metrics plain) work_counter)
        (Metrics.find_counter (Server.metrics sharded) work_counter);
      match
        Metrics.find_counter (Server.metrics sharded) "serve.shard.views"
      with
      | Some n when n >= 1 -> ()
      | _ -> Alcotest.fail (ctxt ^ ": sharded server built no shard view"))
    [
      (Planner.Generic_join, "generic_join.intersections");
      (Planner.Leapfrog, "leapfrog.seeks");
    ]

(* A reply without its wall-clock field, for byte comparison. *)
let without_elapsed = function
  | Json.Obj fields ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> k <> "elapsed_ms") fields))
  | j -> Json.to_string j

(* The sharded driver splits the current catalog snapshot per query, so
   writes need no shard maintenance: over a seeded stream of loads,
   inserts and deletes, a shards = 3 server answers every query - fresh
   (sharded, with its engine counters in the reply) and IVM-maintained
   - byte-identically to a shards = 1 server after every write, and
   the lifetime engine counters agree. *)
let test_sharded_write_stream () =
  let rng = Prng.create 2026 in
  let rows n = List.init n (fun _ -> [ Prng.int rng 10; Prng.int rng 10 ]) in
  let plain = Server.create () in
  let sharded =
    Server.create ~config:{ Server.default_config with shards = 3 } ()
  in
  let both req = (Server.handle plain req, Server.handle sharded req) in
  let same ctxt (r0, r1) =
    expect_ok ctxt r0;
    check Alcotest.string ctxt (without_elapsed r0) (without_elapsed r1)
  in
  same "load E" (both (load_req "E" [ "u"; "v" ] (rows 40)));
  same "load F" (both (load_req "F" [ "u"; "v" ] (rows 40)));
  let engine_counters srv =
    List.filter
      (fun (k, _) ->
        String.starts_with ~prefix:"generic_join." k
        || String.starts_with ~prefix:"leapfrog." k)
      (Metrics.counters (Server.metrics srv))
  in
  for step = 1 to 24 do
    let name = if Prng.bool rng then "E" else "F" in
    let req =
      match Prng.int rng 5 with
      | 0 -> load_req name [ "u"; "v" ] (rows (20 + Prng.int rng 20))
      | 1 | 2 -> Protocol.Insert { name; tuples = rows (1 + Prng.int rng 6) }
      | _ -> Protocol.Delete { name; tuples = rows (1 + Prng.int rng 6) }
    in
    let ctxt = Printf.sprintf "step %d" step in
    same (ctxt ^ ": write") (both req);
    List.iter
      (fun (engine, text) ->
        same
          (Printf.sprintf "%s: %s %s" ctxt (Planner.engine_name engine) text)
          (both (query_req ~engine text)))
      [
        (Planner.Generic_join, "E(x,y), E(y,z), F(z,x)");
        (Planner.Leapfrog, "E(x,y), F(y,z), E(z,x)");
        (* fresh text every step: never cached, so it runs sharded *)
        ( Planner.Generic_join,
          Printf.sprintf "E(a%d,b), F(b,c), E(c,d), F(d,a%d)" step step );
      ];
    check
      Alcotest.(list (pair string int))
      (ctxt ^ ": lifetime engine counters")
      (engine_counters plain) (engine_counters sharded)
  done;
  match
    Metrics.find_counter (Server.metrics sharded) "serve.shard.views"
  with
  | Some n when n >= 24 -> ()
  | _ -> Alcotest.fail "fresh queries did not run sharded"

(* A query that does not bind - an unknown relation, or an atom whose
   arity differs from its relation's - answers the same error at shards
   1 and 3, and a coordinator never sees it. *)
let test_sharded_unbound_query () =
  let edges = [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 1 ] ] in
  let plain = Server.create () in
  let sharded =
    Server.create ~config:{ Server.default_config with shards = 3 } ()
  in
  Server.set_dispatcher sharded
    {
      Server.dispatch_query =
        (fun ~text ~engine:_ -> Alcotest.failf "dispatched %S" text);
      notify_mutation = (fun ~version:_ _ -> ());
    };
  List.iter
    (fun srv -> ignore (handle_ok srv "load E" (load_req "E" [ "u"; "v" ] edges)))
    [ plain; sharded ];
  List.iter
    (fun text ->
      List.iter
        (fun engine ->
          let req = query_req ?engine text in
          let r0 = Server.handle plain req and r1 = Server.handle sharded req in
          check Alcotest.string (text ^ ": an error") "error" (status r0);
          check Alcotest.string (text ^ ": same reply at shards 1 and 3")
            (without_elapsed r0) (without_elapsed r1))
        [ None; Some Planner.Generic_join; Some Planner.Leapfrog ])
    [
      "E(x,y), E(y,z), Nope(z,x)";
      "E(x,y), E(y,z), E(z,x,w)";
      "Nope(x,y), E(y,z), E(z,x,w)";
    ];
  check
    Alcotest.(option int)
    "no scatter" None
    (Metrics.find_counter (Server.metrics sharded) "serve.dist.scatters")

(* --- distributed fallback: transport failures only, counted by cause --- *)

(* A scatter whose dispatcher fails in transport falls back to local
   execution - the reply equals the sequential oracle's by value and
   the per-cause counter records it - while any other exception from
   the dispatcher is a bug and escapes the server. *)
let test_dist_fallback_by_cause () =
  let rng = Prng.create 2025 in
  let edges = List.init 60 (fun _ -> [ Prng.int rng 12; Prng.int rng 12 ]) in
  let req = query_req ~engine:Planner.Generic_join triangle_text in
  let server_failing_with exn =
    let srv =
      Server.create ~config:{ Server.default_config with shards = 2 } ()
    in
    Server.set_dispatcher srv
      {
        Server.dispatch_query = (fun ~text:_ ~engine:_ -> raise exn);
        notify_mutation = (fun ~version:_ _ -> ());
      };
    ignore (handle_ok srv "load E" (load_req "E" [ "u"; "v" ] edges));
    srv
  in
  let srv =
    server_failing_with (Unix.Unix_error (Unix.ECONNREFUSED, "connect", ""))
  in
  let reply = handle_ok srv "transport failure" req in
  let q = Q.parse triangle_text in
  let oracle =
    Lb_relalg.Generic_join.answer (Catalog.database (Server.catalog srv)) q
  in
  check
    Alcotest.(list (array int))
    "fallback rows equal the sequential oracle's" (canonical_rows q oracle)
    (rows_of_response reply);
  let counter name = Metrics.find_counter (Server.metrics srv) name in
  check Alcotest.(option int) "counted under its cause" (Some 1)
    (counter "serve.dist.fallbacks.unix_error");
  check Alcotest.(option int) "and in the fallback total" (Some 1)
    (counter "serve.dist.fallbacks");
  let srv = server_failing_with Not_found in
  match Server.handle_line srv (Protocol.request_to_string req) with
  | (_ : string) -> Alcotest.fail "a non-transport exception was swallowed"
  | exception Not_found -> ()

(* --- the compiled plan tier through the server --- *)

(* Served WCOJ answers come from the compiled tier; they must equal the
   in-process sequential interpreted oracle on the same catalog - rows
   and the engine work counter by value.  The plan reports
   "compiled":true and accounts compilation cache traffic: one
   serve.compile.miss for the first lowering, then a serve.compile.hit
   per reuse of the cached plan - also when the answer itself comes
   from the result cache, since the plan cache is consulted first. *)
let test_compile_tier_served () =
  let rng = Prng.create 4242 in
  let edges = List.init 60 (fun _ -> [ Prng.int rng 12; Prng.int rng 12 ]) in
  let q = Q.parse triangle_text in
  List.iter
    (fun (engine, work_counter) ->
      let compiled = Server.create () in
      ignore (handle_ok compiled "load E" (load_req "E" [ "u"; "v" ] edges));
      let r0 = handle_ok compiled "compiled" (query_req ~engine triangle_text) in
      let ctxt = Planner.engine_name engine in
      (match field "compiled" (field "plan" r0) with
      | Json.Bool true -> ()
      | _ -> Alcotest.fail (ctxt ^ ": plan not marked compiled"));
      let sink = Metrics.create () in
      let oracle =
        let db = Catalog.database (Server.catalog compiled) in
        let ctx = Lb_util.Exec.make ~metrics:sink () in
        match engine with
        | Planner.Leapfrog -> Lb_relalg.Leapfrog.answer ~ctx db q
        | _ -> Lb_relalg.Generic_join.answer ~ctx db q
      in
      check
        Alcotest.(list (array int))
        (ctxt ^ ": rows equal the sequential oracle's")
        (canonical_rows q oracle) (rows_of_response r0);
      check
        Alcotest.(option int)
        (ctxt ^ ": " ^ work_counter ^ " equals the oracle's")
        (Metrics.find_counter sink work_counter)
        (Metrics.find_counter (Server.metrics compiled) work_counter);
      let counter name = Metrics.find_counter (Server.metrics compiled) name in
      check
        Alcotest.(option int)
        (ctxt ^ ": one compilation miss")
        (Some 1) (counter "serve.compile.misses");
      check Alcotest.(option int) (ctxt ^ ": no hits yet") None
        (counter "serve.compile.hits");
      ignore
        (handle_ok compiled "repeated" (query_req ~engine triangle_text));
      check
        Alcotest.(option int)
        (ctxt ^ ": repeat reuses the compiled plan")
        (Some 1) (counter "serve.compile.hits");
      check
        Alcotest.(option int)
        (ctxt ^ ": no second lowering")
        (Some 1) (counter "serve.compile.misses"))
    [
      (Planner.Generic_join, "generic_join.intersections");
      (Planner.Leapfrog, "leapfrog.seeks");
    ]

(* --- count_only / limit shaping --- *)

let test_response_shaping () =
  let srv = Server.create () in
  ignore
    (handle_ok srv "load"
       (load_req "R" [ "a"; "b" ] [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]));
  let r =
    Server.handle srv
      (Protocol.Query
         {
           text = "R(a,b)";
           opts = { Protocol.default_opts with count_only = true };
         })
  in
  expect_ok "count_only" r;
  check Alcotest.int "count" 3 (int_of (field "count" r));
  check Alcotest.bool "no rows field" true (Json.member "rows" r = None);
  let r =
    Server.handle srv
      (Protocol.Query
         { text = "R(a,b)"; opts = { Protocol.default_opts with limit = Some 2 } })
  in
  expect_ok "limited" r;
  check Alcotest.int "count unaffected by limit" 3 (int_of (field "count" r));
  check Alcotest.int "rows limited" 2 (List.length (rows_of_response r));
  check Alcotest.bool "marked truncated" true
    (match field "truncated" r with Json.Bool b -> b | _ -> false)


(* --- plan retirement by relation --- *)

(* A write retires exactly the cached plans whose query reads the
   written relation: the plan over {A,B} is re-planned after a write to
   B, the plan over {C} is still a hit. *)
let test_plan_retired_by_relation () =
  let srv = Server.create () in
  List.iter
    (fun name ->
      ignore
        (handle_ok srv ("load " ^ name)
           (load_req name [ "u"; "v" ] [ [ 1; 2 ]; [ 2; 3 ] ])))
    [ "A"; "B"; "C" ];
  let ab = "A(x,y), B(y,z)" and c = "C(x,y)" in
  ignore (handle_ok srv "plan A,B" (query_req ab));
  ignore (handle_ok srv "plan C" (query_req c));
  let counter name =
    Option.value ~default:0 (Metrics.find_counter (Server.metrics srv) name)
  in
  let retired0 = counter "serve.ivm.plan_invalidations" in
  ignore
    (handle_ok srv "insert B"
       (Protocol.Insert { name = "B"; tuples = [ [ 3; 4 ] ] }));
  check Alcotest.int "one plan retired" (retired0 + 1)
    (counter "serve.ivm.plan_invalidations");
  let hits0 = counter "serve.cache.plan.hits"
  and misses0 = counter "serve.cache.plan.misses" in
  ignore (handle_ok srv "query C" (query_req c));
  check Alcotest.int "plan over {C} survives" (hits0 + 1)
    (counter "serve.cache.plan.hits");
  ignore (handle_ok srv "query A,B" (query_req ab));
  check Alcotest.int "plan over {A,B} is planned again" (misses0 + 1)
    (counter "serve.cache.plan.misses")

(* --- the decomposition route's evidence race --- *)

let five_cycle_text = "R(a,b), S(b,c), T(c,d), U(d,e), V(e,a)"

let pendant_text = "R(a,b), S(b,c), T(a,c), U(c,d)"

(* Room for every row of the worst-case answers, so replies compare
   in full. *)
let race_config = { Server.default_config with max_rows = 1_000_000 }

let counters_of json =
  match field "counters" json with
  | Json.Obj fields -> List.map (fun (k, v) -> (k, int_of v)) fields
  | _ -> Alcotest.fail "counters is not an object"

let race_verdict ctxt json =
  let cs = counters_of json in
  match
    (List.assoc_opt "decomposed.race.flat" cs,
     List.assoc_opt "decomposed.race.bags" cs)
  with
  | Some 1, None -> "flat"
  | None, Some 1 -> "bags"
  | _ ->
      Alcotest.failf "%s: no single race verdict in %s" ctxt
        (Json.to_string json)

(* Random binary relations for every atom of [q]. *)
let random_edges_db rng (q : Q.t) ~verts ~edges =
  Db.of_list
    (List.sort_uniq compare (List.map (fun (a : Q.atom) -> a.Q.rel) q)
    |> List.map (fun name ->
           ( name,
             R.make [| "x"; "y" |]
               (List.init edges (fun _ ->
                    [| Prng.int rng verts; Prng.int rng verts |])) )))

(* Serve [text] over [db] with no forced engine, check the reply by
   value against the sequential Generic Join oracle, and return it. *)
let served_race ?(config = race_config) ?(opts = Protocol.default_opts) ctxt
    db text =
  let srv = server_with_db ~config db in
  let reply = Server.handle srv (Protocol.Query { text; opts }) in
  if status reply = "ok" then begin
    let q = Q.parse text in
    check Alcotest.string (ctxt ^ ": routed decomposed") "decomposed"
      (engine_of_response reply);
    check
      Alcotest.(list (array int))
      (ctxt ^ ": rows equal the Generic Join oracle's")
      (canonical_rows q (Lb_relalg.Generic_join.answer db q))
      (rows_of_response reply)
  end;
  reply

(* B as the race computes it, over the planner's decomposition. *)
let race_budget db text =
  let q = Q.parse text in
  match (Planner.choose db q).Planner.decomposition with
  | Some td -> Lb_relalg.Decomposed_join.race_budget td db q
  | None -> Alcotest.fail "decomposed plan without a decomposition"

let worst_case text n = Lb_relalg.Agm.worst_case_database (Q.parse text) ~n

let test_race_random_flat () =
  for seed = 1 to 4 do
    let rng = Prng.create (313 * seed) in
    let db =
      random_edges_db rng (Q.parse five_cycle_text) ~verts:40 ~edges:120
    in
    let ctxt = Printf.sprintf "random 5-cycle seed %d" seed in
    let reply = served_race ctxt db five_cycle_text in
    expect_ok ctxt reply;
    check Alcotest.string (ctxt ^ ": verdict") "flat" (race_verdict ctxt reply);
    let cs = counters_of reply in
    check Alcotest.(option int) (ctxt ^ ": budget counter")
      (Some (race_budget db five_cycle_text))
      (List.assoc_opt "decomposed.race.budget" cs);
    check Alcotest.(option int) (ctxt ^ ": no bags built") None
      (List.assoc_opt "decomposed_join.bags" cs);
    check Alcotest.bool (ctxt ^ ": flat leapfrog counters") true
      (List.mem_assoc "leapfrog.seeks" cs)
  done

let test_race_worst_case_bags () =
  List.iter
    (fun (text, n, bags) ->
      let ctxt = Printf.sprintf "worst case %s n=%d" text n in
      let reply = served_race ctxt (worst_case text n) text in
      expect_ok ctxt reply;
      check Alcotest.string (ctxt ^ ": verdict") "bags"
        (race_verdict ctxt reply);
      check Alcotest.(option int) (ctxt ^ ": bags built") (Some bags)
        (List.assoc_opt "decomposed_join.bags" (counters_of reply)))
    [ (five_cycle_text, 64, 5); (pendant_text, 64, 4) ]

(* A request's own tick limit below B ends the race in a timeout - it
   is not mistaken for the race's budget running out. *)
let test_race_request_limit_times_out () =
  let db = worst_case five_cycle_text 64 in
  let b = race_budget db five_cycle_text in
  let opts = { Protocol.default_opts with max_ticks = Some (b - 1) } in
  let reply = served_race ~opts "request limit" db five_cycle_text in
  check Alcotest.string "timeout status" "timeout" (status reply);
  check Alcotest.int "ticks are the request's" (b - 1)
    (int_of (field "ticks" reply));
  match field "partial" reply with
  | Json.Obj fields ->
      check Alcotest.(option int) "partial counters carry B" (Some b)
        (Option.map int_of (List.assoc_opt "decomposed.race.budget" fields));
      check Alcotest.bool "no fallback to bags" false
        (List.mem_assoc "decomposed.race.bags" fields)
  | _ -> Alcotest.fail "partial is not an object"

let test_race_forced_builds_bags () =
  let rng = Prng.create 17 in
  let db = random_edges_db rng (Q.parse five_cycle_text) ~verts:40 ~edges:120 in
  let srv = server_with_db ~config:race_config db in
  let reply =
    handle_ok srv "forced"
      (query_req ~engine:Planner.Decomposed five_cycle_text)
  in
  let q = Q.parse five_cycle_text in
  check
    Alcotest.(list (array int))
    "forced rows equal the oracle's"
    (canonical_rows q (Lb_relalg.Generic_join.answer db q))
    (rows_of_response reply);
  let cs = counters_of reply in
  check Alcotest.(option int) "forced plan builds every bag" (Some 5)
    (List.assoc_opt "decomposed_join.bags" cs);
  check Alcotest.bool "and runs no race" false
    (List.mem_assoc "decomposed.race.budget" cs)

(* The verdict and every counter are independent of the pool. *)
let test_race_pool_independent () =
  Lb_util.Pool.with_pool 2 (fun pool ->
      let pooled = { race_config with Server.pool = Some pool } in
      let rng = Prng.create 29 in
      List.iter
        (fun (ctxt, db, text) ->
          let seq = served_race (ctxt ^ " sequential") db text in
          let par = served_race ~config:pooled (ctxt ^ " pooled") db text in
          check Alcotest.string (ctxt ^ ": same verdict")
            (race_verdict ctxt seq) (race_verdict ctxt par);
          check Alcotest.string (ctxt ^ ": same counters")
            (Json.to_string (field "counters" seq))
            (Json.to_string (field "counters" par)))
        [
          ( "random 5-cycle",
            random_edges_db rng (Q.parse five_cycle_text) ~verts:40 ~edges:120,
            five_cycle_text );
          ( "worst-case 5-cycle",
            worst_case five_cycle_text 64,
            five_cycle_text );
          ("worst-case pendant", worst_case pendant_text 64, pendant_text);
        ])

let suite =
  [
    Alcotest.test_case "planner differential vs hash-join oracle" `Quick
      test_planner_differential;
    Alcotest.test_case "protocol round-trip fuzz" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "json canonical printing" `Quick test_json_canonical;
    Alcotest.test_case "bounded-queue overload rejection" `Quick
      test_overload_rejection;
    Alcotest.test_case "scripted session (plans, cache, timeout, \
                        invalidation)" `Quick test_scripted_session;
    Alcotest.test_case "serve_pipe window semantics" `Quick
      test_serve_pipe_session;
    Alcotest.test_case "count_only and limit shaping" `Quick
      test_response_shaping;
    Alcotest.test_case "subquery rejects owned shards out of range" `Quick
      test_subquery_owned_validation;
    Alcotest.test_case "protocol v1 version stamping" `Quick
      test_protocol_versioning;
    Alcotest.test_case "hello capability discovery" `Quick
      test_hello_capabilities;
    Alcotest.test_case "unknown request fields tolerated" `Quick
      test_unknown_field_tolerance;
    Alcotest.test_case "unknown-field splice fuzz" `Quick
      test_unknown_field_fuzz;
    Alcotest.test_case "batch of identical plans shares one trie build"
      `Quick test_batch_shares_trie_build;
    Alcotest.test_case "a timeout inside a batch is isolated" `Quick
      test_batch_timeout_isolation;
    Alcotest.test_case "sharded server answers bit-identical" `Quick
      test_sharded_server_bit_identical;
    Alcotest.test_case "sharded server = unsharded over a write stream"
      `Quick test_sharded_write_stream;
    Alcotest.test_case "unbound query: same error, never scattered" `Quick
      test_sharded_unbound_query;
    Alcotest.test_case "compiled tier served bit-identical, plans cached"
      `Quick test_compile_tier_served;
    Alcotest.test_case "dist fallback only on transport failures" `Quick
      test_dist_fallback_by_cause;
    Alcotest.test_case "a write retires plans by relation" `Quick
      test_plan_retired_by_relation;
    Alcotest.test_case "race: random 5-cycle answers flat" `Quick
      test_race_random_flat;
    Alcotest.test_case "race: worst-case data falls back to bags" `Quick
      test_race_worst_case_bags;
    Alcotest.test_case "race: a request limit below B times out" `Quick
      test_race_request_limit_times_out;
    Alcotest.test_case "race: forced decomposed still builds bags" `Quick
      test_race_forced_builds_bags;
    Alcotest.test_case "race: pooled verdict and counters = sequential"
      `Quick test_race_pool_independent;
  ]
