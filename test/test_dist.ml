(* Distributed serve: coordinator + forked worker processes.

   - Differential: for K in {1,2,3} shards over 2 workers, every query
     reply (rows, counts, counters) must be byte-identical to a
     single-process `--shards K` server fed the same seeded catalog
     and write stream - including under per-request budgets, which are
     never distributed.
   - Fault injection: SIGKILL one worker mid-window; replies must come
     back "degraded" with the complete (still identical) answer, and a
     restarted worker on the same port must rejoin (reseed) and serve
     again.
   - Malformed slice: a worker whose subquery rows repeat a row is a
     dispatch error; the server answers locally, identically, and
     counts the fallback.
   - Cross-version splice fuzz: v2-only fields in v1 requests are
     ignored-with-counter; v1 requests stamped "v":2 against a plain
     server draw the structured reject. *)

module Json = Lb_service.Json
module Protocol = Lb_service.Protocol
module Server = Lb_service.Server
module Client = Lb_service.Client
module Worker = Lb_service.Worker
module Coordinator = Lb_service.Coordinator
module Prng = Lb_util.Prng

let check = Alcotest.check

let field name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name (Json.to_string json)

let status json =
  match field "status" json with
  | Json.String s -> s
  | _ -> Alcotest.fail "non-string status"

(* --- forked worker processes --- *)

(* Ports unique per test process and per slot; the suite runs tests
   sequentially, so consecutive tests reuse them only after the
   previous worker died. *)
let port_of slot = 7400 + (Unix.getpid () mod 997) + (slot * 13)

let spawn_worker ?(serve = fun port -> Worker.run ~port ()) port =
  match Unix.fork () with
  | 0 ->
      (* Child: serve until killed.  Never return into the test
         runner. *)
      (try serve port with _ -> ());
      Unix._exit 0
  | pid ->
      (* Wait for the listener to come up. *)
      let rec poll tries =
        if tries = 0 then Alcotest.failf "worker on port %d never came up" port
        else
          match Client.connect ~timeout_ms:1000 ~port () with
          | Ok c ->
              check Alcotest.int "worker speaks v2" 2 (Client.version c);
              Client.close c
          | Error _ ->
              Unix.sleepf 0.05;
              poll (tries - 1)
      in
      poll 100;
      pid

let kill_worker pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let with_workers n f =
  let ports = List.init n port_of in
  let pids = List.map spawn_worker ports in
  Fun.protect
    ~finally:(fun () -> List.iter kill_worker pids)
    (fun () -> f ports)

(* --- the seeded session: catalog, writes, queries, budgets --- *)

let session_lines =
  let rng = Prng.create 4242 in
  let edges = List.init 80 (fun _ -> [ Prng.int rng 14; Prng.int rng 14 ]) in
  let fresh = List.init 10 (fun _ -> [ Prng.int rng 14; Prng.int rng 14 ]) in
  let tuples ts =
    Json.List (List.map (fun t -> Json.List (List.map (fun v -> Json.Int v) t)) ts)
  in
  let load name ts =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "load");
           ("name", Json.String name);
           ("attrs", Json.List [ Json.String "u"; Json.String "v" ]);
           ("tuples", tuples ts);
         ])
  in
  let tri = {|{"op":"query","q":"E(x,y), E(y,z), E(z,x)"}|} in
  [
    load "E" edges;
    tri;
    {|{"op":"query","q":"E(x,y), E(y,z)","count_only":true}|};
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "insert");
           ("name", Json.String "E");
           ("tuples", tuples fresh);
         ]);
    tri;
    {|{"op":"query","q":"E(x,y), E(y,z), E(z,x)","engine":"leapfrog"}|};
    {|{"op":"query","q":"E(x,y), E(y,z), E(z,x), E(x,w)","max_ticks":3}|};
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "delete");
           ("name", Json.String "E");
           ("tuples", tuples (List.filteri (fun i _ -> i < 5) fresh));
         ]);
    tri;
    {|{"op":"query","q":"E(x,y), E(y,z), E(z,x)","limit":7}|};
  ]

(* Strip reply fields that legitimately differ across topologies:
   wall-clock, and (for hello) nothing - we simply don't send hello
   here. *)
let scrub reply =
  match reply with
  | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> k <> "elapsed_ms") fields)
  | other -> other

let run_single ~shards lines =
  let config = { Server.default_config with shards } in
  let srv = Server.create ~config () in
  List.map Json.parse (Client.run_script_lines srv lines)

let run_distributed ~shards ~ports lines =
  let config =
    {
      Server.default_config with
      shards;
      protocol_max = Protocol.max_version;
    }
  in
  let srv = Server.create ~config () in
  let coord =
    Coordinator.attach ~timeout_ms:2000 srv ~shards
      ~workers:(List.map (fun p -> ("127.0.0.1", p)) ports)
  in
  let replies = List.map Json.parse (Client.run_script_lines srv lines) in
  Coordinator.detach coord;
  replies

let test_distributed_differential () =
  with_workers 2 (fun ports ->
      List.iter
        (fun shards ->
          let single = run_single ~shards session_lines in
          let dist = run_distributed ~shards ~ports session_lines in
          List.iteri
            (fun i (s, d) ->
              check Alcotest.string
                (Printf.sprintf "K=%d reply %d byte-identical" shards i)
                (Json.to_string (scrub s))
                (Json.to_string (scrub d)))
            (List.combine single dist))
        [ 1; 2; 3 ])

(* Fresh (uncached) query replies carry the engine counters; those
   must match too - the work accounting is part of the contract, not
   just the rows. *)
let test_distributed_counters_identical () =
  with_workers 2 (fun ports ->
      let lines =
        [
          List.hd session_lines;
          {|{"op":"query","q":"E(x,y), E(y,z), E(z,x)"}|};
          {|{"op":"query","q":"E(x,y), E(y,z), E(z,x)","engine":"leapfrog"}|};
        ]
      in
      let single = run_single ~shards:3 lines in
      let dist = run_distributed ~shards:3 ~ports lines in
      List.iteri
        (fun i (s, d) ->
          check Alcotest.string
            (Printf.sprintf "counters reply %d identical" i)
            (Json.to_string (scrub s))
            (Json.to_string (scrub d)))
        (List.combine single dist))

let test_worker_death_degrades_and_rejoins () =
  let ports = [ port_of 4; port_of 5 ] in
  let pids = List.map spawn_worker ports in
  let cleanup = ref pids in
  Fun.protect
    ~finally:(fun () -> List.iter kill_worker !cleanup)
    (fun () ->
      let shards = 3 in
      let config =
        {
          Server.default_config with
          shards;
          protocol_max = Protocol.max_version;
        }
      in
      let srv = Server.create ~config () in
      let coord =
        Coordinator.attach ~timeout_ms:1000 srv ~shards
          ~workers:(List.map (fun p -> ("127.0.0.1", p)) ports)
      in
      let load = List.hd session_lines in
      (* Three distinct queries, so none is served from the result
         cache - each phase forces a fresh scatter. *)
      let q1 = {|{"op":"query","q":"E(x,y), E(y,z), E(z,x)"}|} in
      (* ... and cyclic with a pinned WCOJ engine, so each one takes
         the sharded (hence scattered) path rather than Yannakakis. *)
      let q2 =
        {|{"op":"query","q":"E(x,y), E(y,z), E(z,w), E(w,x)","engine":"generic_join"}|}
      in
      let q3 =
        {|{"op":"query","q":"E(x,y), E(y,z), E(z,x), E(x,w)","engine":"leapfrog"}|}
      in
      let expected =
        match run_single ~shards [ load; q1; q2; q3 ] with
        | [ _; e1; e2; e3 ] -> (scrub e1, scrub e2, scrub e3)
        | _ -> Alcotest.fail "bad single-process session"
      in
      let e1, e2, e3 = expected in
      let q line = Json.parse (Server.handle_line srv line) in
      ignore (Server.handle_line srv load);
      let healthy = q q1 in
      check Alcotest.string "healthy answer" (Json.to_string e1)
        (Json.to_string (scrub healthy));
      (* Kill worker 1; its slice must be absorbed, the reply marked
         degraded but otherwise identical. *)
      (match pids with
      | [ _; p1 ] ->
          kill_worker p1;
          cleanup := [ List.hd pids ]
      | _ -> assert false);
      let degraded = q q2 in
      check Alcotest.string "degraded status" "degraded" (status degraded);
      let as_ok =
        match scrub degraded with
        | Json.Obj fields ->
            Json.Obj
              (List.map
                 (fun (k, v) ->
                   if k = "status" then (k, Json.String "ok") else (k, v))
                 fields)
        | other -> other
      in
      check Alcotest.string "degraded answer still complete"
        (Json.to_string e2) (Json.to_string as_ok);
      (match
         Lb_util.Metrics.find_counter (Server.metrics srv)
           "serve.dist.degraded"
       with
      | Some n when n >= 1 -> ()
      | _ -> Alcotest.fail "degraded scatter not counted");
      (* Restart a worker on the same port: the next scatter reconnects,
         reseeds, and the reply is clean again. *)
      let p1' = spawn_worker (List.nth ports 1) in
      cleanup := p1' :: !cleanup;
      let recovered = q q3 in
      check Alcotest.string "recovered status" "ok" (status recovered);
      check Alcotest.string "recovered answer" (Json.to_string e3)
        (Json.to_string (scrub recovered));
      Coordinator.detach coord)

(* --- cross-version splice fuzz --- *)

(* v2-only fields spliced into v1 requests must be ignored (and
   counted); v1 requests stamped v:2 must draw the structured reject
   from a plain server and succeed against a worker. *)
let test_cross_version_splice_fuzz () =
  let v1_lines =
    [
      {|{"op":"ping"}|};
      {|{"op":"query","q":"R(a,b)"}|};
      {|{"op":"stats"}|};
      {|{"op":"load","name":"R","attrs":["a"],"tuples":[[1]]}|};
    ]
  in
  let v2_fields = [ "owned"; "lead"; "rel_version"; "mutation" ] in
  let srv = Server.create () in
  ignore
    (Server.handle_line srv
       {|{"op":"load","name":"R","attrs":["a","b"],"tuples":[[1,2]]}|});
  List.iteri
    (fun i line ->
      let extra = List.nth v2_fields (i mod List.length v2_fields) in
      let spliced =
        Printf.sprintf {|{"%s":7,%s|} extra
          (String.sub line 1 (String.length line - 1))
      in
      (* decodes to the same request, junk reported *)
      (match
         ( Protocol.request_of_string line,
           Protocol.request_of_string_ext spliced )
       with
      | Ok r, Ok (r', ignored, 1) ->
          if r <> r' then
            Alcotest.failf "splice changed the decode: %s" spliced;
          check
            Alcotest.(list string)
            (Printf.sprintf "junk reported in %s" spliced)
            [ extra ] ignored
      | _ -> Alcotest.failf "splice broke the decode: %s" spliced);
      (* and the live server still answers *)
      let reply = Json.parse (Server.handle_line srv spliced) in
      if status reply = "error" then
        Alcotest.failf "server rejected spliced v1 request: %s"
          (Json.to_string reply))
    v1_lines;
  (* v1 ops stamped v:2: structured reject on a plain server... *)
  let stamped =
    {|{"op":"query","v":2,"q":"R(a,b)"}|}
  in
  let reply = Json.parse (Server.handle_line srv stamped) in
  check Alcotest.string "stamped rejected" "error" (status reply);
  (match field "code" reply with
  | Json.String "unsupported_version" -> ()
  | other -> Alcotest.failf "bad code %s" (Json.to_string other));
  (* ...and accepted by a worker *)
  let wrk = Worker.create () in
  ignore
    (Server.handle_line wrk
       {|{"op":"load","name":"R","attrs":["a","b"],"tuples":[[1,2]]}|});
  let reply = Json.parse (Server.handle_line wrk stamped) in
  if status reply <> "ok" then
    Alcotest.failf "worker rejected stamped v1 op: %s" (Json.to_string reply);
  (* v2-only ops without the stamp are decode errors even on a worker *)
  let bare = {|{"op":"sync","version":0,"shards":2}|} in
  let reply = Json.parse (Server.handle_line wrk bare) in
  check Alcotest.string "bare v2 op rejected" "error" (status reply)

(* A worker whose subquery replies repeat their first row: a row in
   two places of one slice cannot come from a shard split. *)
let serve_repeating_first_row port =
  let wrk = Worker.create () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 4;
  while true do
    let conn, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr conn
    and oc = Unix.out_channel_of_descr conn in
    (try
       while true do
         let line = input_line ic in
         let reply = Server.handle_line wrk line in
         let reply =
           match (Json.member "op" (Json.parse line), Json.parse reply) with
           | Some (Json.String "subquery"), Json.Obj fields ->
               Json.to_string
                 (Json.Obj
                    (List.map
                       (function
                         | "rows", Json.List (r :: rs) ->
                             ("rows", Json.List (r :: r :: rs))
                         | kv -> kv)
                       fields))
           | _ -> reply
         in
         output_string oc (reply ^ "\n");
         flush oc
       done
     with End_of_file | Sys_error _ -> ());
    try Unix.close conn with Unix.Unix_error _ -> ()
  done

(* A malformed slice is a dispatch error, not something to re-sort:
   the server answers locally - rows identical to a single-process
   run - and counts the fallback under its cause. *)
let test_malformed_slice_falls_back () =
  let port = port_of 6 in
  let pid = spawn_worker ~serve:serve_repeating_first_row port in
  Fun.protect
    ~finally:(fun () -> kill_worker pid)
    (fun () ->
      let shards = 2 in
      let lines = [ List.hd session_lines; List.nth session_lines 1 ] in
      let config =
        { Server.default_config with shards; protocol_max = Protocol.max_version }
      in
      let srv = Server.create ~config () in
      let coord =
        Coordinator.attach ~timeout_ms:2000 srv ~shards
          ~workers:[ ("127.0.0.1", port) ]
      in
      let dist = List.map Json.parse (Client.run_script_lines srv lines) in
      Coordinator.detach coord;
      List.iteri
        (fun i (s, d) ->
          check Alcotest.string
            (Printf.sprintf "reply %d identical" i)
            (Json.to_string (scrub s))
            (Json.to_string (scrub d)))
        (List.combine (run_single ~shards lines) dist);
      let counter name =
        Lb_util.Metrics.find_counter (Server.metrics srv) name
      in
      check Alcotest.(option int) "scattered" (Some 1)
        (counter "serve.dist.scatters");
      check Alcotest.(option int) "fell back as a dispatch error" (Some 1)
        (counter "serve.dist.fallbacks.error"))

(* In-process 2-worker smoke: the dist-smoke alias target.  Forks are
   cheap; this keeps `dune runtest` covering the wire path end to
   end. *)
let test_dist_smoke () =
  with_workers 2 (fun ports ->
      let lines = [ List.hd session_lines; List.nth session_lines 1 ] in
      let dist = run_distributed ~shards:2 ~ports lines in
      let single = run_single ~shards:2 lines in
      List.iteri
        (fun i (s, d) ->
          check Alcotest.string
            (Printf.sprintf "smoke reply %d" i)
            (Json.to_string (scrub s))
            (Json.to_string (scrub d)))
        (List.combine single dist))

let suite =
  [
    Alcotest.test_case "dist smoke (2 workers in-process)" `Quick
      test_dist_smoke;
    Alcotest.test_case "distributed ≡ single-process sharded (K=1,2,3)"
      `Quick test_distributed_differential;
    Alcotest.test_case "distributed counters byte-identical" `Quick
      test_distributed_counters_identical;
    Alcotest.test_case "worker death degrades; restart rejoins" `Quick
      test_worker_death_degrades_and_rejoins;
    Alcotest.test_case "cross-version splice fuzz" `Quick
      test_cross_version_splice_fuzz;
    Alcotest.test_case "malformed slice falls back locally" `Quick
      test_malformed_slice_falls_back;
  ]
