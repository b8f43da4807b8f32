(* E20 - served throughput of the `lbt serve` subsystem.

   A request stream against an in-process server over a random directed
   graph: a skewed mix of a cyclic triangle query (WCOJ engine), an
   acyclic path query (Yannakakis) and per-request limit variants, fed
   through the same windowed admission path the pipe/TCP front ends
   use.  Repeats hit the result cache, so the measured requests/sec
   reflects the cache as much as the engines - which is the point of a
   service.  Timings land in BENCH_serve.json as float metrics; the
   request/cache/engine counters are deterministic for a fixed seed and
   survive --counters-only.  Every reply is checked by value against
   the sequential interpreted engine (E20.values_checked). *)

module Json = Lb_service.Json
module Protocol = Lb_service.Protocol
module Server = Lb_service.Server
module Catalog = Lb_service.Catalog
module Metrics = Lb_util.Metrics
module Prng = Lb_util.Prng

let triangle = "E(x,y), E(y,z), E(z,x)"

let path = "E(x,y), E(y,z)"

let random_edges rng n =
  let m = 4 * n in
  List.init m (fun _ ->
      let u = Prng.int rng n in
      let v = Prng.int rng n in
      [| u; v |])

(* One request: 40% triangle, 40% path, 20% a limited variant (distinct
   cache keys via distinct opts share the same result entry, so limits
   still hit). *)
let random_request rng =
  let text = if Prng.bool rng then triangle else path in
  let opts =
    if Prng.bernoulli rng 0.2 then
      { Protocol.default_opts with limit = Some (1 + Prng.int rng 8) }
    else { Protocol.default_opts with count_only = true }
  in
  Protocol.Query { text; opts }

let status_of reply =
  match Json.member "status" reply with
  | Some (Json.String s) -> s
  | _ -> "?"

let int_member name reply =
  match Json.member name reply with Some (Json.Int n) -> Some n | _ -> None

let rows_member reply =
  match Json.member "rows" reply with
  | Some (Json.List rows) -> Some (List.map Json.to_string rows)
  | _ -> None

(* The sequential interpreted engine's answer, in the served canonical
   form: rows over the query's attributes, sorted, each encoded as the
   reply encodes it. *)
let oracle_rows db text =
  let q = Lb_relalg.Query.parse text in
  let rel = Lb_relalg.Generic_join.answer db q in
  Array.to_list
    (Array.map
       (fun row ->
         Json.to_string
           (Json.List (Array.to_list (Array.map (fun v -> Json.Int v) row))))
       (Lb_relalg.Relation.tuples rel))

(* A reply checked by value against the oracle: its count equals the
   oracle's, and a limited reply carries exactly the first
   min(limit, count) oracle rows. *)
let reply_matches oracle req reply =
  match req with
  | Protocol.Query { text; opts } -> (
      let want = List.assoc text oracle in
      let count = List.length want in
      int_member "count" reply = Some count
      &&
      match opts.Protocol.limit with
      | None -> true
      | Some l ->
          rows_member reply = Some (List.filteri (fun i _ -> i < l) want))
  | _ -> false

let run () =
  let requests = if !Harness.smoke then 120 else 2_000 in
  let window = 32 in
  let rows = ref [] in
  let all_ok = ref true in
  let checked = ref 0 and mismatched = ref 0 in
  let last = ref None in
  (* One served run: the seed fixes the data and the request stream. *)
  let serve_arm n =
    let rng = Harness.rng (20_000 + n) in
    let srv = Server.create () in
    (match
       Catalog.load (Server.catalog srv) ~name:"E" ~attrs:[| "u"; "v" |]
         (random_edges rng n)
     with
    | Ok _ -> ()
    | Error msg -> failwith msg);
    let stream = List.init requests (fun _ -> random_request rng) in
    let rec windows = function
      | [] -> []
      | reqs ->
          let rec split k acc = function
            | rest when k = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | r :: tl -> split (k - 1) (r :: acc) tl
          in
          let w, rest = split window [] reqs in
          w :: windows rest
    in
    let batches = windows stream in
    let replies, elapsed =
      Harness.time (fun () ->
          List.concat_map (fun w -> Server.submit_window srv w) batches)
    in
    (srv, stream, replies, elapsed)
  in
  List.iter
    (fun n ->
      let srv, stream, replies, elapsed = serve_arm n in
      List.iter
        (fun r -> if status_of r <> "ok" then all_ok := false)
        replies;
      (* The stream is read-only, so every reply must carry the
         sequential interpreted engine's answer over the loaded
         catalog. *)
      let db = Catalog.database (Server.catalog srv) in
      let oracle = List.map (fun t -> (t, oracle_rows db t)) [ triangle; path ] in
      List.iter2
        (fun req reply ->
          incr checked;
          if not (reply_matches oracle req reply) then incr mismatched)
        stream replies;
      let m = Server.metrics srv in
      let count name = Option.value ~default:0 (Metrics.find_counter m name) in
      let hits = count "serve.cache.result.hits" in
      let plan_hits = count "serve.cache.plan.hits" in
      let rps = float_of_int requests /. elapsed in
      last := Some (srv, hits, plan_hits);
      rows :=
        [
          string_of_int n;
          string_of_int requests;
          Harness.secs elapsed;
          Printf.sprintf "%.0f" rps;
          Printf.sprintf "%d/%d" hits requests;
          string_of_int plan_hits;
        ]
        :: !rows;
      Harness.metric (Printf.sprintf "E20.requests_per_sec.n%d" n) rps)
    (Harness.sizes [ 64; 128; 256 ]);
  Harness.table
    [
      "n";
      "requests";
      "elapsed";
      "req/s";
      "result-cache hits";
      "plan-cache hits";
    ]
    (List.rev !rows);
  match !last with
  | None -> ()
  | Some (srv, hits, plan_hits) ->
      let m = Server.metrics srv in
      let count name = Option.value ~default:0 (Metrics.find_counter m name) in
      Harness.counter "E20.requests" (count "serve.requests");
      Harness.counter "E20.result_cache_hits" hits;
      Harness.counter "E20.plan_cache_hits" plan_hits;
      Harness.counter "E20.plans.yannakakis" (count "serve.plan.yannakakis");
      Harness.counter "E20.plans.leapfrog" (count "serve.plan.leapfrog");
      Harness.counter "E20.compile_hits" (count "serve.compile.hits");
      Harness.counter "E20.compile_misses" (count "serve.compile.misses");
      Harness.counter "E20.errors" (count "serve.errors");
      Harness.counter "E20.values_checked" (!checked - !mismatched);
      let hit_rate =
        float_of_int hits /. float_of_int (max 1 (count "serve.requests"))
      in
      Harness.verdict
        (!all_ok && !checked > 0 && !mismatched = 0 && hits > 0
        && plan_hits > 0
        && count "serve.errors" = 0)
        (Printf.sprintf
           "served %d requests without errors; %.0f%% answered from the \
            result cache (two distinct plans live in the plan cache: \
            Yannakakis for the path, a WCOJ engine for the triangle); \
            the WCOJ plan was lowered once (%d compile miss(es)) and its \
            IR reused %d time(s) from the plan cache - structure-aware \
            planning decides the engine once, the LRU amortizes it; \
            %d/%d replies carried the sequential oracle's count (and, \
            when limited, its first rows)"
           (count "serve.requests") (100. *. hit_rate)
           (count "serve.compile.misses")
           (count "serve.compile.hits")
           (!checked - !mismatched) !checked)

let experiment =
  {
    Harness.id = "E20";
    title = "lbt serve: served throughput with plan/result caches";
    claim =
      "a service front end makes the planner's structural analysis \
       (acyclic -> Yannakakis, cyclic -> WCOJ at the AGM exponent) a \
       per-query decision whose cost is amortized by LRU caches";
    run;
  }
