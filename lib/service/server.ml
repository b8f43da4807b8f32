(* The query service.  See server.mli for the execution model; the
   invariant that keeps the concurrency simple is that all shared
   mutable state (catalog, caches, lifetime metrics, the WAL) is
   touched only in the sequential prepare/finish phases - the parallel
   phase runs pure engine executions against an immutable database
   snapshot.

   Writes: mutations merge into the catalog's sorted rows, append one
   fsynced WAL record when a data directory is configured, and then
   *maintain* the result cache instead of flushing it - each cached
   answer carries the per-relation version vector it was computed
   against, and the delta rules in {!Ivm} bring it to the new catalog
   state byte-identically to a recompute.  Recovery replays snapshot +
   WAL through the same mutation path, so a restarted server's caches
   are warm and consistent. *)

module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics
module Exec = Lb_util.Exec
module Lru = Lb_util.Lru
module Pool = Lb_util.Pool

type config = {
  max_pending : int;
  plan_cache_size : int;
  result_cache_size : int;
  default_timeout_ms : int option;
  default_max_ticks : int option;
  max_rows : int;
  pool : Pool.t option;
  shards : int;
  ivm : bool;
  data_dir : string option;
  snapshot_every : int;
  snapshot_bytes : int option;
      (* also checkpoint whenever the WAL exceeds this many bytes *)
  protocol_max : int;
      (* highest request "v" this server accepts; 1 = classic serve,
         2 = the worker/coordinator surface is live *)
}

let default_config =
  {
    max_pending = 64;
    plan_cache_size = 256;
    result_cache_size = 128;
    default_timeout_ms = None;
    default_max_ticks = None;
    max_rows = 10_000;
    pool = None;
    shards = 1;
    ivm = true;
    data_dir = None;
    snapshot_every = 64;
    snapshot_bytes = None;
    protocol_max = Protocol.version;
  }

(* Cached answer: canonical column order, sorted rows. *)
type answer = Ivm.answer = {
  attributes : string array;
  rows : int array array;
}

(* A result-cache entry: the canonical answer plus its provenance -
   the query (for maintenance) and the per-relation version vector it
   is current for.  An entry serves iff its vector matches the
   catalog's; maintenance rewrites [ans]/[vv] in place after writes. *)
type centry = {
  ans : answer;
  q : Q.t;
  rels : string list; (* distinct relation names of [q], sorted *)
  vv : (string * int) list;
}

(* A plan-cache entry: the plan and the distinct relations its query
   reads, which is what a write retires it by. *)
type pentry = { plan : Planner.plan; prels : string list }

type durable = {
  dir : string;
  writer : Wal.writer;
  mutable since_snapshot : int; (* WAL records since the last snapshot *)
  mutable snapshot_version : int; (* catalog version the snapshot holds *)
}

(* What a distributed scatter hands back to the server: the merged
   sorted rows, the per-name sums of the participants' engine
   counters, and whether any dead worker's shards had to be absorbed
   locally (the reply is then "status":"degraded" - still complete and
   byte-identical). *)
type dispatch_outcome = {
  d_attributes : string array;
  d_rows : int array array;
  d_counters : (string * int) list;
  d_degraded : bool;
}

(* The coordinator side of the distributed tier, injected after
   creation (the coordinator holds the server, so the reference cannot
   be built at [create] time).  [dispatch_query] scatters one
   read-only unbudgeted query; [Error] falls back to ordinary local
   execution.  [notify_mutation] fans a just-applied mutation out to
   the worker replicas with its post-apply catalog version. *)
type dispatcher = {
  dispatch_query :
    text:string -> engine:Planner.engine -> (dispatch_outcome, string) result;
  notify_mutation : version:int -> Wal.record -> unit;
}

type t = {
  config : config;
  catalog : Catalog.t;
  plan_cache : (string, pentry) Lru.t;
  result_cache : (string, centry) Lru.t;
  metrics : Metrics.t;
  mutable durable : durable option;
  mutable shutdown : bool;
  mutable dispatcher : dispatcher option;
  mutable pending_seed : (string * string array * int array array * int) list;
      (* partition_load buffer, newest first, committed by sync *)
  gc0 : Gc.stat; (* baseline at server creation; stats report deltas *)
}

let catalog t = t.catalog

let metrics t = t.metrics

let set_dispatcher t d = t.dispatcher <- Some d

let shutdown_requested t = t.shutdown

let incr t name = Metrics.incr t.metrics name

let rels_of (q : Q.t) =
  List.sort_uniq String.compare (List.map (fun (a : Q.atom) -> a.Q.rel) q)

(* --- the WCOJ call --- *)

(* Every served WCOJ execution - planned queries, IVM maintenance and a
   worker's distributed slices - runs the compiled tier through this
   one call.  The IR comes from the plan when it carries one (the plan
   cache amortizes lowering) and is lowered on the spot otherwise;
   [shards > 1] selects the sharded driver, which splits the atoms of
   the snapshot [db] per execution, and [subset] the slice of it this
   process executes. *)
let run_wcoj ~ctx ?ir ?subset ~shards engine db q =
  let ir =
    match (ir, Planner.compile_engine engine) with
    | Some ir, _ -> ir
    | None, Some ce -> Lb_relalg.Compile.lower ~engine:ce q
    | None, None ->
        invalid_arg (Planner.engine_name engine ^ " is not a WCOJ engine")
  in
  if shards > 1 then Lb_relalg.Compile.run_sharded ~ctx ?subset ~shards ir db q
  else Lb_relalg.Compile.answer ~ctx ir db q

(* The decomposition route: a planner-chosen plan races the flat WCOJ
   against its bag bound and builds bags only when that runs out; a
   forced ["engine":"decomposed"] plan always builds them.  The bag
   statistics come back when bags were built. *)
let run_decomposed ~ctx (plan : Planner.plan) db q =
  let decomposition = plan.Planner.decomposition in
  if plan.Planner.forced then
    let rel, stats =
      Lb_relalg.Decomposed_join.answer ~ctx ~compile:true ?decomposition db q
    in
    (rel, Some stats)
  else
    match Lb_relalg.Decomposed_join.race ~ctx ?decomposition db q with
    | rel, Lb_relalg.Decomposed_join.Flat -> (rel, None)
    | rel, Lb_relalg.Decomposed_join.Bags stats -> (rel, Some stats)

(* --- IVM: result-cache maintenance across writes --- *)

(* Maintenance queries run through whatever engine the planner picks
   for them - canonical answers are engine-independent, so the choice
   affects cost only.  Counters land in the lifetime sink (maintenance
   happens in the sequential phase). *)
let runner t : Ivm.runner =
 fun db q ->
  let plan = Planner.choose db q in
  let ctx = Exec.make ~metrics:t.metrics () in
  match plan.Planner.engine with
  | Planner.Yannakakis -> fst (Lb_relalg.Yannakakis.answer ~ctx db q)
  | Planner.Binary_hash -> fst (Lb_relalg.Binary_plan.run db q)
  | (Planner.Generic_join | Planner.Leapfrog) as e ->
      run_wcoj ~ctx ?ir:plan.Planner.compiled ~shards:1 e db q
  | Planner.Decomposed -> fst (run_decomposed ~ctx plan db q)

(* Plans mention cardinalities (engine choice, greedy atom orders), so
   a write to [name] retires the plans of queries that read it; plans
   over other relations survive.  Each entry carries the relations its
   query reads, so a write scans the cache without parsing. *)
let invalidate_plans t name =
  List.iter
    (fun (key, (e : pentry)) ->
      if List.mem name e.prels then begin
        Lru.remove t.plan_cache key;
        incr t "serve.ivm.plan_invalidations"
      end)
    (Lru.to_list t.plan_cache)

(* Drop every cached result over [name] (loads, drops, and the
   [--no-ivm] escape hatch). *)
let invalidate_results t name =
  List.iter
    (fun (key, (e : centry)) ->
      if List.mem name e.rels then begin
        Lru.remove t.result_cache key;
        incr t "serve.ivm.invalidated"
      end
      else incr t "serve.ivm.untouched")
    (Lru.to_list t.result_cache)

(* The pre-mutation version vector of [e.rels], given that this write
   bumped exactly [name] by one: what [e.vv] must equal for the entry
   to be maintainable (anything else is already stale - drop it). *)
let expected_old_vv t name rels =
  List.map
    (fun n ->
      (n, if n = name then Catalog.rel_version t.catalog n - 1
          else Catalog.rel_version t.catalog n))
    rels

(* Maintain every cached result across a write of [rows] (the
   catalog's effective added or removed tuples) to [name].  [db_old]
   is the snapshot from before the write. *)
let maintain_results t ~db_old ~name ~rows ~is_insert =
  if not t.config.ivm then invalidate_results t name
  else begin
    let db_new = Catalog.database t.catalog in
    let delta =
      lazy
        (R.of_sorted_distinct (R.attrs (Db.find db_new name)) rows)
    in
    List.iter
      (fun (key, (e : centry)) ->
        if not (List.mem name e.rels) then incr t "serve.ivm.untouched"
        else if e.vv <> expected_old_vv t name e.rels then begin
          (* not current before this write: unmaintainable *)
          Lru.remove t.result_cache key;
          incr t "serve.ivm.invalidated"
        end
        else if Array.length rows = 0 then begin
          (* no effective change: the answer stands, restamp it *)
          let vv = Catalog.version_vector t.catalog e.rels in
          Lru.update t.result_cache key (fun e -> { e with vv });
          incr t "serve.ivm.refreshed"
        end
        else begin
          (* Maintenance cannot fail on a current entry: the runner is
             unbudgeted, every relation the query reads is present, and
             the reserved maintenance names never clash with client
             relations - so any exception is a bug and propagates. *)
          let ans =
            (if is_insert then Ivm.insert_maintain else Ivm.delete_maintain)
              ~runner:(runner t) ~db_old ~db_new ~name ~delta:(Lazy.force delta)
              e.q e.ans
          in
          let vv = Catalog.version_vector t.catalog e.rels in
          Lru.update t.result_cache key (fun e -> { e with ans; vv });
          incr t "serve.ivm.maintained";
          Metrics.add t.metrics "serve.ivm.delta_rows" (Array.length rows)
        end)
      (Lru.to_list t.result_cache)
  end

(* --- applying mutations (shared by live requests and WAL replay) --- *)

(* Apply one mutation record to catalog + caches.  [Ok rows] for
   load/insert/delete, [Ok (-1)] for drop.  This is the single mutation
   path: WAL replay goes through it too, so recovered caches see every
   write exactly as the original process did. *)
let apply_mutation t (record : Wal.record) =
  match record with
  | Wal.Load { name; attrs; tuples } -> (
      match Catalog.load t.catalog ~name ~attrs tuples with
      | Ok n ->
          invalidate_plans t name;
          invalidate_results t name;
          Ok n
      | Error _ as e -> e)
  | Wal.Insert { name; tuples } -> (
      let db_old = Catalog.database t.catalog in
      match Catalog.insert t.catalog ~name tuples with
      | Ok (n, added) ->
          invalidate_plans t name;
          maintain_results t ~db_old ~name ~rows:added ~is_insert:true;
          Ok n
      | Error _ as e -> e)
  | Wal.Delete { name; tuples } -> (
      let db_old = Catalog.database t.catalog in
      match Catalog.delete t.catalog ~name tuples with
      | Ok (n, removed) ->
          invalidate_plans t name;
          maintain_results t ~db_old ~name ~rows:removed ~is_insert:false;
          Ok n
      | Error _ as e -> e)
  | Wal.Drop { name } -> (
      match Catalog.drop t.catalog ~name with
      | Ok () ->
          invalidate_plans t name;
          invalidate_results t name;
          Ok (-1)
      | Error _ as e -> e)

(* --- durability: snapshots + WAL --- *)

let snapshot_path dir = Filename.concat dir "snapshot.lbt"

let wal_path dir = Filename.concat dir "wal.lbt"

let row_json r = Json.List (List.map (fun v -> Json.Int v) (Array.to_list r))

let snapshot_doc t =
  let relations =
    List.map
      (fun (name, attrs, tuples, rv) ->
        Json.Obj
          [
            ("name", Json.String name);
            ( "attrs",
              Json.List
                (List.map (fun a -> Json.String a) (Array.to_list attrs)) );
            ("version", Json.Int rv);
            ( "tuples",
              Json.List (List.map row_json (Array.to_list tuples)) );
          ])
      (Catalog.dump t.catalog)
  in
  let results =
    List.map
      (fun (key, (e : centry)) ->
        Json.Obj
          [
            ("key", Json.String key);
            ( "attributes",
              Json.List
                (List.map
                   (fun a -> Json.String a)
                   (Array.to_list e.ans.attributes)) );
            ( "rows",
              Json.List (List.map row_json (Array.to_list e.ans.rows)) );
            ( "vv",
              Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) e.vv) );
          ])
      (Lru.to_list t.result_cache)
  in
  Json.Obj
    [
      ("v", Json.Int 1);
      ("version", Json.Int (Catalog.version t.catalog));
      ("relations", Json.List relations);
      ("results", Json.List results);
    ]

let checkpoint t =
  match t.durable with
  | None -> ()
  | Some d ->
      Snapshot.write ~path:(snapshot_path d.dir) (snapshot_doc t);
      Wal.reset d.writer;
      d.since_snapshot <- 0;
      d.snapshot_version <- Catalog.version t.catalog;
      incr t "serve.wal.snapshots"

(* Append the record behind a successful live mutation; snapshot once
   enough records accumulate, bounding both replay time and WAL
   growth. *)
let log_mutation t record =
  match t.durable with
  | None -> ()
  | Some d ->
      Wal.append d.writer ~version:(Catalog.version t.catalog) record;
      incr t "serve.wal.appends";
      d.since_snapshot <- d.since_snapshot + 1;
      (* Size-based trip: alongside the record-count policy, so a few
         huge loads cannot balloon replay time under the record cap. *)
      let bytes_tripped =
        match t.config.snapshot_bytes with
        | Some limit when Wal.size d.writer > limit ->
            incr t "serve.wal.snapshot_bytes_trips";
            true
        | _ -> false
      in
      if bytes_tripped || d.since_snapshot >= max 1 t.config.snapshot_every
      then checkpoint t

(* Decoders for the snapshot document; malformed pieces degrade softly
   (a bad cached result is skipped, a bad snapshot ignored entirely). *)
let rows_of_json j =
  match j with
  | Json.List rows ->
      Some
        (Array.of_list
           (List.filter_map
              (function
                | Json.List vs -> (
                    try
                      Some
                        (Array.of_list
                           (List.map
                              (function Json.Int v -> v | _ -> raise Exit)
                              vs))
                    with Exit -> None)
                | _ -> None)
              rows))
  | _ -> None

let restore_snapshot t doc =
  match (Json.int_field "version" doc, Json.member "relations" doc) with
  | Ok version, Some (Json.List rels) ->
      let parsed =
        List.filter_map
          (fun rj ->
            match
              ( Json.string_field "name" rj,
                Json.member "attrs" rj,
                Json.int_field "version" rj,
                Json.member "tuples" rj )
            with
            | Ok name, Some (Json.List aj), Ok rv, Some tj -> (
                match rows_of_json tj with
                | Some rows -> (
                    try
                      let attrs =
                        Array.of_list
                          (List.map
                             (function Json.String a -> a | _ -> raise Exit)
                             aj)
                      in
                      Some (name, attrs, rows, rv)
                    with Exit -> None)
                | None -> None)
            | _ -> None)
          rels
      in
      Catalog.restore t.catalog ~version parsed;
      (* Re-warm persisted cached answers whose provenance still
         matches the restored catalog.  Restore oldest-first so the
         LRU recency order survives the round trip. *)
      (match Json.member "results" doc with
      | Some (Json.List results) ->
          List.iter
            (fun ej ->
              match
                ( Json.string_field "key" ej,
                  Json.member "attributes" ej,
                  Json.member "rows" ej,
                  Json.member "vv" ej )
              with
              | Ok key, Some (Json.List aj), Some rj, Some (Json.Obj vvj) -> (
                  match (Q.parse key, rows_of_json rj) with
                  | exception Q.Parse_error _ -> ()
                  | q, Some rows -> (
                      try
                        let attributes =
                          Array.of_list
                            (List.map
                               (function Json.String a -> a | _ -> raise Exit)
                               aj)
                        in
                        let vv =
                          List.map
                            (function
                              | n, Json.Int v -> (n, v) | _ -> raise Exit)
                            vvj
                        in
                        let rels = rels_of q in
                        if vv = Catalog.version_vector t.catalog rels then
                          Lru.put t.result_cache key
                            { ans = { attributes; rows }; q; rels; vv }
                      with Exit -> ())
                  | _, None -> ())
              | _ -> ())
            (List.rev results)
      | _ -> ());
      version
  | _ -> 0

(* Open the data directory: restore the snapshot, replay the WAL's
   records past it through the ordinary mutation path, repair any torn
   tail, and leave the writer open for new appends. *)
let open_durable t dir =
  (try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error _ -> ());
  let snapshot_version =
    match Snapshot.read (snapshot_path dir) with
    | Some doc -> restore_snapshot t doc
    | None -> 0
  in
  let replayed = Wal.replay (wal_path dir) in
  let applied = ref 0 in
  List.iter
    (fun (v, record) ->
      if v > snapshot_version then begin
        (match apply_mutation t record with Ok _ | Error _ -> ());
        Stdlib.incr applied
      end)
    replayed.Wal.records;
  Metrics.add t.metrics "serve.wal.replayed" !applied;
  let writer = Wal.open_writer (wal_path dir) in
  if replayed.Wal.truncated then begin
    Wal.repair writer ~valid_bytes:replayed.Wal.valid_bytes;
    incr t "serve.wal.repaired"
  end;
  t.durable <-
    Some { dir; writer; since_snapshot = !applied; snapshot_version }

let create ?(config = default_config) () =
  if config.max_pending < 1 then invalid_arg "Server.create: max_pending < 1";
  if config.shards < 1 then invalid_arg "Server.create: shards < 1";
  let t =
    {
      config;
      catalog = Catalog.create ();
      plan_cache = Lru.create config.plan_cache_size;
      result_cache = Lru.create config.result_cache_size;
      metrics = Metrics.create ();
      durable = None;
      shutdown = false;
      dispatcher = None;
      pending_seed = [];
      gc0 = Gc.quick_stat ();
    }
  in
  Option.iter (open_durable t) config.data_dir;
  t

(* --- execution (pure w.r.t. server state) --- *)

type exec_outcome =
  | Answered of answer
  | Timed_out of Budget.exhausted
  | Failed of string

type task = {
  query : Q.t;
  canonical : string;
  plan : Planner.plan;
  opts : Protocol.query_opts;
  result_key : string;
  sink : Metrics.t;
  budget : Budget.t option;
  shards : int; (* > 1: the sharded driver, and eligible to scatter *)
  mutable outcome : exec_outcome;
  mutable elapsed_ms : float;
  mutable collapsed : bool;
      (* answered by another task of the same window with the same
         plan signature, without its own execution *)
  mutable degraded : bool;
      (* a distributed scatter absorbed a dead worker's shards locally *)
}

(* Batch-compatibility key: same catalog version and canonical text
   (the result_key) evaluated by the same engine - such tasks share one
   trie build and one answer. *)
let plan_signature (task : task) =
  Planner.engine_name task.plan.Planner.engine ^ "|" ^ task.result_key

let run_engine ?pool (task : task) db =
  let q = task.query in
  let budget = task.budget in
  let sink = task.sink in
  let ctx = Exec.make ?pool ?budget ~metrics:sink () in
  match task.plan.Planner.engine with
  | Planner.Yannakakis ->
      (* No inner budget hooks beyond the per-semijoin tick: Yannakakis
         is output-bounded, so a per-answer blowup cannot happen; check
         the deadline around as well. *)
      Option.iter Budget.check budget;
      let rel, _stats = Lb_relalg.Yannakakis.answer ~ctx db q in
      Option.iter Budget.check budget;
      rel
  | (Planner.Generic_join | Planner.Leapfrog) as e ->
      run_wcoj ~ctx ?ir:task.plan.Planner.compiled ~shards:task.shards e db q
  | Planner.Binary_hash ->
      Option.iter Budget.check budget;
      let rel, stats =
        match task.plan.Planner.atom_order with
        | Some order -> Lb_relalg.Binary_plan.run_order db q order
        | None -> Lb_relalg.Binary_plan.run db q
      in
      Metrics.add sink "binary.max_intermediate"
        stats.Lb_relalg.Binary_plan.max_intermediate;
      Metrics.add sink "binary.total_tuples"
        stats.Lb_relalg.Binary_plan.total_tuples;
      Option.iter Budget.check budget;
      rel
  | Planner.Decomposed ->
      (* The plan carries the realizing decomposition; the flat race
         and each bag's WCOJ run the compiled loop-nest tier. *)
      Option.iter Budget.check budget;
      let rel, stats = run_decomposed ~ctx task.plan db q in
      Option.iter
        (fun (s : Lb_relalg.Decomposed_join.stats) ->
          Metrics.add sink "decomposed.max_bag_tuples" s.max_bag_tuples)
        stats;
      Option.iter Budget.check budget;
      rel

let execute ?pool (task : task) db =
  let t0 = Unix.gettimeofday () in
  let outcome =
    match run_engine ?pool task db with
    | rel -> Answered (Ivm.canonical task.query rel)
    | exception Budget.Budget_exhausted e -> Timed_out e
    | exception Invalid_argument msg -> Failed msg
    | exception Failure msg -> Failed msg
  in
  task.outcome <- outcome;
  (* microsecond-rounded: enough resolution, shorter replies *)
  task.elapsed_ms <-
    Float.round ((Unix.gettimeofday () -. t0) *. 1e6) /. 1e3

(* --- responses --- *)

let answer_fields t (task : task) ~cached (ans : answer) =
  let opts = task.opts in
  let count = Array.length ans.rows in
  let limit =
    match opts.Protocol.limit with
    | Some l -> min l t.config.max_rows
    | None -> t.config.max_rows
  in
  let shown = if opts.Protocol.count_only then 0 else min count limit in
  [
    ("plan", Protocol.plan_to_json task.plan);
    ("cached", Json.Bool cached);
    ( "attributes",
      Json.List
        (List.map (fun a -> Json.String a) (Array.to_list ans.attributes)) );
    ("count", Json.Int count);
  ]
  @ (if opts.Protocol.count_only then []
     else
       [
         ( "rows",
           Json.List (List.init shown (fun i -> row_json ans.rows.(i))) );
         ("truncated", Json.Bool (shown < count));
       ])
  @ [ ("elapsed_ms", Json.Float task.elapsed_ms) ]

let query_response t (task : task) ~cached ans ~with_counters =
  let fields = answer_fields t task ~cached ans in
  let fields =
    if with_counters then
      fields @ [ ("counters", Protocol.counters_to_json (Metrics.counters task.sink)) ]
    else fields
  in
  let status = if task.degraded then "degraded" else "ok" in
  Protocol.ok_fields ~status ~op:"query" fields

(* --- the window processor --- *)

type item =
  | Req of Protocol.request * int (* request, requested protocol version *)
  | Bad of string
  | Vreject of int (* requested version beyond this server's protocol_max *)
  | Shed

(* Sequential prepare: either a finished reply or a task to execute. *)
type prepared = Ready of Json.t | Pending of task

let reason_string = function
  | Budget.Ticks -> "ticks"
  | Budget.Deadline -> "deadline"
  | Budget.Cancelled -> "cancelled"

let mutation_response t op name rows =
  incr t "serve.mutations";
  Protocol.ok_fields ~op
    ([ ("relation", Json.String name) ]
    @ (match rows with Some n -> [ ("rows", Json.Int n) ] | None -> [])
    @ [ ("version", Json.Int (Catalog.version t.catalog)) ])

let cache_stats name (c : (_, _) Lru.t) =
  ( name,
    Json.Obj
      [
        ("entries", Json.Int (Lru.length c));
        ("capacity", Json.Int (Lru.capacity c));
        ("hits", Json.Int (Lru.hits c));
        ("misses", Json.Int (Lru.misses c));
        ("evictions", Json.Int (Lru.evictions c));
      ] )

(* GC visibility.  [Gc.quick_stat] deltas since server creation give
   the allocation story (how much work the collector was handed);
   the pause proxy is maintained by the request loop: a histogram of
   window wall times restricted to windows during which a major
   collection ran.  OCaml exposes no direct pause clock, so the top
   occupied bucket of that histogram is the honest upper estimate of
   what a major costs a request. *)
let pause_buckets = [ "le_1"; "le_4"; "le_16"; "le_64"; "gt_64" ]

let pause_bucket_of ms =
  if ms <= 1.0 then "le_1"
  else if ms <= 4.0 then "le_4"
  else if ms <= 16.0 then "le_16"
  else if ms <= 64.0 then "le_64"
  else "gt_64"

let top_pause_bucket t =
  List.fold_left
    (fun best b ->
      match Metrics.find_counter t.metrics ("serve.gc.pause_ms_" ^ b) with
      | Some n when n > 0 -> Some b
      | _ -> best)
    None pause_buckets

let gc_json t =
  let s = Gc.quick_stat () in
  let words f = Json.Int (int_of_float (f s -. f t.gc0)) in
  Json.Obj
    [
      ("minor_words", words (fun (st : Gc.stat) -> st.Gc.minor_words));
      ("promoted_words", words (fun (st : Gc.stat) -> st.Gc.promoted_words));
      ("major_words", words (fun (st : Gc.stat) -> st.Gc.major_words));
      ( "minor_collections",
        Json.Int (s.Gc.minor_collections - t.gc0.Gc.minor_collections) );
      ( "major_collections",
        Json.Int (s.Gc.major_collections - t.gc0.Gc.major_collections) );
      ("compactions", Json.Int (s.Gc.compactions - t.gc0.Gc.compactions));
      ("heap_words", Json.Int s.Gc.heap_words);
      ("top_heap_words", Json.Int s.Gc.top_heap_words);
      ( "top_pause_bucket_ms",
        match top_pause_bucket t with
        | Some b -> Json.String b
        | None -> Json.Null );
    ]

let stats_response t =
  Protocol.ok_fields ~op:"stats"
    [
      ("version", Json.Int (Catalog.version t.catalog));
      ("shards", Json.Int t.config.shards);
      ("ivm", Json.Bool t.config.ivm);
      ("durable", Json.Bool (t.durable <> None));
      ("gc", gc_json t);
      ( "relations",
        Json.Obj
          (List.map
             (fun (n, c) -> (n, Json.Int c))
             (Catalog.summary t.catalog)) );
      ( "caches",
        Json.Obj [ cache_stats "plan" t.plan_cache; cache_stats "result" t.result_cache ]
      );
      ("counters", Protocol.counters_to_json (Metrics.counters t.metrics));
    ]

(* A plan's plan-cache charge: compiled IRs carry their flat tables, so
   a pathological query cannot bloat the cache past its capacity even
   at one entry per kilobyte-scale IR.  Ordinary plans (and ordinary
   IRs, a few dozen ints) weigh 1, preserving the historical
   entry-count semantics of [plan_cache_size]. *)
let plan_weight (plan : Planner.plan) =
  match plan.Planner.compiled with
  | None -> 1
  | Some ir -> 1 + (Lb_relalg.Compile.weight ir / 1024)

(* Plan lookup through the plan cache.  The cache key includes the
   engine choice; forced-infeasible combinations return Error.  Plans
   carry their compiled IR, so a plan-cache hit is also a compilation
   hit: the lowered loop nest is reused across executions and batch
   windows ([serve.compile.hits] / [serve.compile.misses]). *)
let plan_of t (q : Q.t) canonical (engine : Planner.engine option) =
  let tag = match engine with None -> "auto" | Some e -> Planner.engine_name e in
  let key = tag ^ "|" ^ canonical in
  match Lru.find t.plan_cache key with
  | Some { plan; _ } ->
      incr t "serve.cache.plan.hits";
      if plan.Planner.compiled <> None then incr t "serve.compile.hits";
      Ok plan
  | None -> (
      incr t "serve.cache.plan.misses";
      let db = Catalog.database t.catalog in
      let planned =
        match engine with
        | None -> Ok (Planner.choose db q)
        | Some e -> Planner.plan_for e db q
      in
      match planned with
      | Ok plan ->
          if plan.Planner.compiled <> None then incr t "serve.compile.misses";
          Lru.put ~weight:(plan_weight plan) t.plan_cache key
            { plan; prels = rels_of q };
          incr t ("serve.plan." ^ Planner.engine_name plan.Planner.engine);
          Ok plan
      | Error _ as e -> e)

(* The budget a query or colsub request runs under: its own
   [max_ticks]/[timeout_ms] limits, each defaulting to the configured
   one; [None] when no limit applies. *)
let request_budget t ~max_ticks ~timeout_ms =
  let or_default v d = match v with Some _ -> v | None -> d in
  let ticks = or_default max_ticks t.config.default_max_ticks in
  let timeout_ms = or_default timeout_ms t.config.default_timeout_ms in
  let seconds = Option.map (fun ms -> float_of_int ms /. 1000.) timeout_ms in
  match (ticks, seconds) with
  | None, None -> None
  | _ -> Some (Budget.create ?ticks ?seconds ())

(* The shard count an uncached query executes at: the configured one
   for a WCOJ plan over at least one variable whose atoms all bind
   against the catalog, 1 otherwise - so a query that cannot bind
   fails exactly as it does unsharded and is never scattered.  The
   sharded driver builds its shard view from the snapshot it runs
   on. *)
let shards_for t (plan : Planner.plan) (q : Q.t) =
  let db = Catalog.database t.catalog in
  let binds (a : Q.atom) =
    match Db.find_opt db a.Q.rel with
    | Some r -> R.width r = Array.length a.Q.attrs
    | None -> false
  in
  if
    t.config.shards > 1
    && Planner.compile_engine plan.Planner.engine <> None
    && Array.length (Q.attributes q) > 0
    && List.for_all binds q
  then begin
    incr t "serve.shard.views";
    t.config.shards
  end
  else 1

(* Sequential phase A for a query: parse, plan, consult the result
   cache; anything that avoids execution is Ready. *)
let prepare_query t text (opts : Protocol.query_opts) =
  match Q.parse text with
  | exception Q.Parse_error msg ->
      incr t "serve.errors";
      Ready (Protocol.error_response ("parse error: " ^ msg))
  | q -> (
      let canonical = Q.to_string q in
      match plan_of t q canonical opts.Protocol.engine with
      | Error msg ->
          incr t "serve.errors";
          Ready (Protocol.error_response msg)
      | Ok plan -> (
          let result_key =
            Printf.sprintf "%d|%s" (Catalog.version t.catalog) canonical
          in
          let task =
            {
              query = q;
              canonical;
              plan;
              opts;
              result_key;
              sink = Metrics.create ();
              budget = None;
              shards = 1;
              outcome = Failed "not executed";
              elapsed_ms = 0.0;
              collapsed = false;
              degraded = false;
            }
          in
          let cached =
            match Lru.find t.result_cache canonical with
            | Some e when e.vv = Catalog.version_vector t.catalog e.rels ->
                Some e.ans
            | Some _ ->
                (* stale provenance (e.g. writes with IVM disabled):
                   unusable, retire it *)
                Lru.remove t.result_cache canonical;
                None
            | None -> None
          in
          match cached with
          | Some ans ->
              incr t "serve.cache.result.hits";
              Ready (query_response t task ~cached:true ans ~with_counters:false)
          | None ->
              incr t "serve.cache.result.misses";
              let budget =
                request_budget t ~max_ticks:opts.Protocol.max_ticks
                  ~timeout_ms:opts.Protocol.timeout_ms
              in
              Pending { task with budget; shards = shards_for t plan q }))

(* --- the colsub op: colorful subgraph isomorphism as a served
   workload.  Runs synchronously in the sequential phase (it reads no
   catalog state, so it needs no snapshot), under the same budget
   defaults and metrics discipline as queries: a per-request sink
   merged into the lifetime metrics, budget exhaustion surfaced as a
   timeout reply with partial counters. --- *)

let colsub_instance (c : Protocol.colsub_req) =
  if c.Protocol.k < 0 then Error "\"k\" must be nonnegative"
  else
    match
      let pattern =
        Lb_graph.Graph.of_edges c.Protocol.k c.Protocol.pattern_edges
      in
      let host =
        Lb_graph.Graph.of_edges
          (List.length c.Protocol.colors)
          c.Protocol.host_edges
      in
      Lb_graph.Colsub.make ~pattern ~host
        ~colors:(Array.of_list c.Protocol.colors)
    with
    | inst -> Ok inst
    | exception Invalid_argument msg -> Error msg

let prepare_colsub t (c : Protocol.colsub_req) =
  incr t "serve.colsubs";
  match colsub_instance c with
  | Error msg ->
      incr t "serve.errors";
      Ready (Protocol.error_response msg)
  | Ok inst -> (
      (* auto = the decomposition DP: its exponent tracks tw(H), the
         best default the module offers. *)
      let meth =
        match c.Protocol.meth with
        | Protocol.Cs_auto -> Protocol.Cs_decomposition
        | m -> m
      in
      let sink = Metrics.create () in
      let budget =
        request_budget t ~max_ticks:c.Protocol.cs_max_ticks
          ~timeout_ms:c.Protocol.cs_timeout_ms
      in
      let ctx = Exec.make ?budget ~metrics:sink () in
      let t0 = Unix.gettimeofday () in
      let outcome =
        match
          if c.Protocol.count then
            `Count
              (match meth with
              | Protocol.Cs_backtracking ->
                  Lb_graph.Colsub.count_backtracking ~ctx inst
              | Protocol.Cs_csp -> Lb_reductions.Colsub_to_csp.count ~ctx inst
              | Protocol.Cs_decomposition | Protocol.Cs_auto ->
                  Lb_graph.Colsub.count_decomposed ~ctx inst)
          else
            `Witness
              (match meth with
              | Protocol.Cs_backtracking ->
                  Lb_graph.Colsub.find_backtracking ~ctx inst
              | Protocol.Cs_csp -> Lb_reductions.Colsub_to_csp.find ~ctx inst
              | Protocol.Cs_decomposition | Protocol.Cs_auto ->
                  Lb_graph.Colsub.find_decomposed ~ctx inst)
        with
        | r -> r
        | exception Budget.Budget_exhausted e -> `Timeout e
        | exception Invalid_argument msg -> `Error msg
      in
      let elapsed_ms =
        Float.round ((Unix.gettimeofday () -. t0) *. 1e6) /. 1e3
      in
      Metrics.merge_into ~dst:t.metrics sink;
      let head = ("method", Json.String (Protocol.colsub_method_name meth)) in
      let tail =
        [
          ("elapsed_ms", Json.Float elapsed_ms);
          ("counters", Protocol.counters_to_json (Metrics.counters sink));
        ]
      in
      match outcome with
      | `Timeout e ->
          incr t "serve.timeouts";
          Ready
            (Protocol.timeout_response_op ~op:"colsub"
               ~reason:(reason_string e.Budget.reason)
               ~ticks:e.Budget.ticks
               ~elapsed_ms:(e.Budget.elapsed *. 1000.)
               ~partial:(Metrics.counters sink))
      | `Error msg ->
          incr t "serve.errors";
          Ready (Protocol.error_response msg)
      | `Count n ->
          Ready
            (Protocol.ok_fields ~op:"colsub"
               ((head :: [ ("count", Json.Int n) ]) @ tail))
      | `Witness w ->
          Ready
            (Protocol.ok_fields ~op:"colsub"
               ([ head; ("found", Json.Bool (w <> None)) ]
               @ (match w with
                 | Some f ->
                     [
                       ( "witness",
                         Json.List
                           (List.map
                              (fun v -> Json.Int v)
                              (Array.to_list f)) );
                     ]
                 | None -> [])
               @ tail)))

(* A live mutation: apply, WAL-log on success, reply. *)
let prepare_mutation t (record : Wal.record) =
  let op, name =
    match record with
    | Wal.Load { name; _ } -> ("load", name)
    | Wal.Insert { name; _ } -> ("insert", name)
    | Wal.Delete { name; _ } -> ("delete", name)
    | Wal.Drop { name } -> ("drop", name)
  in
  match apply_mutation t record with
  | Ok n ->
      log_mutation t record;
      (match t.dispatcher with
      | Some d ->
          d.notify_mutation ~version:(Catalog.version t.catalog) record
      | None -> ());
      Ready (mutation_response t op name (if n < 0 then None else Some n))
  | Error msg ->
      incr t "serve.errors";
      Ready (Protocol.error_response msg)

(* --- the v2 worker surface --- *)

(* One scatter slice: run the compiled sharded driver over the
   replica's snapshot, deep-executing only the [owned] shard indices
   and counting level-0 work iff [lead] ({!Lb_relalg.Compile.subset}).
   An owned index outside [0, shards) is a coordinator bug - dropping
   it would silently lose that shard's rows - so it draws an error
   reply.  The reply returns every owned row (shaping is the
   coordinator's job) plus the slice's counter deltas. *)
let exec_subquery t ~text ~engine ~shards ~owned ~lead =
  incr t "serve.dist.subqueries";
  let fail msg =
    incr t "serve.errors";
    Protocol.error_response msg
  in
  match Planner.engine_of_name engine with
  | Error msg -> fail msg
  | Ok engine -> (
      match Q.parse text with
      | exception Q.Parse_error msg -> fail ("parse error: " ^ msg)
      | q -> (
          let attrs = Q.attributes q in
          if shards < 2 then fail "\"shards\" must be >= 2"
          else if Array.length attrs = 0 then
            fail "subquery needs at least one variable"
          else if Planner.compile_engine engine = None then
            fail
              (Printf.sprintf "engine %s is not distributable"
                 (Planner.engine_name engine))
          else
            match List.find_opt (fun i -> i < 0 || i >= shards) owned with
            | Some i ->
                fail
                  (Printf.sprintf "owned shard %d is out of range [0, %d)" i
                     shards)
            | None -> (
                let db = Catalog.database t.catalog in
                let owned_arr = Array.make shards false in
                List.iter (fun i -> owned_arr.(i) <- true) owned;
                let subset =
                  { Lb_relalg.Compile.owned = (fun i -> owned_arr.(i)); lead }
                in
                let sink = Metrics.create () in
                let ctx = Exec.make ?pool:t.config.pool ~metrics:sink () in
                match run_wcoj ~ctx ~subset ~shards engine db q with
                | exception Invalid_argument msg -> fail msg
                | exception Failure msg -> fail msg
                | rel ->
                    incr t "serve.shard.views";
                    let ans = Ivm.canonical q rel in
                    (* The slice's engine counters travel in the reply
                       only: the coordinator sums them into the scattered
                       task's sink, which [finish] merges into lifetime
                       metrics exactly once - also when this slice is a
                       local absorption of a dead worker's shards. *)
                    Protocol.ok_fields_v2 ~op:"subquery"
                      [
                        ("version", Json.Int (Catalog.version t.catalog));
                        ( "attributes",
                          Json.List
                            (List.map
                               (fun a -> Json.String a)
                               (Array.to_list ans.attributes)) );
                        ("count", Json.Int (Array.length ans.rows));
                        ( "rows",
                          Json.List (List.map row_json (Array.to_list ans.rows))
                        );
                        ( "counters",
                          Protocol.counters_to_json (Metrics.counters sink) );
                      ])))

let wal_record_of_mutation = function
  | Protocol.Load { name; attrs; tuples } ->
      Some
        (Wal.Load
           {
             name;
             attrs = Array.of_list attrs;
             tuples = List.map Array.of_list tuples;
           })
  | Protocol.Insert { name; tuples } ->
      Some (Wal.Insert { name; tuples = List.map Array.of_list tuples })
  | Protocol.Delete { name; tuples } ->
      Some (Wal.Delete { name; tuples = List.map Array.of_list tuples })
  | Protocol.Drop { name } -> Some (Wal.Drop { name })
  | _ -> None

(* Buffer one reseed relation (committed wholesale by [sync]). *)
let prepare_partition_load t ~name ~attrs ~tuples ~rel_version =
  t.pending_seed <-
    ( name,
      Array.of_list attrs,
      Array.of_list (List.map Array.of_list tuples),
      rel_version )
    :: t.pending_seed;
  Ready
    (Protocol.ok_fields_v2 ~op:"partition_load"
       [
         ("relation", Json.String name);
         ("buffered", Json.Int (List.length t.pending_seed));
       ])

(* Commit the buffered reseed: replace the replica's catalog state at
   the coordinator's version and drop both caches (plans embed
   statistics of the old state; results carry stale provenance). *)
let prepare_sync t ~version ~shards =
  let parsed = List.rev t.pending_seed in
  t.pending_seed <- [];
  if shards < 1 then begin
    incr t "serve.errors";
    Ready (Protocol.error_response "\"shards\" must be >= 1")
  end
  else begin
    ignore (Catalog.restore t.catalog ~version parsed);
    Lru.clear t.plan_cache;
    Lru.clear t.result_cache;
    incr t "serve.dist.syncs";
    Ready
      (Protocol.ok_fields_v2 ~op:"sync"
         [
           ("version", Json.Int (Catalog.version t.catalog));
           ("relations", Json.Int (List.length parsed));
           ("shards", Json.Int shards);
         ])
  end

(* Apply one forwarded mutation iff the replica is exactly one version
   behind its post-apply stamp; anything else is stale and must reseed
   (structured "stale_replica" reject so the coordinator knows). *)
let prepare_apply t ~version ~mutation =
  match wal_record_of_mutation mutation with
  | None ->
      incr t "serve.errors";
      Ready
        (Protocol.error_response "\"mutation\" must be a load/insert/delete/drop")
  | Some record ->
      if Catalog.version t.catalog <> version - 1 then begin
        incr t "serve.dist.stale_applies";
        Ready
          (Protocol.error_response ~code:"stale_replica"
             ~fields:[ ("version", Json.Int (Catalog.version t.catalog)) ]
             (Printf.sprintf
                "replica at version %d cannot apply version %d"
                (Catalog.version t.catalog) version))
      end
      else begin
        match apply_mutation t record with
        | Ok n ->
            log_mutation t record;
            incr t "serve.dist.applies";
            Ready
              (Protocol.ok_fields_v2 ~op:"apply"
                 ([ ("version", Json.Int (Catalog.version t.catalog)) ]
                 @ if n < 0 then [] else [ ("rows", Json.Int n) ]))
        | Error msg ->
            incr t "serve.errors";
            Ready (Protocol.error_response msg)
      end

let prepare t ~req_v (req : Protocol.request) =
  incr t "serve.requests";
  match req with
  | Protocol.Ping -> Ready (Protocol.ok_fields ~op:"ping" [])
  | Protocol.Hello ->
      (* [negotiated] is the generation this session speaks: the
         requested version, already gated by [protocol_max] upstream.
         The [protocol] capability advertises the ceiling so a v1
         client can discover that v2 is available. *)
      Ready
        (Protocol.ok_fields ~op:"hello"
           [
             ( "capabilities",
               Json.Obj
                 [
                   ("shards", Json.Int t.config.shards);
                   ("batch", Json.Bool true);
                   ("compile", Json.Bool true);
                   ("ivm", Json.Bool t.config.ivm);
                   ("durable", Json.Bool (t.durable <> None));
                   ("colsub", Json.Bool true);
                   ("decompose", Json.Bool true);
                   ( "engines",
                     Json.List
                       (List.map
                          (fun e -> Json.String (Planner.engine_name e))
                          Planner.all_engines) );
                   ( "protocol",
                     Json.Obj
                       [ ("max_version", Json.Int t.config.protocol_max) ] );
                 ] );
             ("negotiated", Json.Int (min req_v t.config.protocol_max));
           ])
  | Protocol.Shutdown ->
      (* A clean shutdown checkpoints, so restart recovers from the
         snapshot alone. *)
      checkpoint t;
      t.shutdown <- true;
      Ready (Protocol.ok_fields ~op:"shutdown" [])
  | Protocol.Stats -> Ready (stats_response t)
  | Protocol.Checkpoint ->
      checkpoint t;
      Ready
        (Protocol.ok_fields ~op:"checkpoint"
           [
             ("durable", Json.Bool (t.durable <> None));
             ("version", Json.Int (Catalog.version t.catalog));
           ])
  | Protocol.Load _ | Protocol.Insert _ | Protocol.Delete _ | Protocol.Drop _
    ->
      prepare_mutation t (Option.get (wal_record_of_mutation req))
  | Protocol.Explain { text } -> (
      incr t "serve.explains";
      match Q.parse text with
      | exception Q.Parse_error msg ->
          incr t "serve.errors";
          Ready (Protocol.error_response ("parse error: " ^ msg))
      | q -> (
          let canonical = Q.to_string q in
          match plan_of t q canonical None with
          | Error msg ->
              incr t "serve.errors";
              Ready (Protocol.error_response msg)
          | Ok plan ->
              Ready
                (Protocol.ok_fields ~op:"explain"
                   ([
                      ("query", Json.String canonical);
                      ("plan", Protocol.plan_to_json plan);
                    ]
                   @ (match plan.Planner.compiled with
                     | Some ir ->
                         [
                           ( "ir",
                             Json.List
                               (List.map
                                  (fun l -> Json.String l)
                                  (Lb_relalg.Compile.describe ir)) );
                         ]
                     | None -> [])
                   @ [
                       ( "analysis",
                         Protocol.analysis_to_json
                           (Lowerbounds.Bounds.analyze_query q) );
                     ]))))
  | Protocol.Query { text; opts } ->
      incr t "serve.queries";
      prepare_query t text opts
  | Protocol.Colsub c -> prepare_colsub t c
  | Protocol.Subquery { text; engine; shards; owned; lead } ->
      Ready (exec_subquery t ~text ~engine ~shards ~owned ~lead)
  | Protocol.Partition_load { name; attrs; tuples; rel_version } ->
      prepare_partition_load t ~name ~attrs ~tuples ~rel_version
  | Protocol.Sync { version; shards } -> prepare_sync t ~version ~shards
  | Protocol.Apply { version; mutation } -> prepare_apply t ~version ~mutation

(* Sequential phase C: record the outcome into caches/metrics and
   build the reply. *)
let finish t (task : task) =
  Metrics.merge_into ~dst:t.metrics task.sink;
  match task.outcome with
  | Answered ans when task.collapsed ->
      (* Deduplicated within the window: report it as a cache hit. *)
      incr t "serve.cache.result.hits";
      query_response t task ~cached:true ans ~with_counters:false
  | Answered ans ->
      (* Provenance captured here is current: mutations are barriers,
         so the catalog cannot have moved under an executing window. *)
      let rels = rels_of task.query in
      let vv = Catalog.version_vector t.catalog rels in
      Lru.put t.result_cache task.canonical
        { ans; q = task.query; rels; vv };
      query_response t task ~cached:false ans ~with_counters:true
  | Timed_out e ->
      incr t "serve.timeouts";
      Protocol.timeout_response ~plan:task.plan
        ~reason:(reason_string e.Budget.reason)
        ~ticks:e.Budget.ticks
        ~elapsed_ms:(e.Budget.elapsed *. 1000.)
        ~partial:(Metrics.counters task.sink)
  | Failed msg ->
      incr t "serve.errors";
      Protocol.error_response msg

(* The batch scheduler.  Within one admission window, compatible
   requests - same catalog version and canonical text (the result key)
   under the same engine, i.e. the same {!plan_signature} - form one
   evaluation batch: the group's representative runs the engine once
   (one trie build, since every execution context built is counted by
   the engines' [*.trie_builds] metric), and the rest share its answer.
   The whole window then fans out in a single pool dispatch.

   Per-request deadlines stay individual: a task with its own budget
   never joins a group (its outcome could diverge - shed or time out
   that task alone, never the whole batch). *)
(* One distributed execution: scatter through the coordinator's
   dispatcher, adopt the merged rows as the answer and the summed
   per-worker counters as the task's sink (so the reply's "counters"
   and the lifetime merge are byte-identical to a single-process
   sharded run).  A dispatch-level failure - an [Error] reply or a
   transport exception - falls back to ordinary local execution,
   counted in [serve.dist.fallbacks] and per cause in
   [serve.dist.fallbacks.<cause>]; any other exception propagates.
   Per-worker failures never surface here (the coordinator absorbs
   them and reports [d_degraded]). *)
let execute_dist t disp (task : task) db =
  let t0 = Unix.gettimeofday () in
  let fall_back cause =
    incr t "serve.dist.fallbacks";
    incr t ("serve.dist.fallbacks." ^ cause);
    execute ?pool:t.config.pool task db
  in
  match
    disp.dispatch_query ~text:task.canonical
      ~engine:task.plan.Planner.engine
  with
  | Ok o ->
      List.iter (fun (k, v) -> Metrics.add task.sink k v) o.d_counters;
      task.degraded <- o.d_degraded;
      if o.d_degraded then incr t "serve.dist.degraded";
      task.outcome <-
        Answered { attributes = o.d_attributes; rows = o.d_rows };
      task.elapsed_ms <-
        Float.round ((Unix.gettimeofday () -. t0) *. 1e6) /. 1e3
  | Error _ -> fall_back "error"
  | exception Unix.Unix_error _ -> fall_back "unix_error"
  | exception End_of_file -> fall_back "end_of_file"
  | exception Sys_error _ -> fall_back "sys_error"

let run_tasks t (tasks : task list) =
  let db = Catalog.database t.catalog in
  let reps = Hashtbl.create 8 in
  let to_run =
    List.filter
      (fun (task : task) ->
        if Option.is_some task.budget then true
        else
          match Hashtbl.find_opt reps (plan_signature task) with
          | Some _ ->
              task.collapsed <- true;
              Metrics.incr t.metrics "serve.batch.shared";
              false
          | None ->
              Hashtbl.replace reps (plan_signature task) task;
              true)
      tasks
  in
  Metrics.add t.metrics "serve.batch.groups" (List.length to_run);
  (* Distributable slice: unbudgeted sharded WCOJ executions when a
     dispatcher is attached.  Budgeted queries are NEVER distributed -
     they run the identical single-process sharded path locally, so
     timeout partials cannot diverge from a plain [--shards K] server.
     Scatters run sequentially (one wire conversation at a time); the
     rest of the window keeps its pool fan-out. *)
  let dist, local =
    match t.dispatcher with
    | Some _ ->
        List.partition
          (fun (task : task) -> task.budget = None && task.shards > 1)
          to_run
    | None -> ([], to_run)
  in
  (match t.dispatcher with
  | Some disp -> List.iter (fun task -> execute_dist t disp task db) dist
  | None -> ());
  (match local with
  | [] -> ()
  | [ task ] -> execute ?pool:t.config.pool task db
  | local -> (
      match t.config.pool with
      | Some pool when Pool.size pool > 1 ->
          let arr = Array.of_list local in
          Pool.run pool ~chunks:(Array.length arr) (fun i -> execute arr.(i) db)
      | _ -> List.iter (fun task -> execute ?pool:t.config.pool task db) local));
  List.iter
    (fun (task : task) ->
      if task.collapsed then begin
        let rep = Hashtbl.find reps (plan_signature task) in
        task.outcome <- rep.outcome;
        task.degraded <- rep.degraded;
        task.elapsed_ms <- 0.0
      end)
    tasks

(* Process a window in order.  Phase A prepares each item sequentially,
   accumulating uncached queries; barriers (mutations, stats, shutdown)
   and the end of the window flush the accumulated run - phase B
   executes it (possibly pool-parallel), phase C records outcomes and
   fills the reply slots.  Replies come back in item order. *)
let process t (items : item list) =
  let gc_majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let gc_t0 = Unix.gettimeofday () in
  let n = List.length items in
  let slots = Array.make n None in
  let pending = ref [] (* (slot index, task), newest first *) in
  let flush () =
    match List.rev !pending with
    | [] -> ()
    | batch ->
        pending := [];
        run_tasks t (List.map snd batch);
        List.iter (fun (i, task) -> slots.(i) <- Some (finish t task)) batch
  in
  List.iteri
    (fun i item ->
      match item with
      | Shed ->
          incr t "serve.overloaded";
          slots.(i) <-
            Some
              (Protocol.overloaded_response ~pending:t.config.max_pending
                 ~max_pending:t.config.max_pending)
      | Bad msg ->
          incr t "serve.requests";
          incr t "serve.errors";
          slots.(i) <- Some (Protocol.error_response msg)
      | Vreject got ->
          incr t "serve.requests";
          incr t "serve.errors";
          incr t "serve.protocol.rejected_version";
          slots.(i) <-
            Some
              (Protocol.unsupported_version_response ~got
                 ~max_supported:t.config.protocol_max)
      | Req (req, req_v) -> (
          let barrier =
            match req with
            | Protocol.Query _ | Protocol.Colsub _ | Protocol.Explain _
            | Protocol.Ping | Protocol.Hello | Protocol.Subquery _ ->
                false
            | Protocol.Load _ | Protocol.Insert _ | Protocol.Delete _
            | Protocol.Drop _ | Protocol.Stats | Protocol.Checkpoint
            | Protocol.Shutdown | Protocol.Partition_load _ | Protocol.Sync _
            | Protocol.Apply _ ->
                true
          in
          if barrier then flush ();
          match prepare t ~req_v req with
          | Ready r -> slots.(i) <- Some r
          | Pending task -> pending := (i, task) :: !pending))
    items;
  flush ();
  (* Pause proxy: when a major collection ran inside this window, its
     cost is buried in the window's wall time - bucket it.  Timing
     counters, so excluded from determinism gates. *)
  let majors =
    (Gc.quick_stat ()).Gc.major_collections - gc_majors0
  in
  if majors > 0 then begin
    Metrics.add t.metrics "serve.gc.major_windows" 1;
    Metrics.add t.metrics "serve.gc.majors_in_windows" majors;
    let ms = (Unix.gettimeofday () -. gc_t0) *. 1000.0 in
    incr t ("serve.gc.pause_ms_" ^ pause_bucket_of ms)
  end;
  Array.to_list
    (Array.map
       (function Some r -> r | None -> Protocol.error_response "internal: unanswered slot")
       slots)

(* --- public entry points --- *)

let submit_window t reqs =
  let items =
    List.mapi
      (fun i r -> if i < t.config.max_pending then Req (r, 1) else Shed)
      reqs
  in
  process t items

let handle t req =
  match submit_window t [ req ] with
  | [ r ] -> r
  | _ -> Protocol.error_response "internal: window of one produced no reply"

(* Parse one line into a window item, applying the version gate: a
   request whose "v" exceeds [protocol_max] is rejected with the
   structured "unsupported_version" error (v >= 3 already failed
   decoding with the generic message). *)
let item_of_line t line =
  match Protocol.request_of_string_ext line with
  | Ok (_, _, rv) when rv > t.config.protocol_max -> Vreject rv
  | Ok (req, ignored, rv) ->
      Metrics.add t.metrics "serve.protocol.ignored_fields"
        (List.length ignored);
      Req (req, rv)
  | Error msg -> Bad msg

let handle_line t line =
  match process t [ item_of_line t line ] with
  | [ r ] -> Json.to_string r
  | _ ->
      Json.to_string
        (Protocol.error_response "internal: window of one produced no reply")

(* --- line-delimited serving over a file descriptor --- *)

type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  bytes : Bytes.t;
  mutable eof : bool;
}

let make_reader fd =
  { fd; buf = Buffer.create 4096; bytes = Bytes.create 4096; eof = false }

let take_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear r.buf;
      Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
      Some line

(* Blocking refill; false once the peer closed. *)
let refill r =
  if r.eof then false
  else begin
    let n = Unix.read r.fd r.bytes 0 (Bytes.length r.bytes) in
    if n = 0 then begin
      r.eof <- true;
      false
    end
    else begin
      Buffer.add_subbytes r.buf r.bytes 0 n;
      true
    end
  end

let rec read_line_block r =
  match take_line r with
  | Some l -> Some l
  | None ->
      if refill r then read_line_block r
      else if Buffer.length r.buf > 0 then begin
        let l = Buffer.contents r.buf in
        Buffer.clear r.buf;
        Some l
      end
      else None

(* More input available without blocking? *)
let has_pending r =
  String.contains (Buffer.contents r.buf) '\n'
  || (not r.eof)
     &&
     match Unix.select [ r.fd ] [] [] 0.0 with
     | [ _ ], _, _ -> true
     | _ -> false

let is_blank line = String.trim line = ""

(* Hard cap on shed markers per window, so a firehose client cannot
   grow even the rejection list without bound. *)
let shed_cap = 10_000

let serve_pipe t fd oc =
  let r = make_reader fd in
  let rec loop () =
    if not t.shutdown then
      match read_line_block r with
      | None -> ()
      | Some first when is_blank first -> loop ()
      | Some first ->
          let items = ref [] and accepted = ref 0 and shed = ref 0 in
          let add line =
            if not (is_blank line) then
              if !accepted < t.config.max_pending then begin
                Stdlib.incr accepted;
                items := item_of_line t line :: !items
              end
              else begin
                Stdlib.incr shed;
                items := Shed :: !items
              end
          in
          add first;
          let rec drain () =
            if !shed < shed_cap && has_pending r then
              match read_line_block r with
              | Some line ->
                  add line;
                  drain ()
              | None -> ()
          in
          drain ();
          List.iter
            (fun reply ->
              output_string oc (Json.to_string reply);
              output_char oc '\n')
            (process t (List.rev !items));
          flush oc;
          loop ()
  in
  loop ()

let serve_tcp ?(host = "127.0.0.1") t ~port =
  let addr = Unix.inet_addr_of_string host in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (addr, port));
  Unix.listen sock 16;
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      let rec accept_loop () =
        if not t.shutdown then begin
          let conn, _ = Unix.accept sock in
          let oc = Unix.out_channel_of_descr conn in
          (try serve_pipe t conn oc with Unix.Unix_error _ | Sys_error _ -> ());
          (try flush oc with Sys_error _ -> ());
          (try Unix.close conn with Unix.Unix_error _ -> ());
          accept_loop ()
        end
      in
      accept_loop ())
