(** The `lbt serve` server: a long-lived catalog plus a request
    processor with a structure-aware planner, plan/result LRU caches,
    per-request budgets, admission control, and metrics.

    Requests are processed in {e windows}: the pipe/TCP front end
    drains every immediately-available line into a window of at most
    [max_pending] requests and sheds the excess with
    ["status":"overloaded"] replies - a bounded queue, never unbounded
    buffering.  Within a window, consecutive read-only requests whose
    answers are not cached execute concurrently on the configured
    {!Lb_util.Pool}; catalog mutations, [stats], and [shutdown] are
    barriers.  Cache and catalog state is touched only from the
    sequential phases, so the shared {!Lb_util.Lru} caches need no
    locking.  Responses always come back in request order.

    Batch scheduling: within a window, compatible requests - same
    catalog version and canonical query under the same engine - form
    one evaluation batch sharing a single trie build and one pool
    dispatch; [serve.batch.groups] counts the executions actually run
    and [serve.batch.shared] the requests answered by their group's
    representative.  A request carrying its own budget never joins a
    group: deadlines are enforced individually, so one member timing
    out can never take the batch down with it.

    Caching: a plan cache (canonical query text + engine choice ->
    plan) and a result cache (canonical query text -> sorted answer
    with provenance).  Every cached answer carries the per-relation
    {e version vector} it was computed against and serves only while
    that vector matches the catalog, so a stale answer cannot leak even
    if maintenance missed it.  Cached answers are reported with
    ["cached":true].

    Writes and IVM: [insert]/[delete] apply to the catalog's delta
    tries ({!Lb_relalg.Delta_trie} - no full rebuild) and then
    {e maintain} affected cached
    answers through the delta rules in {!Ivm} instead of flushing them
    - byte-identical to a recompute, counted by [serve.ivm.maintained]
    / [serve.ivm.refreshed] / [serve.ivm.invalidated] /
    [serve.ivm.untouched].  [load] and [drop] invalidate the affected
    entries; [--no-ivm] ([config.ivm = false]) turns every write into
    an invalidation.  Plan-cache entries of queries reading the written
    relation are retired ([serve.ivm.plan_invalidations]).

    Durability: with [config.data_dir], every successful mutation is
    appended to a CRC-framed, fsynced WAL ({!Wal}) before the reply,
    and every [config.snapshot_every] records - plus on [checkpoint]
    and clean [shutdown] - the catalog {e and} the result cache are
    checkpointed atomically ({!Snapshot}) and the WAL reset.  [create]
    recovers by restoring the snapshot and replaying WAL records past
    it through the ordinary mutation path, so a restarted server
    serves byte-identical answers with warm caches; torn or corrupt
    WAL tails are truncated ([serve.wal.repaired]), never fatal.

    Compilation: WCOJ plans carry their {!Lb_relalg.Compile} IR - the
    plan lowered once to a monomorphic loop nest - and every WCOJ
    execution (planned queries, IVM maintenance, a worker's
    distributed slices) runs the compiled drivers.  The IR lives in the
    plan cache (entries charged by {!Lb_relalg.Compile.weight}), so
    repeated queries skip lowering entirely: [serve.compile.misses]
    counts plans lowered, [serve.compile.hits] compiled plans reused
    from cache.

    Determinism: answers are projected to the query's attribute order
    and sorted lexicographically, so equal queries produce
    byte-identical ["rows"] regardless of the engine that ran them. *)

type config = {
  max_pending : int;  (** admission-control bound per window *)
  plan_cache_size : int;
  result_cache_size : int;
  default_timeout_ms : int option;  (** per-request wall-clock budget *)
  default_max_ticks : int option;  (** per-request deterministic budget *)
  max_rows : int;  (** cap on rows returned in one reply *)
  pool : Lb_util.Pool.t option;  (** engine / window parallelism *)
  shards : int;
      (** [> 1] runs WCOJ queries through the sharded driver
          ({!Lb_relalg.Compile.run_sharded}), which splits each bound
          atom of the catalog snapshot per query; answers and counters
          are bit-identical to unsharded runs.  1 = off. *)
  ivm : bool;
      (** maintain cached results across writes via {!Ivm}; [false]
          (`--no-ivm`) invalidates instead. *)
  data_dir : string option;
      (** durability root (snapshot + WAL); [None] = in-memory only. *)
  snapshot_every : int;
      (** checkpoint after this many WAL records (min 1). *)
  snapshot_bytes : int option;
      (** also checkpoint whenever the WAL file exceeds this many
          bytes (`--snapshot-bytes`); each trip is counted as
          [serve.wal.snapshot_bytes_trips].  [None] = record-count
          policy only. *)
  protocol_max : int;
      (** highest request ["v"] accepted on the wire
          ({!Protocol.version} = classic serve; {!Protocol.max_version}
          additionally enables the worker-facing ops [subquery] /
          [partition_load] / [sync] / [apply]).  A line whose ["v"]
          exceeds this is rejected with the structured
          [unsupported_version] error and counted as
          [serve.protocol.rejected_version]. *)
}

(** 64 pending, 256-entry plan cache, 128-entry result cache, no
    default budgets, 10_000 returned rows, no pool, 1 shard,
    compilation on, IVM on, no data dir, snapshot every 64 records,
    [protocol_max] = {!Protocol.version} (v2 ops off). *)
val default_config : config

(** Result of a distributed scatter adopted as a task's answer: merged
    sorted rows, summed per-worker engine counters, and whether a dead
    worker's shards were absorbed locally (the reply then carries
    ["status":"degraded"] - still a complete, byte-identical answer). *)
type dispatch_outcome = {
  d_attributes : string array;
  d_rows : int array array;
  d_counters : (string * int) list;
  d_degraded : bool;
}

(** Injected by {!Coordinator.attach}: scatters unbudgeted WCOJ reads
    across worker replicas and fans catalog mutations out to them.
    [dispatch_query] returning [Error] or raising a transport failure
    ([Unix.Unix_error], [End_of_file], [Sys_error]) falls back to
    ordinary local execution, counted in [serve.dist.fallbacks] and per
    cause in [serve.dist.fallbacks.error] / [.unix_error] /
    [.end_of_file] / [.sys_error]; any other exception propagates. *)
type dispatcher = {
  dispatch_query :
    text:string -> engine:Planner.engine -> (dispatch_outcome, string) result;
  notify_mutation : version:int -> Wal.record -> unit;
}

type t

val create : ?config:config -> unit -> t

(** Attach the coordinator side of the distributed tier (set after
    [create]; the coordinator needs the server to execute local
    fallbacks). *)
val set_dispatcher : t -> dispatcher -> unit

(** Execute one scatter slice locally: the compiled sharded WCOJ
    driver over shard [view]s, deep-executing only the [owned] shard
    indices, with level-0 counters recorded iff [lead].  An [owned]
    index outside [\[0, shards)] is rejected with an error reply
    (counted in [serve.errors]).  Returns the
    full [subquery] reply ({!Protocol.ok_fields_v2}) - the same shape a
    remote worker would send - so the coordinator has one merge path
    for live and absorbed slices. *)
val exec_subquery :
  t ->
  text:string ->
  engine:string ->
  shards:int ->
  owned:int list ->
  lead:bool ->
  Json.t

val catalog : t -> Catalog.t

(** Server-lifetime metrics sink ([serve.*] counters plus merged
    per-request engine counters). *)
val metrics : t -> Lb_util.Metrics.t

(** Set once a [shutdown] request has been processed. *)
val shutdown_requested : t -> bool

(** Process one request (a window of one). *)
val handle : t -> Protocol.request -> Json.t

(** Parse one line and process it; never raises - malformed input
    becomes a ["status":"error"] reply. *)
val handle_line : t -> string -> string

(** Process a window in request order, applying admission control:
    requests beyond [max_pending] are shed with
    ["status":"overloaded"]. *)
val submit_window : t -> Protocol.request list -> Json.t list

(** Serve line-delimited JSON from a file descriptor, writing replies
    (one line each, in order) to the channel.  Returns on EOF or after
    [shutdown]. *)
val serve_pipe : t -> Unix.file_descr -> out_channel -> unit

(** Accept TCP connections (one at a time) on [host]:[port], serving
    each with {!serve_pipe} until a [shutdown] request arrives. *)
val serve_tcp : ?host:string -> t -> port:int -> unit
