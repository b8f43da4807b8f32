(** The plan compilation tier: lower a WCOJ plan to a monomorphic loop
    nest over flat int arrays, cached by plan signature.  It is the one
    production WCOJ driver - sequential, Domain-parallel, sharded, and
    the distributed slices workers execute ({!subset}) - with two
    intersection kernels: Generic Join's min-leader probe and
    Leapfrog's agreement loop.

    A compiled plan ({!ir}) is the schema-level half of a
    worst-case-optimal join: for each variable of the global order, the
    flat list of (atom, trie depth) bindings participating at that
    level.  It depends only on the query text and the order - never on
    the data - so the query service keeps it in the plan LRU (charged
    by {!weight}) and reuses it across executions and batch windows.
    Per execution, the IR is resolved against freshly built tries and
    run by a monomorphic interpreter: direct column pointers,
    [Array.unsafe_get] on the hot path, no closures or option matches
    per column access.

    Contract: the interpreted {!Generic_join} / {!Leapfrog} engines are
    the sequential reference.  Answers and work-counter totals equal
    theirs on every driver (sequential, Domain-parallel, sharded, and
    summed over a cover of distributed slices); the sequential driver
    also matches their budget-tick placement, including the partial
    counters a mid-query budget exhaustion leaves behind.  Counters
    report to the reference's metric names ([generic_join.*] /
    [leapfrog.*]). *)

type engine = Generic | Leapfrog

(** ["generic_join"] / ["leapfrog"] - the planner's vocabulary. *)
val engine_name : engine -> string

(** Unified work counters: [work] counts enumerated leader keys under
    {!Generic} (= [Generic_join.counters.intersections]) and seeks
    under {!Leapfrog} (= [Leapfrog.counters.seeks]). *)
type counters = { mutable work : int; mutable emitted : int }

val fresh_counters : unit -> counters

(** The compiled plan: flat level tables.  Level [l] of the loop nest
    binds variable [order.(l)] through slots
    [lv_off.(l) .. lv_off.(l+1) - 1] of [lv_atom] (participating atom
    id, ascending) and [lv_depth] (that atom's trie depth for the
    level).  Treat as immutable. *)
type ir = private {
  engine : engine;
  order : string array;
  nvars : int;
  natoms : int;
  rels : string array;
  lv_off : int array;
  lv_atom : int array;
  lv_depth : int array;
}

(** [lower ~engine q] compiles [q] against the global variable order
    (default: attributes in first-appearance order, the engines'
    default).  Pure schema work - no tries are built.  Raises
    [Invalid_argument] if an attribute is missing from the order or a
    variable appears in no atom. *)
val lower : engine:engine -> ?order:string array -> Query.t -> ir

(** Cache charge of an IR: the number of ints in its flat tables. *)
val weight : ir -> int

(** Human-readable dump of the loop nest, one line per level. *)
val describe : ir -> string list

(** Count the answers.  [ctx]'s pool runs the Domain-parallel driver,
    its budget is ticked at the engine's charging points, and its
    metrics sink receives the usual per-call deltas. *)
val count :
  ?counters:counters -> ?ctx:Lb_util.Exec.t -> ir -> Database.t -> Query.t ->
  int

(** [count] with budget exhaustion reified as [Exhausted]. *)
val count_bounded :
  ?counters:counters -> ?ctx:Lb_util.Exec.t -> ir -> Database.t -> Query.t ->
  int Lb_util.Budget.outcome

(** Materialize the answer (schema = the IR's variable order). *)
val answer : ?ctx:Lb_util.Exec.t -> ir -> Database.t -> Query.t -> Relation.t

(** {2 Sharded execution}

    The sharded driver hash-partitions every atom containing the first
    variable of the order into [shards] co-partitioned pieces
    ({!Shard.view}) and runs one resolved machine per shard, fanned out
    on [ctx]'s pool with a 2x-mean skew split.  The level-0 loop is
    emulated over the merged per-shard key streams, so answers and
    counter totals equal the unsharded run's.  The view is built per
    execution from the database snapshot the driver is given: each
    bound atom splits in one pass with no per-shard sort, so no
    partition outlives the query. *)

(** Which slice of the sharded run this process executes.  [owned s]
    selects the shards whose deep-level work (and counters, emitted
    rows, heavy-split expansion) this participant performs; [lead]
    marks the one participant that accounts the shared level-0 stream
    emulation, its budget ticks and the logical [*.trie_builds] tick.
    Over a cover of participants - every shard owned exactly once,
    exactly one lead - the reported counters sum to the
    single-process sharded totals bit for bit.  The default,
    {!all_shards}, owns everything and leads: the single-process case.
    Ignored when the variable order is empty (the unsharded fallback
    runs whole). *)
type subset = { owned : int -> bool; lead : bool }

val all_shards : subset

(** Materialize the answer through the sharded driver. *)
val run_sharded :
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  ?subset:subset ->
  shards:int ->
  ir ->
  Database.t ->
  Query.t ->
  Relation.t

(** Count the answers through the sharded driver. *)
val count_sharded :
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  ?subset:subset ->
  shards:int ->
  ir ->
  Database.t ->
  Query.t ->
  int
