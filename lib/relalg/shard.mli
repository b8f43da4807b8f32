(** Hash-partitioned relations: the data layout of the sharded execution
    tier.  A relation is split on one attribute into [k] shards by a
    deterministic integer hash, so every tuple with the same key value
    lands in the same shard — co-partitioning all atoms of a join query
    on the first join variable makes each per-key subproblem local to
    one shard, which is what lets the worst-case-optimal engines fan the
    work out without changing a single counter (the AGM bound is
    oblivious to layout).

    The partition is value-deterministic: [shard_of] depends only on the
    value and [k], never on tuple order or timing, so sharded runs are
    replayable and their merged results byte-stable. *)

(** [shard_of ~k v] is the shard index in [0, k)] of key value [v];
    deterministic, and the single definition every layer (engines,
    distributed workers, tests) must agree on.  [k <= 1] always
    yields 0. *)
val shard_of : k:int -> int -> int

(** [partition ~k ~attr rel] splits [rel] into [k] shards on attribute
    [attr] (raises [Invalid_argument] if missing or [k < 1]).  Every
    tuple appears in exactly shard [shard_of ~k] of its [attr] value;
    schemas are shared.  One linear pass: each shard keeps its tuples
    in [rel]'s order, so the shards of a sorted relation (every one
    {!Relation.make} or {!Query.bind_atom} builds) are sorted with no
    re-sort. *)
val partition : k:int -> attr:string -> Relation.t -> Relation.t array

(** Deterministic union of per-shard results: k-way merge of the
    shards' sorted, duplicate-free, mutually disjoint tuple arrays into
    one array, with no re-sort.  All shards must share the first
    shard's schema.  Raises [Invalid_argument] when the merged rows are
    not strictly increasing (an unsorted shard, or a row in two
    shards), on a schema mismatch, and on no shards. *)
val merge_sorted : Relation.t array -> Relation.t

(** A query's atoms partitioned for execution: atoms containing the
    partition attribute are split into [k] co-partitioned pieces; the
    rest stay whole and are shared by every shard's subproblem. *)
type part =
  | Whole of Relation.t  (** atom does not contain the partition attribute *)
  | Parts of Relation.t array  (** [k] shards, co-partitioned *)

type view = {
  attr : string;  (** the partition attribute *)
  k : int;
  parts : part array;  (** per atom, in query order *)
}

(** [view ~attr ~k db q] binds each atom of [q] (as the engines do) and
    {!partition}s the ones containing [attr].  Bound atoms are sorted
    and duplicate-free, so the split is one pass with no per-shard
    sort.  Raises like {!Query.bind_atom} on unknown relations or arity
    mismatches, and [Invalid_argument] if [attr] appears in no atom or
    [k < 1]. *)
val view : attr:string -> k:int -> Database.t -> Query.t -> view

(** Merged view of one partitioned atom's depth-0 key streams: the
    engines' level-0 loops (leader enumeration, probes, leapfrogging)
    must see the {e full} key sequence to replicate the unsharded run's
    counters bit-for-bit, but after partitioning the keys live in [k]
    separate sorted columns.  A stream keeps one galloping cursor per
    shard column and exposes the merged ascending view. *)
module Stream : sig
  type t

  (** [make cols] over the per-shard sorted depth-0 columns. *)
  val make : Lb_util.Column.t array -> t

  val exhausted : t -> bool

  (** Smallest current key across non-exhausted shard cursors.
      Undefined when {!exhausted}. *)
  val cur : t -> int

  (** Total remaining plus consumed length — the full column length, for
      leader selection. *)
  val total : t -> int

  (** Advance every shard cursor to its first key [>= v] / [> v]. *)
  val seek_geq : t -> int -> unit

  val advance_gt : t -> int -> unit
end
