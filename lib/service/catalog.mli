(** The server's mutable catalog: a named set of relations, each stored
    once as its sorted, duplicate-free {!Lb_relalg.Relation.t}, with a
    global version counter (+1 per successful mutation) plus a
    per-relation version vector.  The global version keys batch
    grouping; the per-relation versions are the provenance the IVM
    layer stamps cached answers with, so cached results survive writes
    to unrelated relations.

    A write is one linear merge of the sorted batch into the stored
    rows: it builds a new row array, shares every untouched row with
    the previous version, and never mutates an earlier {!database}
    snapshot.  The catalog knows nothing of sharding: a sharded query
    splits its bound atoms per execution from that immutable snapshot
    ({!Lb_relalg.Shard.view}), so writes maintain no partitions. *)

type t

val create : unit -> t

(** Starts at 0; +1 per successful [load]/[insert]/[delete]/[drop]. *)
val version : t -> int

(** Per-relation version: bumped only by mutations touching [name];
    survives drop (so re-creating a name can never resurrect stale
    cached provenance).  0 for never-touched names. *)
val rel_version : t -> string -> int

(** [(name, rel_version)] for the given names, sorted and deduplicated -
    the provenance stamp for a cached answer over those relations. *)
val version_vector : t -> string list -> (string * int) list

(** [Some (0, 0, 0)] for a stored relation (the catalog keeps no side
    layers, so there are no side tries, delta rows or compactions to
    report); [None] for unknown names.  Kept only for perfbench's
    trace; no server code calls it. *)
val delta_stats : t -> string -> (int * int * int) option

(** The current immutable database snapshot (safe to share across
    domains while mutations are quiesced). *)
val database : t -> Lb_relalg.Database.t

(** Create or replace a relation.  [Ok cardinality] after dedup;
    [Error] on invalid schemas or ragged tuples (version unchanged). *)
val load :
  t ->
  name:string ->
  attrs:string array ->
  int array list ->
  (int, string) result

(** Add tuples to an existing relation by one merge into its sorted
    rows, O(n + d log d) for [n] stored and [d] batch rows.
    [Ok (cardinality, added)]: the grown relation's cardinality and the
    {e effective} rows (sorted, duplicate-free - already-present rows
    are dropped), which is exactly the delta IVM maintenance needs.
    [Error] naming the first ragged tuple leaves everything unchanged. *)
val insert :
  t -> name:string -> int array list -> (int * int array array, string) result

(** Remove tuples; [Ok (cardinality, removed)] with the effective rows
    (absent rows are a no-op, not an error). *)
val delete :
  t -> name:string -> int array list -> (int * int array array, string) result

val drop : t -> name:string -> (unit, string) result

(** [(name, cardinality)] sorted by name. *)
val summary : t -> (string * int) list

(** Snapshot of the whole catalog for durability:
    [(name, attrs, tuples, rel_version)] sorted by name, plus
    {!version} read separately.  Tuples are the stored arrays - callers
    must not mutate them. *)
val dump : t -> (string * string array * int array array * int) list

(** Replace the entire catalog state from a snapshot.  Versions are
    restored, not bumped, so provenance stamps persisted alongside the
    snapshot keep matching.  Rows in {!dump} form (rectangular, sorted,
    duplicate-free) are adopted without a copy; any other rows are
    sorted and deduplicated as {!Lb_relalg.Relation.make} does. *)
val restore :
  t ->
  version:int ->
  (string * string array * int array array * int) list ->
  unit
