(** The server's mutable catalog: a named set of relations, each stored
    as a {!Lb_relalg.Delta_trie} master copy so small writes apply as
    delta batches instead of full rebuilds, with a global version
    counter (+1 per successful mutation) plus a per-relation version
    vector.  The global version keys batch grouping; the per-relation
    versions are the provenance the IVM layer stamps cached answers
    with, so cached results survive writes to unrelated relations.

    The catalog knows nothing of sharding: each relation is stored
    twice, as sorted rows and as its delta trie.  A sharded query
    splits its bound atoms per execution from the immutable
    {!database} snapshot ({!Lb_relalg.Shard.view}), so writes maintain
    no partitions. *)

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

(** [(side tries, delta rows, lifetime compactions)] of a stored
    relation's delta trie; [None] for unknown names. *)
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

(** Add tuples to an existing relation via its delta trie.
    [Ok (cardinality, added)]: the grown relation's cardinality and the
    {e effective} rows (sorted, duplicate-free - already-present rows
    are dropped), which is exactly the delta IVM maintenance needs. *)
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
    snapshot keep matching.

    [tries] is the mapped-image fast path ({!Snapshot.read_image}): a
    supplied trie whose attrs and row count match the snapshot relation
    is adopted as the storage base directly - no sort, no
    columnarization, levels left wherever the supplier put them (an
    mmap'd region stays mapped).  Shape mismatches silently fall back
    to the ordinary build, so a stale or hand-edited sidecar can slow
    recovery but never corrupt it.  Returns the number of relations
    that took the fast path. *)
val restore :
  ?tries:(string -> Lb_relalg.Trie.t option) ->
  t ->
  version:int ->
  (string * string array * int array array * int) list ->
  int
