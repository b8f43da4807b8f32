(** Incremental maintenance of cached join-query answers.

    Contract: a maintained answer is {e byte-identical} to the full
    recompute's canonical answer - the result cache with IVM enabled is
    observationally equal to one flushed and refilled on every write.

    Inserts apply the per-occurrence delta rule (correct under
    self-joins); deletes compute the candidate rows losing a derivation
    and re-derive survivors with the original query constrained by a
    full-cover candidate atom - which keeps acyclic queries acyclic, so
    every engine remains eligible for the maintenance queries. *)

(** Canonical answer: the query's attribute order, rows sorted
    lexicographically. *)
type answer = { attributes : string array; rows : int array array }

(** How maintenance queries are evaluated; any engine works - canonical
    answers are engine-independent. *)
type runner = Lb_relalg.Database.t -> Lb_relalg.Query.t -> Lb_relalg.Relation.t

(** Project to the query's attributes and sort rows. *)
val canonical : Lb_relalg.Query.t -> Lb_relalg.Relation.t -> answer

(** Merge of two sorted duplicate-free row arrays, one linear pass
    that shares the input rows; [a] itself when [b] is empty (also the
    catalog's write merge). *)
val union_rows : int array array -> int array array -> int array array

(** The rows of [a] not in [b], both sorted and duplicate-free; [a]
    itself when [b] is empty. *)
val diff_rows : int array array -> int array array -> int array array

(** [insert_maintain ~runner ~db_old ~db_new ~name ~delta q ans] is the
    canonical answer of [q] on [db_new], computed from the cached [ans]
    (its answer on [db_old]) plus the delta-rule terms over [delta] -
    the {e effective} rows added to [name] (sorted, duplicate-free, as
    {!Catalog.insert} reports them, wrapped in a relation with the
    stored schema). *)
val insert_maintain :
  runner:runner ->
  db_old:Lb_relalg.Database.t ->
  db_new:Lb_relalg.Database.t ->
  name:string ->
  delta:Lb_relalg.Relation.t ->
  Lb_relalg.Query.t ->
  answer ->
  answer

(** Same for the effective rows removed from [name]. *)
val delete_maintain :
  runner:runner ->
  db_old:Lb_relalg.Database.t ->
  db_new:Lb_relalg.Database.t ->
  name:string ->
  delta:Lb_relalg.Relation.t ->
  Lb_relalg.Query.t ->
  answer ->
  answer
