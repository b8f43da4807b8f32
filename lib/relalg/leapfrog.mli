(** Leapfrog Triejoin (Veldhuizen): the second worst-case-optimal join
    of Theorem 3.3.  The per-variable intersection leapfrogs sorted key
    streams over columnar tries, seeking each iterator to the current
    maximum by galloping search from its position.  Like
    {!Generic_join} it is sequential: the reference oracle for the
    compiled tier ({!Compile}), which holds the Domain-parallel and
    sharded drivers.  A [ctx] pool is ignored.

    Resource governance mirrors {!Generic_join}: the budget is ticked
    once per agreed key and per seek (raising
    {!Lb_util.Budget.Budget_exhausted} when spent); the metrics sink
    receives the per-call [leapfrog.seeks] / [leapfrog.emitted] deltas
    and one [leapfrog.trie_builds] tick per execution context built.

    As in {!Generic_join}, resources are passed as a single [?ctx]
    ({!Lb_util.Exec.t}); see {!Lb_util.Exec.make}. *)

type counters = { mutable seeks : int; mutable emitted : int }

val fresh_counters : unit -> counters

(** Same contract as {!Generic_join.iter}. *)
val iter :
  ?order:string array ->
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  (int array -> unit) ->
  unit

val answer :
  ?order:string array ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  Relation.t

val count :
  ?order:string array ->
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  int

(** [count] with budget exhaustion reified as [Exhausted]. *)
val count_bounded :
  ?order:string array ->
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  int Lb_util.Budget.outcome

(** Stop at the first answer.  Only the [ctx] budget applies; no
    counters are recorded. *)
val exists :
  ?order:string array ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  bool
