(** Generic Join (Ngo-Porat-Re-Rudra): the worst-case-optimal join of
    Theorem 3.3.  Per variable, the candidate values are the
    intersection of every relevant atom's value set, enumerated from the
    smallest set - the step that caps total work at O(N^{rho*}).

    The engine works over columnar tries with galloping seeks and an
    allocation-free state stack.  It is sequential: the reference
    oracle whose answers and counters the compiled tier
    ({!Compile}, which holds the Domain-parallel and sharded drivers)
    reproduces on every driver.  A [ctx] pool is ignored.

    Resource governance: a budget is ticked once per enumerated
    leader key (the unit the O(N^{rho*}) accounting charges), raising
    {!Lb_util.Budget.Budget_exhausted} when spent.  The metrics sink
    receives the per-call [generic_join.intersections] /
    [generic_join.emitted] deltas (also when the run is cut short) and
    one [generic_join.trie_builds] tick per execution context built.

    Execution resources are passed as a single [?ctx]
    ({!Lb_util.Exec.t}); see {!Lb_util.Exec.make}. *)

type counters = { mutable intersections : int; mutable emitted : int }

val fresh_counters : unit -> counters

(** Iterate all answers; [f] receives the assignment parallel to the
    variable [order] (default: attributes in order of first appearance).
    The array is reused between calls; raise inside [f] to stop. *)
val iter :
  ?order:string array ->
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  (int array -> unit) ->
  unit

(** Materialize the answer (schema = the variable order). *)
val answer :
  ?order:string array ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  Relation.t

(** Count the answers. *)
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

(** The Boolean join query: stop at the first answer.  Only the [ctx]
    budget applies; no counters are recorded. *)
val exists :
  ?order:string array ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  bool
