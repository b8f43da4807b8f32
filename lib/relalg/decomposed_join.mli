(** Join evaluation through a (fractional hypertree) decomposition: each
    bag is materialized with a worst-case-optimal join (bounded by
    N^{rho*(bag)}, Theorem 3.1) and the bags - an acyclic query whose
    join tree is the decomposition tree - are finished by Yannakakis.
    Evaluates bounded-fhw cyclic queries in polynomial time: strictly
    more than bounded treewidth, strictly more than acyclicity.

    The planner's decomposition route runs through {!race}, which
    calls {!answer} only when a budgeted flat join runs out.  {!answer}: [ctx]
    governs every bag join and the final Yannakakis pass (budget ticks
    at the engines' usual charging points, [decomposed_join.bags] /
    [decomposed_join.bag_tuples] counters plus the engines' own), and
    [~compile:true] lowers each bag's WCOJ through {!Compile}
    (bit-identical to the interpreted path). *)

type stats = {
  width : int;  (** bag size - 1 of the decomposition used *)
  max_bag_tuples : int;
}

(** Tree decomposition of the query's primal graph (exact treewidth when
    small). *)
val default_decomposition : Query.t -> Lb_graph.Tree_decomposition.t

(** Materialize one bag: worst-case-optimal join of the atoms
    intersecting it, each projected to the bag. *)
val bag_relation :
  ?ctx:Lb_util.Exec.t ->
  ?compile:bool ->
  Database.t ->
  Query.t ->
  string array ->
  int array ->
  Relation.t

(** Full answer plus bag statistics. *)
val answer :
  ?ctx:Lb_util.Exec.t ->
  ?compile:bool ->
  ?decomposition:Lb_graph.Tree_decomposition.t ->
  Database.t ->
  Query.t ->
  Relation.t * stats

(** Boolean answer: bag materialization + the semijoin reducer only. *)
val boolean_answer :
  ?ctx:Lb_util.Exec.t ->
  ?compile:bool ->
  ?decomposition:Lb_graph.Tree_decomposition.t ->
  Database.t ->
  Query.t ->
  bool

(** Which route answered a {!race}: the flat WCOJ within its budget, or
    the bags after it ran out (with their statistics). *)
type verdict = Flat | Bags of stats

(** The race's tick budget B for a decomposition: the sum over its bags
    of N^{rho*(bag)} ({!Lb_hypergraph.Fhw.bag_cover}), with N the
    largest relation the query reads (at least 1), rounded and clamped
    to [[1, max_int]]. *)
val race_budget :
  Lb_graph.Tree_decomposition.t -> Database.t -> Query.t -> int

(** The evidence race behind the planner's decomposition route.  The
    flat compiled WCOJ (Leapfrog when every atom has arity <= 2,
    Generic Join otherwise) runs first on the sequential driver, under
    a {!Lb_util.Budget.child} of [ctx]'s budget holding {!race_budget}
    ticks; only if that child's limit fires does {!answer} materialize
    the bags (compiled, under [ctx], pool included).  The verdict
    depends on the data alone: not on the pool, not on the clock.
    Exhaustion of [ctx]'s own budget propagates as
    {!Lb_util.Budget.Budget_exhausted}.  Counters: [decomposed.race.budget]
    (B), exactly one of [decomposed.race.flat] / [decomposed.race.bags]
    set to 1, and the flat attempt's [leapfrog.*] or [generic_join.*]
    counters. *)
val race :
  ?ctx:Lb_util.Exec.t ->
  ?decomposition:Lb_graph.Tree_decomposition.t ->
  Database.t ->
  Query.t ->
  Relation.t * verdict
