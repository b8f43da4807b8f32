(** Join evaluation through a (fractional hypertree) decomposition: each
    bag is materialized with a worst-case-optimal join (bounded by
    N^{rho*(bag)}, Theorem 3.1) and the bags - an acyclic query whose
    join tree is the decomposition tree - are finished by Yannakakis.
    Evaluates bounded-fhw cyclic queries in polynomial time: strictly
    more than bounded treewidth, strictly more than acyclicity.

    The planner's decomposition route runs through {!answer}: [ctx]
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
