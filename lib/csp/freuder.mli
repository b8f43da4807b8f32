(** Freuder's algorithm (Theorem 4.2): dynamic programming over a tree
    decomposition of the primal graph, in O(|V| . |D|^{k+1}) at width k.
    Tables carry subtree solution counts, so one pass answers decision,
    counting and witness extraction.  Counts saturate at [count_cap] so
    decisions stay correct beyond the int range.

    Every entry point ticks [budget] once per enumerated bag assignment
    (the |D|^{k+1} cost unit) and raises
    {!Lb_util.Budget.Budget_exhausted} when it runs out; the [*_bounded]
    forms reify that as [Exhausted].  [metrics] receives [freuder.bags]
    and [freuder.bag_assignments].  Both come from [?ctx]
    ({!Lb_util.Exec.t}, default {!Lb_util.Exec.default}). *)

val count_cap : int

type tables

(** Decompose the primal graph (exact treewidth for small instances,
    heuristic otherwise). *)
val decompose : Csp.t -> Lb_graph.Tree_decomposition.t

(** Run the DP.  Raises [Invalid_argument] if the supplied decomposition
    does not cover some constraint scope. *)
val run :
  ?decomposition:Lb_graph.Tree_decomposition.t ->
  ?ctx:Lb_util.Exec.t ->
  Csp.t ->
  tables

(** Number of solutions (exact below [count_cap], saturated above). *)
val count :
  ?decomposition:Lb_graph.Tree_decomposition.t ->
  ?ctx:Lb_util.Exec.t ->
  Csp.t ->
  int

val solvable :
  ?decomposition:Lb_graph.Tree_decomposition.t ->
  ?ctx:Lb_util.Exec.t ->
  Csp.t ->
  bool

(** Extract one solution by walking the tables top-down. *)
val solve :
  ?decomposition:Lb_graph.Tree_decomposition.t ->
  ?ctx:Lb_util.Exec.t ->
  Csp.t ->
  int array option

val count_bounded :
  ?decomposition:Lb_graph.Tree_decomposition.t ->
  ?ctx:Lb_util.Exec.t ->
  Csp.t ->
  int Lb_util.Budget.outcome

val solve_bounded :
  ?decomposition:Lb_graph.Tree_decomposition.t ->
  ?ctx:Lb_util.Exec.t ->
  Csp.t ->
  int array option Lb_util.Budget.outcome
