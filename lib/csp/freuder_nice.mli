(** Theorem 4.2's DP in introduce/forget/join normal form over a nice
    tree decomposition - an independent implementation cross-checking
    {!Freuder}.  Ticks [budget] once per table entry touched at an
    introduce node (raising {!Lb_util.Budget.Budget_exhausted});
    [metrics] receives [freuder_nice.introduce_entries].  Both come from
    [?ctx] ({!Lb_util.Exec.t}). *)

(** Exact solution count (saturating at {!Freuder.count_cap}). *)
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

val count_bounded :
  ?decomposition:Lb_graph.Tree_decomposition.t ->
  ?ctx:Lb_util.Exec.t ->
  Csp.t ->
  int Lb_util.Budget.outcome
