(** DPLL satisfiability: unit propagation plus branching.  Deliberately
    not CDCL - experiment E8 measures the exponential scaling of
    systematic search that Hypothesis 1 (ETH) is about. *)

type stats = { mutable decisions : int; mutable propagations : int }

val fresh_stats : unit -> stats

type branching =
  | Max_occurrence  (** branch on the variable in most open clauses *)
  | First_unassigned  (** naive static order (ablation A3) *)

(** A satisfying assignment, or [None].  Unconstrained variables default
    to [false].  Ticks [budget] once per decision and per propagated
    unit and raises {!Lb_util.Budget.Budget_exhausted} when it runs out
    ([stats] stays filled to the interruption point); use
    {!solve_bounded} for the non-raising form.  [metrics] receives the
    per-call [dpll.decisions] / [dpll.propagations] counters.  Both come
    from [?ctx] ({!Lb_util.Exec.t}, default {!Lb_util.Exec.default}). *)
val solve :
  ?stats:stats ->
  ?branching:branching ->
  ?ctx:Lb_util.Exec.t ->
  Cnf.t ->
  bool array option

(** [solve] with budget exhaustion reified: [Exhausted] is the
    "unknown" verdict of a run that was cut off. *)
val solve_bounded :
  ?stats:stats ->
  ?branching:branching ->
  ?ctx:Lb_util.Exec.t ->
  Cnf.t ->
  bool array option Lb_util.Budget.outcome

(** Exhaustive model count ([2^n]; tests only). *)
val count_models : Cnf.t -> int
