(** General CSP backtracking: MRV variable selection, forward checking
    on binary constraints, optional AC-3 preprocessing; non-binary
    constraints are checked once fully assigned.  The generic search
    whose worst-case exponential behaviour the lower bounds of
    Sections 5-7 say cannot be avoided. *)

type stats = { mutable nodes : int; mutable prunings : int }

val fresh_stats : unit -> stats

type binary_index

(** Intersected per-ordered-pair allowed-value tables. *)
val build_binary_index : Csp.t -> binary_index

val pair_allowed : binary_index -> int -> int -> int -> int -> int -> bool

(** AC-3 over the binary index, pruning the domain bitsets in place;
    [false] on a domain wipeout. *)
val ac3 : Csp.t -> binary_index -> Lb_util.Bitset.t array -> bool

(** Iterate all solutions (assignment array reused; raise to stop).
    Ticks [budget] once per search node and per value attempt; raises
    {!Lb_util.Budget.Budget_exhausted} when it runs out, with [stats]
    filled to that point.  [metrics] receives per-call
    [csp_solver.nodes] / [csp_solver.prunings].  Both come from [?ctx]
    ({!Lb_util.Exec.t}, default {!Lb_util.Exec.default}). *)
val iter_solutions :
  ?stats:stats ->
  ?ctx:Lb_util.Exec.t ->
  ?use_ac3:bool ->
  Csp.t ->
  (int array -> unit) ->
  unit

exception Found of int array

val solve :
  ?stats:stats ->
  ?ctx:Lb_util.Exec.t ->
  ?use_ac3:bool ->
  Csp.t ->
  int array option

val count :
  ?stats:stats ->
  ?ctx:Lb_util.Exec.t ->
  ?use_ac3:bool ->
  Csp.t ->
  int

(** Non-raising forms: budget exhaustion reified as
    [Exhausted] - the typed "unknown" verdict. *)
val solve_bounded :
  ?stats:stats ->
  ?ctx:Lb_util.Exec.t ->
  ?use_ac3:bool ->
  Csp.t ->
  int array option Lb_util.Budget.outcome

val count_bounded :
  ?stats:stats ->
  ?ctx:Lb_util.Exec.t ->
  ?use_ac3:bool ->
  Csp.t ->
  int Lb_util.Budget.outcome
