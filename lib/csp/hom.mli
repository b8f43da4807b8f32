(** The positive side of Theorem 5.3: decide and count homomorphisms
    A -> B via the core and Freuder's treewidth DP - polynomial whenever
    the cores of the inputs have bounded treewidth, which is exactly the
    theorem's tractability frontier. *)

(** HOM(a, b) as a CSP: variables = a's universe, domain = b's universe,
    one constraint per tuple of [a].  Raises on vocabulary mismatch. *)
val to_csp : Lb_structure.Structure.t -> Lb_structure.Structure.t -> Csp.t

(** Decide through core + treewidth DP; the witness is a homomorphism
    from the full structure (retraction composed with the DP's
    witness).  [ctx]'s budget and metrics govern the underlying
    {!Freuder} DP (raising {!Lb_util.Budget.Budget_exhausted} on
    exhaustion). *)
val decide :
  ?ctx:Lb_util.Exec.t ->
  Lb_structure.Structure.t ->
  Lb_structure.Structure.t ->
  int array option

(** Exact homomorphism count by the DP on [a] itself (cores do not
    preserve counts); saturates at {!Freuder.count_cap}. *)
val count :
  ?ctx:Lb_util.Exec.t ->
  Lb_structure.Structure.t ->
  Lb_structure.Structure.t ->
  int

(** Exhaustive count for cross-checks; ticks [ctx]'s budget per
    assignment. *)
val count_bruteforce :
  ?ctx:Lb_util.Exec.t ->
  Lb_structure.Structure.t ->
  Lb_structure.Structure.t ->
  int

(** Non-raising forms: budget exhaustion as the typed [Exhausted]. *)
val decide_bounded :
  ?ctx:Lb_util.Exec.t ->
  Lb_structure.Structure.t ->
  Lb_structure.Structure.t ->
  int array option Lb_util.Budget.outcome

val count_bounded :
  ?ctx:Lb_util.Exec.t ->
  Lb_structure.Structure.t ->
  Lb_structure.Structure.t ->
  int Lb_util.Budget.outcome

(** Treewidth of the core's Gaifman graph - the Theorem 5.3 parameter. *)
val core_treewidth : Lb_structure.Structure.t -> int
