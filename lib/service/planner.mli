(** The structure-aware planner: choose an evaluation engine for a join
    query from the structural parameters the paper shows are decisive -
    acyclicity (Yannakakis, O(input + output)), rho* (worst-case-optimal
    joins at N^{rho*}), fractional hypertree width (decomposition +
    bag materialization at N^{fhw} when fhw beats rho-star), and per-prefix
    AGM exponents (what a binary hash plan risks materializing).

    The choice is deterministic and explainable: every plan carries its
    predicted exponent, both structural bounds (rho* and fhw) and the
    fhw-vs-rho* route verdict, reusing the {!Lowerbounds.Bounds} /
    {!Lowerbounds.Advisor} vocabulary. *)

type engine =
  | Yannakakis  (** acyclic only: semijoin reduction + bottom-up joins *)
  | Generic_join  (** WCOJ, variable-at-a-time intersections *)
  | Leapfrog  (** WCOJ, sorted-stream leapfrogging *)
  | Binary_hash  (** left-deep hash joins in a greedy order *)
  | Decomposed
      (** fractional hypertree decomposition: WCOJ per bag + Yannakakis
          over the join tree ({!Lb_relalg.Decomposed_join}) *)

(** Protocol identifier: ["yannakakis"], ["generic_join"],
    ["leapfrog"], ["binary_hash"], ["decomposed"]. *)
val engine_name : engine -> string

val engine_of_name : string -> (engine, string) result

val all_engines : engine list

type plan = {
  engine : engine;
  forced : bool;  (** the client requested this engine explicitly *)
  acyclic : bool;
  rho_star : float option;
  fhw : float option;
      (** fractional hypertree width, computed (exact up to 8
          attributes, greedy beyond) for cyclic queries with >= 3
          atoms; [None] on shapes where no decomposition route
          exists *)
  predicted_exponent : float;
      (** exponent e of the N^e work/size prediction: 1.0 when acyclic,
          rho* for flat WCOJ engines, fhw for the decomposition route,
          the max prefix-subquery AGM exponent for binary plans *)
  atom_order : int list option;  (** binary plans: the greedy order *)
  decomposition : Lb_graph.Tree_decomposition.t option;
      (** the realizing decomposition ({!engine} = [Decomposed]):
          bags over the query's attribute indices, handed to
          {!Lb_relalg.Decomposed_join.answer} *)
  compiled : Lb_relalg.Compile.ir option;
      (** WCOJ engines: the plan lowered to a monomorphic loop nest
          ({!Lb_relalg.Compile}); schema-only, so it rides in the plan
          cache.  [None] for other engines or with [~compile:false]
          (executions then lower on the spot).
          The decomposition route instead compiles per bag at
          execution time. *)
  explanation : string list;
}

(** Cost-based choice:
    - acyclic queries run Yannakakis (predicted exponent 1.0);
    - at most two atoms run a direct hash join (nothing to gain from
      tries);
    - cyclic queries whose fhw beats rho* route through decomposition,
      raced on evidence: the flat WCOJ first under the bags' bound
      B = sum of N^{rho*(bag)}, bag materialization at N^{fhw} +
      Yannakakis only if B runs out
      ({!Lb_relalg.Decomposed_join.race}; a forced [Decomposed] plan
      always materializes);
    - remaining cyclic queries of arity <= 2 run Leapfrog, higher
      arities Generic Join - both at the AGM exponent, which the
      greedy binary plan's prefix exponent can only match or exceed.

    [compile] (default [true]) also lowers WCOJ plans to the compiled
    tier; with [~compile:false] the plan carries no IR and an execution
    lowers it itself. *)
val choose :
  ?compile:bool -> Lb_relalg.Database.t -> Lb_relalg.Query.t -> plan

(** Plan for a client-forced engine.  [Error] when the engine cannot
    run the query (Yannakakis on a cyclic query, Decomposed on an
    empty one). *)
val plan_for :
  ?compile:bool ->
  engine ->
  Lb_relalg.Database.t ->
  Lb_relalg.Query.t ->
  (plan, string) result

(** The compiled tier's intersection kernel for a WCOJ engine
    ([Generic_join] / [Leapfrog]); [None] for the other engines. *)
val compile_engine : engine -> Lb_relalg.Compile.engine option

(** The {!Lowerbounds.Advisor} strategy a plan corresponds to, for
    explanation reuse. *)
val advisor_strategy : engine -> Lowerbounds.Advisor.strategy
