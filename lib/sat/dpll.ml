(* DPLL satisfiability solver.

   Plain DPLL with unit propagation and a most-occurrences branching
   rule.  Deliberately *not* a CDCL solver: experiment E8 measures the
   exponential scaling of systematic search on random 3SAT near the phase
   transition, which is the empirical face of Hypothesis 1 (ETH);
   conflict-driven techniques would move constants, not the exponential
   shape, on uniform random instances.

   Assignments: 0 = unassigned, 1 = true, -1 = false. *)

module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics

type stats = { mutable decisions : int; mutable propagations : int }

let fresh_stats () = { decisions = 0; propagations = 0 }

type branching = Max_occurrence | First_unassigned

let solve ?stats ?(branching = Max_occurrence) ?(ctx = Lb_util.Exec.default) t =
  let budget = ctx.Lb_util.Exec.budget and metrics = ctx.Lb_util.Exec.metrics in
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let n = Cnf.nvars t in
  let clauses = Array.of_list (Cnf.clauses t) in
  let assign = Array.make n 0 in
  (* one tick per decision and per propagated unit: fine enough that a
     wall-clock deadline fires within ~quantum node visits *)
  let tick () = match budget with Some b -> Budget.tick b | None -> () in
  let record_decision () =
    tick ();
    stats.decisions <- stats.decisions + 1
  in
  let record_prop () =
    tick ();
    stats.propagations <- stats.propagations + 1
  in
  let lit_value l =
    let v = Cnf.var_of_lit l in
    let a = assign.(v) in
    if a = 0 then 0 else if Cnf.lit_is_pos l then a else -a
  in
  let clause_status c =
    let unassigned = ref 0 and last = ref 0 and sat = ref false in
    Array.iter
      (fun l ->
        match lit_value l with
        | 1 -> sat := true
        | 0 ->
            incr unassigned;
            last := l
        | _ -> ())
      c;
    if !sat then `Sat
    else if !unassigned = 0 then `Conflict
    else if !unassigned = 1 then `Unit !last
    else `Unresolved
  in
  let undo trail = List.iter (fun v -> assign.(v) <- 0) trail in
  (* Propagate units to fixpoint.  On conflict the partial trail is
     undone here, so callers only see clean failures. *)
  let rec propagate trail =
    let unit_lit = ref None and conflict = ref false in
    Array.iter
      (fun c ->
        if (not !conflict) && !unit_lit = None then
          match clause_status c with
          | `Conflict -> conflict := true
          | `Unit l -> unit_lit := Some l
          | `Sat | `Unresolved -> ())
      clauses;
    if !conflict then begin
      undo trail;
      None
    end
    else
      match !unit_lit with
      | None -> Some trail
      | Some l ->
          record_prop ();
          let v = Cnf.var_of_lit l in
          assign.(v) <- (if Cnf.lit_is_pos l then 1 else -1);
          propagate (v :: trail)
  in
  (* Branch on the unassigned variable occurring in most unsatisfied
     clauses (or simply the first unassigned one; the ablation bench A3
     measures the difference). *)
  let pick_first () =
    let best = ref (-1) in
    (try
       for v = 0 to n - 1 do
         if assign.(v) = 0 then begin
           best := v;
           raise Exit
         end
       done
     with Exit -> ());
    !best
  in
  let pick_max_occurrence () =
    let counts = Array.make n 0 in
    Array.iter
      (fun c ->
        match clause_status c with
        | `Sat -> ()
        | _ ->
            Array.iter
              (fun l ->
                let v = Cnf.var_of_lit l in
                if assign.(v) = 0 then counts.(v) <- counts.(v) + 1)
              c)
      clauses;
    let best = ref (-1) and best_c = ref (-1) in
    for v = 0 to n - 1 do
      if assign.(v) = 0 && counts.(v) > !best_c then begin
        best := v;
        best_c := counts.(v)
      end
    done;
    !best
  in
  let pick_variable () =
    match branching with
    | Max_occurrence -> pick_max_occurrence ()
    | First_unassigned ->
        (* unsatisfied-clause check still needed: if every clause is
           satisfied, remaining variables are free *)
        let any_unsat =
          Array.exists (fun c -> clause_status c <> `Sat) clauses
        in
        if any_unsat then pick_first () else -1
  in
  let rec search () =
    match propagate [] with
    | None -> false
    | Some trail ->
        let v = pick_variable () in
        if v < 0 then true
        else begin
          record_decision ();
          let try_value value =
            assign.(v) <- value;
            if search () then true
            else begin
              assign.(v) <- 0;
              false
            end
          in
          if try_value 1 || try_value (-1) then true
          else begin
            undo trail;
            false
          end
        end
  in
  (* metrics see the per-call deltas even when the budget interrupts
     the search mid-way; [stats] likewise stays filled to that point *)
  let d0 = stats.decisions and p0 = stats.propagations in
  Fun.protect
    ~finally:(fun () ->
      Metrics.add metrics "dpll.decisions" (stats.decisions - d0);
      Metrics.add metrics "dpll.propagations" (stats.propagations - p0))
    (fun () ->
      if search () then Some (Array.map (fun a -> a = 1) assign) else None)

let solve_bounded ?stats ?branching ?ctx t =
  Budget.protect (fun () -> solve ?stats ?branching ?ctx t)

(* Exhaustive model counting by DPLL-style branching (used only by tests
   on small formulas to cross-check solvers). *)
let count_models t =
  let n = Cnf.nvars t in
  let assign = Array.make n false in
  let rec go v =
    if v = n then if Cnf.satisfies t assign then 1 else 0
    else begin
      assign.(v) <- false;
      let a = go (v + 1) in
      assign.(v) <- true;
      a + go (v + 1)
    end
  in
  go 0
