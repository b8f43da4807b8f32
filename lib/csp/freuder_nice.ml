(* Theorem 4.2's dynamic programming in its textbook normal form:
   introduce / forget / join over a nice tree decomposition
   (Lb_graph.Nice_td).  An independent implementation of the same
   algorithm as Freuder - the property tests cross-check the two count
   for count on random instances.

   Tables map assignments of the current (sorted) bag to the number of
   extensions over the forgotten vertices below:
   - Leaf: the empty assignment, count 1;
   - Introduce v: extend each assignment by every value of v that
     satisfies all constraints whose scope lies inside the new bag and
     mentions v (checking at every such introduce is idempotent
     filtering, so counts stay exact);
   - Forget v: project v away, summing counts;
   - Join: match on the (equal) bags, multiplying counts - subtrees
     below the two children share only bag vertices, so no extension is
     double-counted. *)

module Nice = Lb_graph.Nice_td
module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics

let count_cap = Freuder.count_cap

let sat_add a b = if a >= count_cap - b then count_cap else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a >= count_cap / b then count_cap
  else a * b

(* position of vertex v in sorted bag *)
let position bag v =
  let p = ref (-1) in
  Array.iteri (fun i u -> if u = v then p := i) bag;
  !p

let count ?decomposition ?(ctx = Lb_util.Exec.default) (csp : Csp.t) =
  let budget = ctx.Lb_util.Exec.budget and metrics = ctx.Lb_util.Exec.metrics in
  (* ticked once per table entry touched at an introduce node - the
     work unit of the normal-form DP *)
  let tick () = match budget with Some b -> Budget.tick b | None -> () in
  let touched = ref 0 in
  if Csp.nvars csp = 0 then
    (if List.for_all (fun (c : Csp.constraint_) -> c.allowed <> [])
          (Csp.constraints csp)
     then 1
     else 0)
  else if
    (* empty-scope constraints never reach the by-variable index *)
    List.exists
      (fun (c : Csp.constraint_) -> Array.length c.scope = 0 && c.allowed = [])
      (Csp.constraints csp)
  then 0
  else begin
    let td =
      match decomposition with Some t -> t | None -> Freuder.decompose csp
    in
    let nice = Nice.of_decomposition td in
    (* index constraints by variable, with hash sets of allowed tuples *)
    let by_var = Array.make (Csp.nvars csp) [] in
    List.iter
      (fun (c : Csp.constraint_) ->
        let set = Hashtbl.create (2 * List.length c.allowed) in
        List.iter (fun tup -> Hashtbl.replace set tup ()) c.allowed;
        let vars = List.sort_uniq compare (Array.to_list c.scope) in
        List.iter (fun v -> by_var.(v) <- (c.scope, set) :: by_var.(v)) vars)
      (Csp.constraints csp);
    let d = Csp.domain_size csp in
    let rec go (t : Nice.t) : (int array, int) Hashtbl.t =
      match t.Nice.node with
      | Nice.Leaf ->
          let table = Hashtbl.create 1 in
          Hashtbl.replace table [||] 1;
          table
      | Nice.Introduce (v, child) ->
          let ct = go child in
          let bag = t.Nice.bag in
          let vpos = position bag v in
          (* constraints mentioning v with scope inside the new bag *)
          let relevant =
            List.filter
              (fun (scope, _) ->
                Array.for_all
                  (fun u -> Array.exists (( = ) u) bag)
                  scope)
              by_var.(v)
          in
          let scope_positions =
            List.map
              (fun (scope, set) -> (Array.map (position bag) scope, set))
              relevant
          in
          let table = Hashtbl.create (2 * Hashtbl.length ct) in
          Hashtbl.iter
            (fun child_assignment cnt ->
              for value = 0 to d - 1 do
                tick ();
                incr touched;
                (* splice value into position vpos *)
                let k = Array.length bag in
                let assignment = Array.make k 0 in
                let ci = ref 0 in
                for i = 0 to k - 1 do
                  if i = vpos then assignment.(i) <- value
                  else begin
                    assignment.(i) <- child_assignment.(!ci);
                    incr ci
                  end
                done;
                let ok =
                  List.for_all
                    (fun (pos, set) ->
                      Hashtbl.mem set (Array.map (fun p -> assignment.(p)) pos))
                    scope_positions
                in
                if ok then
                  Hashtbl.replace table assignment
                    (sat_add cnt
                       (Option.value ~default:0 (Hashtbl.find_opt table assignment)))
              done)
            ct;
          table
      | Nice.Forget (v, child) ->
          let ct = go child in
          let child_bag = child.Nice.bag in
          let vpos = position child_bag v in
          let table = Hashtbl.create (Hashtbl.length ct) in
          Hashtbl.iter
            (fun assignment cnt ->
              let projected =
                Array.init
                  (Array.length assignment - 1)
                  (fun i -> if i < vpos then assignment.(i) else assignment.(i + 1))
              in
              Hashtbl.replace table projected
                (sat_add cnt
                   (Option.value ~default:0 (Hashtbl.find_opt table projected))))
            ct;
          table
      | Nice.Join (a, b) ->
          let ta = go a and tb = go b in
          let table = Hashtbl.create (min (Hashtbl.length ta) (Hashtbl.length tb)) in
          Hashtbl.iter
            (fun assignment ca ->
              match Hashtbl.find_opt tb assignment with
              | Some cb -> Hashtbl.replace table assignment (sat_mul ca cb)
              | None -> ())
            ta;
          table
    in
    (* constraints whose scope lies in NO bag would be missed; Freuder's
       covering check applies (scopes are primal cliques, so any valid
       decomposition of the primal graph covers them) - we reuse its
       validation by construction of [decompose]. *)
    Fun.protect ~finally:(fun () ->
        Metrics.add metrics "freuder_nice.introduce_entries" !touched)
    @@ fun () ->
    let root_table = go nice in
    (* root bag is empty: at most one entry *)
    Hashtbl.fold (fun _ c acc -> sat_add acc c) root_table 0
  end

let solvable ?decomposition ?ctx csp =
  count ?decomposition ?ctx csp > 0

let count_bounded ?decomposition ?ctx csp =
  Budget.protect (fun () -> count ?decomposition ?ctx csp)
