(* Freuder's algorithm (Theorem 4.2): dynamic programming over a tree
   decomposition of the primal graph, running in O(|V| . |D|^{k+1}) for
   width-k decompositions.

   For each bag we enumerate all |D|^{|bag|} assignments, keep those
   satisfying every constraint assigned to the bag (every constraint's
   scope is a clique of the primal graph, hence contained in some bag),
   and join child tables through their separators.  Tables store
   solution *counts* of the subtree per bag assignment, so the same pass
   answers decision, counting and witness extraction.

   The exponent k+1 is exactly what experiment E3 fits against |D|. *)

module Td = Lb_graph.Tree_decomposition
module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics

(* Solution counts can exceed the int range (|D|^{|V|} combinations);
   saturate at [count_cap] so decisions ("count > 0") stay correct and
   counts are exact whenever they are below the cap. *)
let count_cap = max_int / 2

let sat_add a b = if a >= count_cap - b then count_cap else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a >= count_cap / b then count_cap
  else a * b

type tables = {
  decomposition : Td.t;
  order : int array; (* bag preorder, root first *)
  children : int list array;
  bag_tables : (int array, int) Hashtbl.t array;
      (* bag assignment (parallel to the sorted bag) -> subtree count *)
}

let decompose (csp : Csp.t) =
  let g = Csp.primal_graph csp in
  let _, order, _ = Lb_graph.Treewidth.best_effort g in
  Td.of_elimination_order g order

(* Assign every constraint to a covering bag. *)
let assign_constraints (csp : Csp.t) (td : Td.t) =
  let bags = Td.bags td in
  let nb = Array.length bags in
  let per_bag = Array.make nb [] in
  List.iter
    (fun (c : Csp.constraint_) ->
      let scope_set = List.sort_uniq compare (Array.to_list c.scope) in
      let covered = ref false in
      (try
         for b = 0 to nb - 1 do
           let bag = bags.(b) in
           if List.for_all (fun v -> Array.exists (( = ) v) bag) scope_set
           then begin
             per_bag.(b) <- c :: per_bag.(b);
             covered := true;
             raise Exit
           end
         done
       with Exit -> ());
      if not !covered then
        invalid_arg "Freuder: decomposition does not cover a constraint scope")
    (Csp.constraints csp);
  per_bag

(* Positions of separator (intersection with parent bag) within a bag. *)
let separator_positions bag parent_bag =
  let ps = ref [] in
  Array.iteri
    (fun i v -> if Array.exists (( = ) v) parent_bag then ps := i :: !ps)
    bag;
  Array.of_list (List.rev !ps)

let run ?decomposition ?(ctx = Lb_util.Exec.default) (csp : Csp.t) =
  let budget = ctx.Lb_util.Exec.budget and metrics = ctx.Lb_util.Exec.metrics in
  (* ticked once per enumerated bag assignment - the |D|^{k+1} unit of
     Theorem 4.2's cost accounting *)
  let tick () = match budget with Some b -> Budget.tick b | None -> () in
  let enumerated = ref 0 in
  let td = match decomposition with Some t -> t | None -> decompose csp in
  let bags = Td.bags td in
  let nb = Array.length bags in
  let parent, children, order = Td.rooted td in
  let per_bag = assign_constraints csp td in
  let d = Csp.domain_size csp in
  let bag_tables = Array.make nb (Hashtbl.create 0) in
  (* children aggregates: for child c with separator S (positions in c's
     bag), map separator assignment -> sum of counts *)
  let child_aggregate c parent_bag =
    let sep = separator_positions bags.(c) parent_bag in
    let agg = Hashtbl.create 64 in
    Hashtbl.iter
      (fun assignment count ->
        let key = Array.map (fun i -> assignment.(i)) sep in
        Hashtbl.replace agg key
          (sat_add count (Option.value ~default:0 (Hashtbl.find_opt agg key))))
      bag_tables.(c);
    agg
  in
  (* process bags children-first (reverse preorder) *)
  Fun.protect ~finally:(fun () ->
      Metrics.add metrics "freuder.bags" nb;
      Metrics.add metrics "freuder.bag_assignments" !enumerated)
  @@ fun () ->
  for oi = nb - 1 downto 0 do
    let b = order.(oi) in
    let bag = bags.(b) in
    let k = Array.length bag in
    let table = Hashtbl.create 256 in
    (* precompute child aggregates and their separators wrt this bag *)
    let kids =
      List.map
        (fun c ->
          (* separator expressed as positions in THIS bag, aligned with
             the child key: both sides list the shared variables in
             child-bag order, and bags are sorted, so the orders agree *)
          let sep_vars =
            Array.to_list bags.(c) |> List.filter (fun v -> Array.exists (( = ) v) bag)
          in
          let pos_in_bag =
            Array.of_list
              (List.map
                 (fun v ->
                   let p = ref (-1) in
                   Array.iteri (fun i u -> if u = v then p := i) bag;
                   !p)
                 sep_vars)
          in
          (child_aggregate c bag, pos_in_bag))
        children.(b)
    in
    let local = per_bag.(b) in
    (* position of each variable of a constraint scope within the bag,
       plus a hash index of allowed tuples for O(1) membership *)
    let local_indexed =
      List.map
        (fun (c : Csp.constraint_) ->
          let pos =
            Array.map
              (fun v ->
                let p = ref (-1) in
                Array.iteri (fun i u -> if u = v then p := i) bag;
                !p)
              c.scope
          in
          let allowed_set = Hashtbl.create (2 * List.length c.allowed) in
          List.iter (fun tup -> Hashtbl.replace allowed_set tup ()) c.allowed;
          (allowed_set, pos))
        local
    in
    let assignment = Array.make k 0 in
    let rec enumerate i =
      if i = k then begin
        tick ();
        incr enumerated;
        let ok =
          List.for_all
            (fun (allowed_set, pos) ->
              let image = Array.map (fun p -> assignment.(p)) pos in
              Hashtbl.mem allowed_set image)
            local_indexed
        in
        if ok then begin
          let count =
            List.fold_left
              (fun acc (agg, pos_in_bag) ->
                if acc = 0 then 0
                else
                  let key = Array.map (fun p -> assignment.(p)) pos_in_bag in
                  sat_mul acc
                    (Option.value ~default:0 (Hashtbl.find_opt agg key)))
              1 kids
          in
          if count > 0 then Hashtbl.replace table (Array.copy assignment) count
        end
      end
      else
        for v = 0 to d - 1 do
          assignment.(i) <- v;
          enumerate (i + 1)
        done
    in
    if d > 0 || k = 0 then enumerate 0;
    bag_tables.(b) <- table
  done;
  let _ = parent in
  { decomposition = td; order; children; bag_tables }

(* Number of solutions: each variable is counted at the subtree of the
   bag where it is "introduced".  With counts keyed on full bag
   assignments and children joined through separators, the root table's
   counts sum to |solutions| only if every variable outside the root bag
   is counted exactly once - which holds because a variable shared
   between a bag and its parent lies in the separator.  Subtlety: a
   variable may appear in several children of one bag; the decomposition
   property forces it into the bag itself, hence into both separators,
   so it is never double-counted. *)
let count ?decomposition ?ctx (csp : Csp.t) =
  if Csp.nvars csp = 0 then
    (if Csp.constraints csp = [] then 1 else if List.for_all (fun (c : Csp.constraint_) -> c.allowed <> []) (Csp.constraints csp) then 1 else 0)
  else begin
    let t = run ?decomposition ?ctx csp in
    let root = t.order.(0) in
    Hashtbl.fold (fun _ c acc -> sat_add acc c) t.bag_tables.(root) 0
  end

let solvable ?decomposition ?ctx csp =
  count ?decomposition ?ctx csp > 0

(* Extract one solution by walking the tables top-down. *)
let solve ?decomposition ?ctx (csp : Csp.t) =
  let n = Csp.nvars csp in
  if n = 0 then
    if count ?decomposition ?ctx csp > 0 then Some [||]
    else None
  else begin
    let t = run ?decomposition ?ctx csp in
    let td = t.decomposition in
    let bags = Td.bags td in
    let root = t.order.(0) in
    if Hashtbl.length t.bag_tables.(root) = 0 then None
    else begin
      let solution = Array.make n (-1) in
      (* choose a bag assignment consistent with already-fixed vars *)
      let choose b =
        let bag = bags.(b) in
        let found = ref None in
        (try
           Hashtbl.iter
             (fun assignment _count ->
               let ok = ref true in
               Array.iteri
                 (fun i v ->
                   if solution.(v) >= 0 && solution.(v) <> assignment.(i) then
                     ok := false)
                 bag;
               if !ok then begin
                 found := Some assignment;
                 raise Exit
               end)
             t.bag_tables.(b)
         with Exit -> ());
        !found
      in
      let rec walk b =
        match choose b with
        | None -> false
        | Some assignment ->
            Array.iteri (fun i v -> solution.(v) <- assignment.(i)) bags.(b);
            List.for_all walk t.children.(b)
      in
      if walk root then Some solution else None
    end
  end

let count_bounded ?decomposition ?ctx csp =
  Budget.protect (fun () -> count ?decomposition ?ctx csp)

let solve_bounded ?decomposition ?ctx csp =
  Budget.protect (fun () -> solve ?decomposition ?ctx csp)
