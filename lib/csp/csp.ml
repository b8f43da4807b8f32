(* Constraint satisfaction problem instances (Section 2.2).

   An instance is (V, D, C): variables [0, nvars), a shared domain
   [0, domain_size), and constraints - a scope (tuple of variables) plus
   the list of allowed value tuples.  This is the "explicit relation"
   representation matching the database-theoretic setting where relations
   are part of the input. *)

type constraint_ = {
  scope : int array;
  allowed : int array list; (* each of length |scope| *)
}

type t = {
  nvars : int;
  domain_size : int;
  constraints : constraint_ list;
}

let create ~nvars ~domain_size constraints =
  if nvars < 0 || domain_size < 0 then invalid_arg "Csp.create";
  List.iter
    (fun { scope; allowed } ->
      Array.iter
        (fun v -> if v < 0 || v >= nvars then invalid_arg "Csp.create: var range")
        scope;
      List.iter
        (fun tup ->
          if Array.length tup <> Array.length scope then
            invalid_arg "Csp.create: tuple width";
          Array.iter
            (fun d ->
              if d < 0 || d >= domain_size then
                invalid_arg "Csp.create: value range")
            tup)
        allowed)
    constraints;
  { nvars; domain_size; constraints }

let nvars t = t.nvars

let domain_size t = t.domain_size

let constraints t = t.constraints

let constraint_count t = List.length t.constraints

let is_binary t =
  List.for_all (fun c -> Array.length c.scope = 2) t.constraints

let max_arity t =
  List.fold_left (fun acc c -> max acc (Array.length c.scope)) 0 t.constraints

(* Total size of the explicit representation (sum of tuple cells), the
   "n" of the running-time statements. *)
let size t =
  List.fold_left
    (fun acc c -> acc + (List.length c.allowed * Array.length c.scope))
    0 t.constraints

let constraint_satisfied c assignment =
  let image = Array.map (fun v -> assignment.(v)) c.scope in
  List.exists (fun tup -> tup = image) c.allowed

let satisfies t assignment =
  Array.length assignment = t.nvars
  && Array.for_all (fun d -> d >= 0 && d < t.domain_size) assignment
  && List.for_all (fun c -> constraint_satisfied c assignment) t.constraints

let primal_graph t =
  let g = Lb_graph.Graph.create t.nvars in
  List.iter
    (fun c ->
      let k = Array.length c.scope in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          if c.scope.(i) <> c.scope.(j) then
            Lb_graph.Graph.add_edge g c.scope.(i) c.scope.(j)
        done
      done)
    t.constraints;
  g

let hypergraph t =
  Lb_hypergraph.Hypergraph.create t.nvars
    (List.map (fun c -> c.scope) t.constraints)

(* Exhaustive search in variable order 0..n-1, checking each constraint
   as soon as its last scope variable is assigned.  Worst case
   |D|^{|V|}; the early checks only prune, never skip, assignments. *)
let solve_bruteforce ?(ctx = Lb_util.Exec.default) t =
  let budget = ctx.Lb_util.Exec.budget in
  let tick () =
    match budget with Some b -> Lb_util.Budget.tick b | None -> ()
  in
  let n = t.nvars in
  let by_last = Array.make (max n 1) [] in
  let indexed =
    List.map
      (fun c ->
        let set = Hashtbl.create (2 * List.length c.allowed) in
        List.iter (fun tup -> Hashtbl.replace set tup ()) c.allowed;
        (c.scope, set))
      t.constraints
  in
  let trivially_unsat = ref false in
  List.iter
    (fun (scope, set) ->
      if Array.length scope = 0 then begin
        if Hashtbl.length set = 0 then trivially_unsat := true
      end
      else begin
        let last = Array.fold_left max 0 scope in
        by_last.(last) <- (scope, set) :: by_last.(last)
      end)
    indexed;
  if !trivially_unsat then None
  else if n = 0 then Some [||]
  else begin
    let a = Array.make n 0 in
    let rec go v =
      if v = n then true
      else begin
        let rec try_value d =
          if d = t.domain_size then false
          else begin
            tick ();
            a.(v) <- d;
            let ok =
              List.for_all
                (fun (scope, set) ->
                  Hashtbl.mem set (Array.map (fun u -> a.(u)) scope))
                by_last.(v)
            in
            if ok && go (v + 1) then true else try_value (d + 1)
          end
        in
        try_value 0
      end
    in
    if go 0 then Some (Array.copy a) else None
  end

let count_bruteforce ?(ctx = Lb_util.Exec.default) t =
  let budget = ctx.Lb_util.Exec.budget in
  let tick () =
    match budget with Some b -> Lb_util.Budget.tick b | None -> ()
  in
  let count = ref 0 in
  Lb_util.Combinat.iter_tuples t.domain_size t.nvars (fun a ->
      tick ();
      if List.for_all (fun c -> constraint_satisfied c a) t.constraints then
        incr count);
  !count

let pp fmt t =
  Format.fprintf fmt "csp(|V|=%d, |D|=%d, |C|=%d)" t.nvars t.domain_size
    (constraint_count t)
