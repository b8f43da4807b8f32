(* The positive side of Theorem 5.3 (Grohe), as an algorithm: decide and
   count homomorphisms A -> B by

   1. replacing A with its core (homomorphism-equivalent, Theorem 5.3's
      parameter is the core's treewidth),
   2. expressing HOM(core(A), B) as a CSP (variables = core elements,
      domain = B's universe, one constraint per tuple of core(A)), and
   3. running Freuder's treewidth DP on it.

   When the cores of the input class have bounded treewidth this is
   polynomial - exactly the tractability frontier of the theorem.  Note
   counting is NOT invariant under taking cores (a C4 has more
   homomorphisms into a graph than its core K2 does), so [count] runs
   the DP on A itself; only [decide] may shrink to the core first. *)

module Structure = Lb_structure.Structure

(* HOM(a, b) as a CSP. *)
let to_csp a b =
  if not (Structure.same_vocabulary a b) then
    invalid_arg "Hom.to_csp: vocabulary mismatch";
  let constraints =
    List.concat_map
      (fun (name, _) ->
        let allowed = Structure.tuples b name in
        List.map
          (fun tup -> { Csp.scope = tup; allowed })
          (Structure.tuples a name))
      (Structure.vocabulary a)
  in
  Csp.create ~nvars:(Structure.universe a) ~domain_size:(Structure.universe b)
    constraints

(* Decide HOM(A, B) through the core and the treewidth DP.  Returns a
   homomorphism from the FULL structure A when one exists: a witness on
   the core composes with the retraction A -> core(A). *)
let decide ?ctx a b =
  let core, mapping = Lb_structure.Core_struct.core a in
  let csp = to_csp core b in
  match Freuder.solve ?ctx csp with
  | None -> None
  | Some core_sol -> (
      (* compose the retraction A -> core(A) (a homomorphism into the
         induced substructure on [mapping]; it exists by definition of
         the core and is found by search) with the DP witness *)
      let sub, _ = Structure.induced a mapping in
      match Structure.find_homomorphism a sub with
      | None -> assert false (* the core is a retract *)
      | Some retract -> Some (Array.map (fun i -> core_sol.(i)) retract))

(* Count homomorphisms A -> B exactly, by the treewidth DP on A itself
   (cores do not preserve counts). *)
let count ?ctx a b = Freuder.count ?ctx (to_csp a b)

(* Brute-force count for cross-checks. *)
let count_bruteforce ?ctx a b = Csp.count_bruteforce ?ctx (to_csp a b)

let decide_bounded ?ctx a b =
  Lb_util.Budget.protect (fun () -> decide ?ctx a b)

let count_bounded ?ctx a b =
  Lb_util.Budget.protect (fun () -> count ?ctx a b)

(* The Theorem 5.3 parameter for a class represented by one structure:
   treewidth of the core's Gaifman graph. *)
let core_treewidth a =
  let core, _ = Lb_structure.Core_struct.core a in
  let g = Lb_graph.Graph.create (Structure.universe core) in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun tup ->
          let k = Array.length tup in
          for i = 0 to k - 1 do
            for j = i + 1 to k - 1 do
              if tup.(i) <> tup.(j) then Lb_graph.Graph.add_edge g tup.(i) tup.(j)
            done
          done)
        (Structure.tuples core name))
    (Structure.vocabulary core);
  let tw, _, _ = Lb_graph.Treewidth.best_effort g in
  tw
