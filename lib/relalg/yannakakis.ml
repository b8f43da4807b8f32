(* Yannakakis' algorithm for acyclic join queries.

   Acyclic queries are the tractable class of Section 4's structural
   discussion (tree primal graphs are acyclic; alpha-acyclicity is the
   hypergraph generalization).  The algorithm: build a join tree (GYO,
   Lb_hypergraph.Acyclic), run a full reducer (semijoin passes up then
   down the tree), then join bottom-up.  After full reduction every
   intermediate join result is contained in a projection of the final
   answer, so total work is O(input + output) up to hashing - no
   intermediate blowup, which experiment E14 contrasts against binary
   plans and Generic Join. *)

module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics
module Exec = Lb_util.Exec

type stats = { max_intermediate : int; semijoins : int }

exception Cyclic

(* Returns the reduced per-atom relations, the join tree (parent array),
   and a DFS post-order.  The context's budget is ticked once per
   semijoin - the unit the O(input + output) accounting charges. *)
let full_reducer ?(ctx = Exec.default) db (q : Query.t) =
  let budget = ctx.Exec.budget in
  let h = Query.hypergraph q in
  match Lb_hypergraph.Acyclic.join_tree h with
  | None -> raise Cyclic
  | Some parent ->
      let atoms = Array.of_list q in
      let rels = Array.map (Query.bind_atom db) atoms in
      let m = Array.length atoms in
      let children = Array.make m [] in
      let root = ref 0 in
      Array.iteri
        (fun i p -> if p >= 0 then children.(p) <- i :: children.(p) else root := i)
        parent;
      (* post-order via DFS *)
      let order = ref [] in
      let rec dfs i = List.iter dfs children.(i); order := i :: !order in
      dfs !root;
      let post = List.rev !order in
      (* list is reversed: !order is root-first (pre of reversed?); let's
         recompute: we push i after children, so !order is root last ...
         Actually we push i after recursing, so !order = i :: (children
         pushed earlier) means root is pushed LAST -> head of !order.
         So !order is reverse post-order; [post] computed below. *)
      let semijoins = ref 0 in
      let tick () = match budget with Some b -> Budget.tick b | None -> () in
      (* bottom-up: parent := parent semijoin child *)
      List.iter
        (fun i ->
          if parent.(i) >= 0 then begin
            tick ();
            rels.(parent.(i)) <- Relation.semijoin rels.(parent.(i)) rels.(i);
            incr semijoins
          end)
        post;
      (* top-down: child := child semijoin parent *)
      List.iter
        (fun i ->
          if parent.(i) >= 0 then begin
            tick ();
            rels.(i) <- Relation.semijoin rels.(i) rels.(parent.(i));
            incr semijoins
          end)
        (List.rev post);
      (rels, parent, post, !semijoins)

(* [post] above must order children before parents for the bottom-up
   pass.  The DFS pushes a node after its children, then we reverse;
   verify: order := i :: !order after children, so the root (processed
   last at top level) is at the head of !order; reversing puts the root
   last and children first.  Correct. *)

(* Record a run's stats into a metrics sink. *)
let record metrics (s : stats) =
  Metrics.add metrics "yannakakis.semijoins" s.semijoins;
  Metrics.add metrics "yannakakis.max_intermediate" s.max_intermediate

let answer ?(ctx = Exec.default) db (q : Query.t) =
  let budget = ctx.Exec.budget in
  match q with
  | [] ->
      let s = { max_intermediate = 1; semijoins = 0 } in
      record ctx.Exec.metrics s;
      (Relation.make [||] [ [||] ], s)
  | _ ->
      let rels, parent, post, semijoins = full_reducer ~ctx db q in
      let acc = Array.copy rels in
      let max_inter = ref 0 in
      List.iter
        (fun i ->
          if parent.(i) >= 0 then begin
            (match budget with Some b -> Budget.tick b | None -> ());
            acc.(parent.(i)) <- Relation.natural_join acc.(parent.(i)) acc.(i);
            max_inter := max !max_inter (Relation.cardinality acc.(parent.(i)))
          end)
        post;
      let root =
        match List.rev post with r :: _ -> r | [] -> assert false
      in
      let s = { max_intermediate = !max_inter; semijoins } in
      record ctx.Exec.metrics s;
      (acc.(root), s)

(* Boolean acyclic query: after full reduction the answer is nonempty iff
   every reduced relation is nonempty. *)
let boolean_answer ?(ctx = Exec.default) db (q : Query.t) =
  match q with
  | [] -> true
  | _ ->
      let rels, _, _, semijoins = full_reducer ~ctx db q in
      record ctx.Exec.metrics { max_intermediate = 0; semijoins };
      Array.for_all (fun r -> Relation.cardinality r > 0) rels

let is_acyclic (q : Query.t) =
  Lb_hypergraph.Acyclic.is_acyclic (Query.hypergraph q)

(* Enumeration with linear preprocessing and per-answer delay bounded by
   the query size (the regime of the constant-delay literature the paper
   cites for acyclic queries): after the full reducer, walk the join
   tree, indexing each relation by its shared attributes with its parent;
   every partial assignment extends to a full answer, so no time is spent
   on dead branches.  [f] receives each answer as an array parallel to
   [Query.attributes q]; the array is reused between calls. *)
let iter_answers ?ctx db (q : Query.t) f =
  match q with
  | [] -> f [||]
  | _ ->
      let rels, parent, post, _ = full_reducer ?ctx db q in
      let m = Array.length rels in
      let attrs = Query.attributes q in
      let attr_index = Hashtbl.create 16 in
      Array.iteri (fun i x -> Hashtbl.replace attr_index x i) attrs;
      let root = match List.rev post with r :: _ -> r | [] -> assert false in
      let children = Array.make m [] in
      Array.iteri
        (fun i p -> if p >= 0 then children.(p) <- i :: children.(p))
        parent;
      (* for each non-root node: positions of the attrs shared with the
         parent relation, and a hash index of its tuples by those
         attrs *)
      let shared_positions i p =
        let pa = Relation.attrs rels.(p) in
        Array.to_list (Relation.attrs rels.(i))
        |> List.mapi (fun pos a -> (pos, a))
        |> List.filter (fun (_, a) -> Array.exists (( = ) a) pa)
        |> List.map fst |> Array.of_list
      in
      let index = Array.make m (Hashtbl.create 0) in
      let shared = Array.make m [||] in
      Array.iteri
        (fun i p ->
          if p >= 0 then begin
            let pos = shared_positions i p in
            shared.(i) <- pos;
            let h = Hashtbl.create (2 * Relation.cardinality rels.(i)) in
            Array.iter
              (fun tup -> Hashtbl.add h (Array.map (fun j -> tup.(j)) pos) tup)
              (Relation.tuples rels.(i));
            index.(i) <- h
          end)
        parent;
      let answer = Array.make (Array.length attrs) 0 in
      let write i tup =
        let ra = Relation.attrs rels.(i) in
        Array.iteri
          (fun pos v -> answer.(Hashtbl.find attr_index ra.(pos)) <- v)
          tup
      in
      (* Work through [nodes] (a frontier of not-yet-chosen tree nodes,
         each with an already-chosen parent); when empty, one full
         combination is complete.  A node's admissible tuples are found
         by probing its index with the parent's values at the shared
         attrs, already written into [answer]. *)
      let rec extend nodes =
        match nodes with
        | [] -> f answer
        | i :: rest ->
            let key =
              Array.map
                (fun pos ->
                  let a = (Relation.attrs rels.(i)).(pos) in
                  answer.(Hashtbl.find attr_index a))
                shared.(i)
            in
            List.iter
              (fun tup ->
                write i tup;
                extend (children.(i) @ rest))
              (Hashtbl.find_all index.(i) key)
      in
      Array.iter
        (fun tup ->
          write root tup;
          extend children.(root))
        (Relation.tuples rels.(root))
