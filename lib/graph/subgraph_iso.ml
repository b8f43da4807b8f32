(* Partitioned subgraph isomorphism (Section 2.3).

   Input: pattern H on [0,h), host G, and a partition of (a subset of)
   V(G) into h classes - class i holds the allowed images of pattern
   vertex i.  Find an injective map picking one vertex per class such
   that pattern edges map to host edges.  As the paper notes, this is
   exactly binary CSP with primal graph H, and the solver below is the
   same candidate-intersection backtracking as [Homomorphism.find] plus
   the per-class restriction (injectivity across classes is automatic
   when classes are disjoint; within-class collisions cannot happen since
   one vertex is chosen per class). *)

module Bitset = Lb_util.Bitset
module Exec = Lb_util.Exec
module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics

type partition = int array array
(* classes.(i) = host vertices allowed as the image of pattern vertex i *)

(* One tick / one [subgraph_iso.nodes] count per attempted extension of
   the partial map - the search-tree node count both solvers share. *)
let charge (ctx : Exec.t) =
  (match ctx.Exec.budget with Some b -> Budget.tick b | None -> ());
  Metrics.incr ctx.Exec.metrics "subgraph_iso.nodes"

let find ?(ctx = Exec.default) pattern host (classes : partition) =
  let h = Graph.vertex_count pattern in
  if Array.length classes <> h then invalid_arg "Subgraph_iso.find";
  let ng = Graph.vertex_count host in
  if h = 0 then Some [||]
  else begin
    let class_sets =
      Array.map (fun c -> Bitset.of_list ng (Array.to_list c)) classes
    in
    let order = Homomorphism.connectivity_order pattern in
    let image = Array.make h (-1) in
    let rec go i =
      if i = h then true
      else begin
        let v = order.(i) in
        let cands = Bitset.copy class_sets.(v) in
        Bitset.iter
          (fun u ->
            if image.(u) >= 0 then
              Bitset.inter_into ~into:cands (Graph.neighbors host image.(u)))
          (Graph.neighbors pattern v);
        let found = ref false in
        (try
           Bitset.iter
             (fun c ->
               charge ctx;
               image.(v) <- c;
               if go (i + 1) then begin
                 found := true;
                 raise Exit
               end
               else image.(v) <- -1)
             cands
         with Exit -> ());
        !found
      end
    in
    if go 0 then Some (Array.copy image) else None
  end

(* Plain (unpartitioned) subgraph isomorphism, the "standard variant"
   the paper contrasts with: an INJECTIVE map sending pattern edges to
   host edges.  Same candidate-intersection backtracking plus a
   used-vertex mask. *)
let find_unpartitioned ?(ctx = Exec.default) pattern host =
  let h = Graph.vertex_count pattern in
  let ng = Graph.vertex_count host in
  if h = 0 then Some [||]
  else if h > ng then None
  else begin
    let order = Homomorphism.connectivity_order pattern in
    let image = Array.make h (-1) in
    let used = Array.make ng false in
    let rec go i =
      if i = h then true
      else begin
        let v = order.(i) in
        let cands = Bitset.create ng in
        Bitset.fill cands;
        Bitset.iter
          (fun u ->
            if image.(u) >= 0 then
              Bitset.inter_into ~into:cands (Graph.neighbors host image.(u)))
          (Graph.neighbors pattern v);
        let found = ref false in
        (try
           Bitset.iter
             (fun c ->
               if not used.(c) then begin
                 charge ctx;
                 image.(v) <- c;
                 used.(c) <- true;
                 if go (i + 1) then begin
                   found := true;
                   raise Exit
                 end
                 else begin
                   used.(c) <- false;
                   image.(v) <- -1
                 end
               end)
             cands
         with Exit -> ());
        !found
      end
    in
    if go 0 then Some (Array.copy image) else None
  end

let is_subgraph_embedding pattern host f =
  Array.length f = Graph.vertex_count pattern
  && (let l = Array.to_list f in
      List.length (List.sort_uniq compare l) = List.length l)
  &&
  let ok = ref true in
  Graph.iter_edges
    (fun u v -> if not (Graph.has_edge host f.(u) f.(v)) then ok := false)
    pattern;
  !ok

let respects pattern host classes f =
  Array.length f = Graph.vertex_count pattern
  && Array.for_all2 (fun img cls -> Array.exists (fun v -> v = img) cls) f classes
  &&
  let ok = ref true in
  Graph.iter_edges
    (fun u v -> if not (Graph.has_edge host f.(u) f.(v)) then ok := false)
    pattern;
  !ok
