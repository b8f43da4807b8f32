(* Triangle detection and counting (Sections 3 and 8).

   The detectors' relative performance is exactly what the "triangle
   conjecture" discussion in the paper is about:
   - [detect_naive]: scan all vertex triples, O(n^3) worst case.
   - [detect_edge_scan]: for each edge, word-parallel neighborhood
     intersection - the O(m^{3/2})-family enumeration baseline.
   - [detect_matmul]: Boolean A^2 against A, "O(d^omega)" with the
     word-packed matmul standing in for fast matrix multiplication.
   - [detect_heavy_light]: Alon-Yuster-Zwick split by a degree threshold
     Delta: edges with a light endpoint are checked by scanning that
     endpoint's neighborhood (O(m * Delta)); a triangle among heavy
     vertices (at most 2m/Delta of them) is found by matmul.  This is the
     O(m^{2 omega/(omega+1)}) algorithm cited for the triangle
     conjecture. *)

module Bitset = Lb_util.Bitset
module Matrix = Lb_util.Matrix
module Exec = Lb_util.Exec

let detect_naive g =
  let n = Graph.vertex_count g in
  let found = ref None in
  (try
     for u = 0 to n - 1 do
       for v = u + 1 to n - 1 do
         if Graph.has_edge g u v then
           for w = v + 1 to n - 1 do
             if Graph.has_edge g u w && Graph.has_edge g v w then begin
               found := Some (u, v, w);
               raise Exit
             end
           done
       done
     done
   with Exit -> ());
  !found

let detect_edge_scan g =
  let found = ref None in
  (try
     Graph.iter_edges
       (fun u v ->
         let common = Bitset.inter (Graph.neighbors g u) (Graph.neighbors g v) in
         match Bitset.choose common with
         | Some w ->
             found := Some (u, v, w);
             raise Exit
         | None -> ())
       g
   with Exit -> ());
  !found

let adjacency_bool g =
  let n = Graph.vertex_count g in
  let m = Matrix.Bool.create n n in
  Graph.iter_edges
    (fun u v ->
      Matrix.Bool.set m u v true;
      Matrix.Bool.set m v u true)
    g;
  m

let detect_matmul ?(ctx = Exec.default) g =
  let a = adjacency_bool g in
  let a2 = Matrix.Bool.mul ~ctx a a in
  let n = Graph.vertex_count g in
  let found = ref None in
  (try
     for u = 0 to n - 1 do
       for v = u + 1 to n - 1 do
         if Matrix.Bool.get a u v && Matrix.Bool.get a2 u v then begin
           let common =
             Bitset.inter (Graph.neighbors g u) (Graph.neighbors g v)
           in
           (match Bitset.choose common with
           | Some w -> found := Some (u, v, w)
           | None -> assert false);
           raise Exit
         end
       done
     done
   with Exit -> ());
  !found

let detect_heavy_light ?delta ?(ctx = Exec.default) g =
  let n = Graph.vertex_count g in
  let m = Graph.edge_count g in
  let delta =
    match delta with
    | Some d -> max 1 d
    | None -> max 1 (int_of_float (sqrt (float_of_int (max m 1))))
  in
  let heavy = Array.init n (fun v -> Graph.degree g v > delta) in
  (* Light phase: any triangle with a light vertex has an edge incident to
     that light vertex; scanning the light endpoint's neighborhood over
     all edges finds it. *)
  let found = ref None in
  (try
     Graph.iter_edges
       (fun u v ->
         let u, v =
           if Graph.degree g u <= Graph.degree g v then (u, v) else (v, u)
         in
         if not heavy.(u) then
           Bitset.iter
             (fun w ->
               if w <> v && Graph.has_edge g v w then begin
                 found := Some (u, v, w);
                 raise Exit
               end)
             (Graph.neighbors g u))
       g
   with Exit -> ());
  match !found with
  | Some _ as r -> r
  | None ->
      (* Heavy phase: triangles entirely within heavy vertices. *)
      let hv =
        Array.of_list
          (List.filter (fun v -> heavy.(v)) (List.init n (fun i -> i)))
      in
      if Array.length hv < 3 then None
      else begin
        let sub, map = Graph.induced g hv in
        match detect_matmul ~ctx sub with
        | Some (a, b, c) -> Some (map.(a), map.(b), map.(c))
        | None -> None
      end

(* Exact triangle count: C = popcount product A * A counts the common
   neighbors of every pair, so summing C(u,v) over edges {u,v} counts
   each triangle once per corner.  Entries of C are degrees at most, so
   (unlike the old trace(A^3) int-matrix route) nothing can overflow. *)
let count_matmul ?(ctx = Exec.default) g =
  let a = adjacency_bool g in
  let c = Matrix.Bool.mul_count ~ctx a a in
  let total = ref 0 in
  Graph.iter_edges (fun u v -> total := !total + Matrix.Int.get c u v) g;
  !total / 3

(* Triangle count by edge scanning: each triangle {u<v<w} is counted at
   its edge (u,v) with the witness w > v. *)
let count_edge_scan g =
  let c = ref 0 in
  Graph.iter_edges
    (fun u v ->
      let common = Bitset.inter (Graph.neighbors g u) (Graph.neighbors g v) in
      Bitset.iter (fun w -> if w > v then incr c) common)
    g;
  !c
