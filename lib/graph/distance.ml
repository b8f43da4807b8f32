(* Shortest-path distances, eccentricities, diameter and radius.

   The fine-grained canon the paper cites (Roditty-Vassilevska Williams
   [58], Abboud-Vassilevska Williams [4]) concerns exactly these: exact
   diameter needs ~nm time under SETH (even distinguishing 2 from 3),
   while a single BFS gives a 2-approximation in O(m).  Experiment E17
   measures the gap; Lb_reductions.Ov_to_diameter carries the hardness
   over from Orthogonal Vectors. *)

module Bitset = Lb_util.Bitset

(* BFS distances from [source]; unreachable = -1. *)
let bfs g source =
  let n = Graph.vertex_count g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Bitset.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      (Graph.neighbors g u)
  done;
  dist

(* Largest finite distance from [v]; [None] if some vertex is
   unreachable. *)
let eccentricity g v =
  let dist = bfs g v in
  let ecc = ref 0 and connected = ref true in
  Array.iter
    (fun d -> if d < 0 then connected := false else ecc := max !ecc d)
    dist;
  if !connected then Some !ecc else None

(* Exact diameter / radius by n BFS runs: O(nm).  [None] on disconnected
   or empty graphs.  A [ctx] pool spreads the BFS sources over domains
   (each writes its own slot, so the result is deterministic; the
   sequential path keeps its early exit on disconnection).  The [ctx]
   budget is ticked once per source; the [ctx] metrics sink counts BFS
   runs under "distance.bfs". *)
let diameter ?(ctx = Lb_util.Exec.default) g =
  let pool = ctx.Lb_util.Exec.pool in
  let metrics = ctx.Lb_util.Exec.metrics in
  let n = Graph.vertex_count g in
  let tick () =
    match ctx.Lb_util.Exec.budget with
    | Some b -> Lb_util.Budget.tick b
    | None -> ()
  in
  if n = 0 then None
  else begin
    match pool with
    | Some p when n > 1 ->
        for _ = 1 to n do tick () done;
        let ecc = Array.make n (Some 0) in
        Lb_util.Pool.run p ~chunks:(min n 64) (fun chunk ->
            let per = (n + min n 64 - 1) / min n 64 in
            let lo = chunk * per and hi = min n ((chunk + 1) * per) in
            for v = lo to hi - 1 do
              ecc.(v) <- eccentricity g v
            done);
        Lb_util.Metrics.add metrics "distance.bfs" n;
        Array.fold_left
          (fun acc e ->
            match (acc, e) with
            | Some b, Some e -> Some (max b e)
            | _ -> None)
          (Some 0) ecc
    | _ ->
        let best = ref (Some 0) in
        let bfs_runs = ref 0 in
        (try
           for v = 0 to n - 1 do
             tick ();
             incr bfs_runs;
             match (eccentricity g v, !best) with
             | Some e, Some b -> best := Some (max e b)
             | None, _ ->
                 best := None;
                 raise Exit
             | _, None -> raise Exit
           done
         with Exit -> ());
        Lb_util.Metrics.add metrics "distance.bfs" !bfs_runs;
        !best
  end

(* Diameter through the matmul kernel: repeated Boolean squaring of
   R = A or I gives reachability within 2^j steps; once R^(2^k) is
   all-ones, binary search down over the stored powers pins the least d
   with R^d all-ones, which is the diameter.  O(log d) Boolean products
   — the "fast matrix multiplication" route to distances, against which
   E17 compares the n-BFS baseline.  If squaring reaches a fixpoint
   short of all-ones the graph is disconnected: [None]. *)
let diameter_matmul ?ctx g =
  let module B = Lb_util.Matrix.Bool in
  let n = Graph.vertex_count g in
  if n = 0 then None
  else begin
    let r1 =
      B.init n n (fun i j -> i = j || Graph.has_edge g i j)
    in
    if B.all_set r1 then Some (if n = 1 then 0 else 1)
    else begin
      (* powers.(j) = R^(2^j); square until all-ones or fixpoint *)
      let powers = ref [ r1 ] in
      let rec grow last =
        let next = B.mul ?ctx last last in
        if B.all_set next then (
          powers := next :: !powers;
          true)
        else if B.equal next last then false (* disconnected *)
        else (
          powers := next :: !powers;
          grow next)
      in
      if not (grow r1) then None
      else begin
        let ps = Array.of_list (List.rev !powers) in
        (* ps.(kk) is all-ones, ps.(kk-1) is not: diameter is in
           (2^(kk-1), 2^kk].  Walk the lower bits down: keep an
           accumulator acc = R^lo that is NOT all-ones and try adding
           each power of two below. *)
        let kk = Array.length ps - 1 in
        let lo = ref (1 lsl (kk - 1)) in
        let acc = ref ps.(kk - 1) in
        for j = kk - 2 downto 0 do
          let cand = B.mul ?ctx !acc ps.(j) in
          if not (B.all_set cand) then begin
            acc := cand;
            lo := !lo + (1 lsl j)
          end
        done;
        Some (!lo + 1)
      end
    end
  end

let radius g =
  let n = Graph.vertex_count g in
  if n = 0 then None
  else begin
    let best = ref max_int and ok = ref true in
    for v = 0 to n - 1 do
      match eccentricity g v with
      | Some e -> best := min !best e
      | None -> ok := false
    done;
    if !ok then Some !best else None
  end

(* One BFS from an arbitrary vertex: its eccentricity e satisfies
   e <= diameter <= 2e (triangle inequality through the root) - the
   O(m) 2-approximation that SETH says cannot be improved to a
   (3/2 - eps)-approximation in subquadratic time. *)
let diameter_2approx ?(source = 0) g =
  if Graph.vertex_count g = 0 then None
  else eccentricity g source

(* All-pairs shortest paths by repeated BFS (dense output: n x n). *)
let all_pairs g =
  Array.init (Graph.vertex_count g) (fun v -> bfs g v)
