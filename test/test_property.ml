(* Property-based differential test layer.

   A dependency-free QuickCheck-style runner: every case is generated
   from an explicit SplitMix64 seed (Lb_util.Prng), failures print the
   seed and size needed to replay them, and shrinking regenerates the
   case from the same seed at halved sizes.  The properties are
   differential: each potentially-clever solver is compared against a
   brute-force oracle on random instances, and each reduction in
   lib/reductions round-trips through its [preserves] check.

   Iteration count: LBT_PROP_COUNT in the environment overrides the
   default (the [test-quick] dune alias sets a reduced count). *)

module Prng = Lb_util.Prng
module Cnf = Lb_sat.Cnf
module Dpll = Lb_sat.Dpll
module Csp = Lb_csp.Csp
module Gen = Lb_csp.Generators
module Graph_gen = Lb_graph.Generators
module Q = Lb_relalg.Query
module Rel = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Gj = Lb_relalg.Generic_join
module Lf = Lb_relalg.Leapfrog
module C = Lb_relalg.Compile

(* --- the runner --- *)

type 'a gen = Prng.t -> size:int -> 'a

let default_count =
  match int_of_string_opt (Sys.getenv "LBT_PROP_COUNT") with
  | Some n when n > 0 -> n
  | Some _ | None -> 30
  | exception Not_found -> 30

(* Deterministic per-case seeds: mixing the case index through a large
   odd constant keeps the streams independent without any global
   state. *)
let case_seed base i = base + (i * 0x1E3779B97F4A7C1)

(* [check ~name ~base gen show prop] runs [default_count] cases of
   [prop] on instances drawn from [gen] at sizes growing from [min_size]
   to [max_size].  On failure, the case is regenerated from its own seed
   at halved sizes for as long as it keeps failing, and the smallest
   failing (seed, size) pair is reported for replay. *)
let check ?(min_size = 2) ?(max_size = 10) ~name ~base (g : 'a gen) show prop =
  let count = default_count in
  for i = 0 to count - 1 do
    let seed = case_seed base i in
    let size = min_size + (i * (max_size - min_size + 1) / max 1 count) in
    let make size = g (Prng.create seed) ~size in
    let fails size =
      match prop (make size) with b -> not b | exception _ -> true
    in
    if fails size then begin
      (* shrink by halving the size, replaying the same seed *)
      let rec shrink s =
        let s' = s / 2 in
        if s' >= min_size && fails s' then shrink s' else s
      in
      let s = shrink size in
      Alcotest.failf
        "property %s falsified: seed=%d size=%d (replay: gen (Prng.create \
         %d) ~size:%d)\ninstance: %s"
        name seed s seed s
        (show (make s))
    end
  done

(* --- generators --- *)

(* Random k-SAT near the hard ratio; nvars tracks the size parameter so
   shrinking produces genuinely smaller formulas. *)
let gen_cnf ?(k = 3) ?(ratio = 4.0) () : Cnf.t gen =
 fun rng ~size ->
  let nvars = max k (min size 12) in
  let nclauses = max 1 (int_of_float (ratio *. float_of_int nvars)) in
  Cnf.random_ksat rng ~nvars ~nclauses ~k

(* Random binary CSP of bounded treewidth (partial k-tree primal
   graph). *)
let gen_csp ?(width = 2) ?(domain_size = 3) ?(plant = false) () :
    Csp.t gen =
 fun rng ~size ->
  let nvars = max (width + 1) (min size 8) in
  let csp, _, _ =
    Gen.bounded_treewidth rng ~nvars ~width ~domain_size ~density:0.5 ~plant
  in
  csp

(* Random conjunctive query + database: 2-5 binary atoms over a small
   attribute pool (shared variables make the joins non-trivial), with
   random relations over a domain scaled by [size]. *)
let gen_cq : (Db.t * Q.t) gen =
 fun rng ~size ->
  let nattrs = 2 + Prng.int rng 3 in
  let attrs = Array.init nattrs (fun i -> Printf.sprintf "x%d" i) in
  let natoms = 2 + Prng.int rng 3 in
  let dom = 2 + Prng.int rng (max 1 size) in
  let atoms = ref [] in
  let db = ref Db.empty in
  for a = 0 to natoms - 1 do
    let u = Prng.int rng nattrs in
    let v = (u + 1 + Prng.int rng (nattrs - 1)) mod nattrs in
    let name = Printf.sprintf "R%d" a in
    let ntuples = 1 + Prng.int rng (2 * dom) in
    let tuples =
      List.init ntuples (fun _ -> [| Prng.int rng dom; Prng.int rng dom |])
    in
    db := Db.add !db name (Rel.make [| "u"; "v" |] tuples);
    atoms := Q.atom name [| attrs.(u); attrs.(v) |] :: !atoms
  done;
  (!db, !atoms)

let gen_graph ?(p = 0.4) () : Lb_graph.Graph.t gen =
 fun rng ~size ->
  let n = max 3 (min size 9) in
  Graph_gen.gnp rng n p

let show_cnf f =
  Printf.sprintf "CNF(%d vars, %d clauses)" (Cnf.nvars f) (Cnf.clause_count f)

let show_csp c =
  Printf.sprintf "CSP(%d vars, |D|=%d, %d constraints)" (Csp.nvars c)
    (Csp.domain_size c) (Csp.constraint_count c)

let show_cq (_, q) = Q.to_string q

let show_graph g =
  Printf.sprintf "G(%d vertices, %d edges)" (Lb_graph.Graph.vertex_count g)
    (Lb_graph.Graph.edge_count g)

(* --- SAT oracles --- *)

let truth_table_sat f =
  let n = Cnf.nvars f in
  assert (n <= 16);
  let a = Array.make n false in
  let rec search v =
    if v = n then Cnf.satisfies f a
    else begin
      a.(v) <- false;
      search (v + 1)
      ||
      (a.(v) <- true;
       search (v + 1))
    end
  in
  search 0

let dpll_vs_truth_table () =
  check ~name:"dpll_vs_truth_table" ~base:0x11 ~max_size:12
    (gen_cnf ~k:3 ~ratio:4.2 ()) show_cnf (fun f ->
      match Dpll.solve f with
      | Some a -> Cnf.satisfies f a && truth_table_sat f
      | None -> not (truth_table_sat f))

let twosat_vs_dpll () =
  check ~name:"twosat_vs_dpll" ~base:0x12 ~max_size:12
    (gen_cnf ~k:2 ~ratio:1.8 ()) show_cnf (fun f ->
      match (Lb_sat.Two_sat.solve f, Dpll.solve f) with
      | Some a, Some _ -> Cnf.satisfies f a
      | None, None -> true
      | _ -> false)

let count_models_vs_truth_table () =
  check ~name:"count_models_vs_truth_table" ~base:0x13 ~max_size:8
    (gen_cnf ~k:3 ~ratio:3.0 ()) show_cnf (fun f ->
      let n = Cnf.nvars f in
      let brute = ref 0 in
      let a = Array.make n false in
      let rec go v =
        if v = n then (if Cnf.satisfies f a then incr brute)
        else begin
          a.(v) <- false;
          go (v + 1);
          a.(v) <- true;
          go (v + 1)
        end
      in
      go 0;
      Dpll.count_models f = !brute)

(* --- CSP oracles --- *)

let solver_vs_bruteforce () =
  check ~name:"csp_solver_vs_bruteforce" ~base:0x21 ~max_size:7
    (gen_csp ~width:2 ~domain_size:3 ()) show_csp (fun csp ->
      match (Lb_csp.Solver.solve csp, Csp.solve_bruteforce csp) with
      | Some a, Some _ -> Csp.satisfies csp a
      | None, None -> true
      | _ -> false)

let freuder_vs_bruteforce () =
  check ~name:"freuder_count_vs_bruteforce" ~base:0x22 ~max_size:7
    (gen_csp ~width:2 ~domain_size:3 ()) show_csp (fun csp ->
      Lb_csp.Freuder.count csp = Csp.count_bruteforce csp)

let freuder_nice_vs_bruteforce () =
  check ~name:"freuder_nice_count_vs_bruteforce" ~base:0x23 ~max_size:7
    (gen_csp ~width:2 ~domain_size:3 ()) show_csp (fun csp ->
      Lb_csp.Freuder_nice.count csp = Csp.count_bruteforce csp)

let solver_count_vs_bruteforce () =
  check ~name:"solver_count_vs_bruteforce" ~base:0x24 ~max_size:7
    (gen_csp ~width:3 ~domain_size:2 ()) show_csp (fun csp ->
      Lb_csp.Solver.count csp = Csp.count_bruteforce csp)

(* --- join engines vs the hash-join oracle --- *)

let joins_vs_oracle () =
  check ~name:"gj_lftj_vs_hash_join" ~base:0x31 ~max_size:8 gen_cq show_cq
    (fun (db, q) ->
      let oracle = Q.answer db q in
      let n = Rel.cardinality oracle in
      Gj.count db q = n && Lf.count db q = n
      && Rel.equal_modulo_order (Gj.answer db q) oracle
      && Rel.equal_modulo_order (Lf.answer db q) oracle)

(* The compiled tier's Domain-parallel driver against the sequential
   interpreted oracle: same count, same work counters. *)
let joins_parallel_vs_sequential () =
  check ~name:"gj_pool_vs_sequential" ~base:0x32 ~max_size:8 gen_cq
    show_cq (fun (db, q) ->
      let gc = Gj.fresh_counters () and lc = Lf.fresh_counters () in
      let n = Gj.count ~counters:gc db q in
      let nl = Lf.count ~counters:lc db q in
      Lb_util.Pool.with_pool 2 (fun pool ->
          let ctx = Lb_util.Exec.make ~pool () in
          let pooled engine =
            let c = C.fresh_counters () in
            let k = C.count ~counters:c ~ctx (C.lower ~engine q) db q in
            (k, c.C.work, c.C.emitted)
          in
          pooled C.Generic = (n, gc.Gj.intersections, gc.Gj.emitted)
          && pooled C.Leapfrog = (nl, lc.Lf.seeks, lc.Lf.emitted)))

(* --- the decomposition route's evidence race --- *)

(* Cyclic shapes with fhw < rho*: the 5-cycle and 6-cycle (fhw 2 vs
   2.5 and 3) and the triangle with a pendant edge (fhw 1.5 vs 2). *)
let race_shapes =
  [|
    "R(a,b), S(b,c), T(c,d), U(d,e), V(e,a)";
    "R(a,b), S(b,c), T(c,d), U(d,e), V(e,f), W(f,a)";
    "R(a,b), S(b,c), T(a,c), U(c,d)";
  |]

(* One shape over two databases: random edges, and the AGM worst case
   (Theorem 3.2), which is where the decomposition earns its keep. *)
let gen_race : (Q.t * Db.t * Db.t) gen =
 fun rng ~size ->
  let q = Q.parse race_shapes.(Prng.int rng (Array.length race_shapes)) in
  let verts = size + 2 in
  let random =
    Db.of_list
      (List.map
         (fun (a : Q.atom) ->
           ( a.Q.rel,
             Rel.make [| "u"; "v" |]
               (List.init (3 * size) (fun _ ->
                    [| Prng.int rng verts; Prng.int rng verts |])) ))
         q)
  in
  (q, random, Lb_relalg.Agm.worst_case_database q ~n:(4 * size))

let show_race (q, _, _) = Q.to_string q

(* The raced route equals the Generic Join oracle on both databases,
   a fallback costs at most B ticks on top of the bag route's, and the
   case set reaches both verdicts. *)
let race_vs_oracle () =
  let module Dj = Lb_relalg.Decomposed_join in
  let verdicts = Hashtbl.create 2 in
  let ticks_of f =
    let budget = Lb_util.Budget.create () in
    let r = f (Lb_util.Exec.make ~budget ()) in
    (r, Lb_util.Budget.used budget)
  in
  check ~name:"race_vs_oracle" ~base:0x71 ~min_size:4 ~max_size:8 gen_race
    show_race (fun (q, random, worst) ->
      let fhw, td = Lb_hypergraph.Fhw.decomposition ~max_n:8 (Q.hypergraph q) in
      let rho = Option.get (Lb_relalg.Agm.rho_star q) in
      fhw < rho -. 1e-6
      && List.for_all
           (fun db ->
             let (rel, verdict), ticks =
               ticks_of (fun ctx -> Dj.race ~ctx ~decomposition:td db q)
             in
             let within_bound =
               match verdict with
               | Dj.Flat ->
                   Hashtbl.replace verdicts "flat" ();
                   ticks <= Dj.race_budget td db q
               | Dj.Bags _ ->
                   Hashtbl.replace verdicts "bags" ();
                   let _, bag_ticks =
                     ticks_of (fun ctx ->
                         Dj.answer ~ctx ~compile:true ~decomposition:td db q)
                   in
                   ticks <= Dj.race_budget td db q + bag_ticks
             in
             within_bound && Rel.equal_modulo_order rel (Gj.answer db q))
           [ random; worst ]);
  List.iter
    (fun v ->
      Alcotest.(check bool) ("some case answered " ^ v) true
        (Hashtbl.mem verdicts v))
    [ "flat"; "bags" ]

(* --- reduction round-trips --- *)

let red_sat_to_3sat () =
  check ~name:"sat_to_3sat_preserves" ~base:0x41 ~max_size:10
    (gen_cnf ~k:3 ~ratio:3.5 ()) show_cnf Lb_reductions.Sat_to_3sat.preserves

let red_sat_to_csp () =
  check ~name:"sat_to_csp_preserves" ~base:0x42 ~max_size:10
    (gen_cnf ~k:3 ~ratio:3.5 ()) show_cnf Lb_reductions.Sat_to_csp.preserves

let red_sat_to_coloring () =
  check ~name:"sat_to_coloring_preserves" ~base:0x43 ~max_size:6
    (gen_cnf ~k:3 ~ratio:3.0 ()) show_cnf
    Lb_reductions.Sat_to_coloring.preserves

let red_sat_to_ov () =
  check ~name:"sat_to_ov_preserves" ~base:0x44 ~max_size:8
    (gen_cnf ~k:3 ~ratio:4.0 ()) show_cnf Lb_reductions.Sat_to_ov.preserves

let red_boolean_csp_to_2sat () =
  check ~name:"boolean_csp_to_2sat_preserves" ~base:0x45 ~max_size:8
    (gen_csp ~width:2 ~domain_size:2 ()) show_csp
    Lb_reductions.Boolean_csp_to_2sat.preserves

let red_clique_to_csp () =
  check ~name:"clique_to_csp_preserves" ~base:0x46 ~max_size:8
    (gen_graph ~p:0.5 ()) show_graph (fun g ->
      Lb_reductions.Clique_to_csp.preserves g 3)

let red_complement () =
  check ~name:"complement_preserves" ~base:0x47 ~max_size:9
    (gen_graph ~p:0.4 ()) show_graph (fun g ->
      Lb_reductions.Complement.preserves_clique_is g 3
      && Lb_reductions.Complement.preserves_is_vc g)

let red_domset_to_csp () =
  check ~name:"domset_to_csp_preserves" ~base:0x48 ~max_size:8
    (gen_graph ~p:0.35 ()) show_graph (fun g ->
      Lb_reductions.Domset_to_csp.preserves g ~t:2 ~g:1
      && Lb_reductions.Domset_to_csp.preserves g ~t:2 ~g:2)

let red_ov_to_diameter () =
  check ~name:"ov_to_diameter_preserves" ~base:0x49 ~max_size:8
    (fun rng ~size ->
      Lb_finegrained.Ov.random rng ~n:(max 2 (min size 8)) ~dim:6 ~p:0.5)
    (fun inst ->
      Printf.sprintf "OV(%d/side, dim %d)"
        (Array.length inst.Lb_finegrained.Ov.left)
        inst.Lb_finegrained.Ov.dim)
    (fun inst ->
      match Lb_reductions.Ov_to_diameter.preserves inst with
      | ok -> ok
      | exception Lb_reductions.Ov_to_diameter.Trivial_yes ->
          (* an all-zero vector is orthogonal to everything *)
          Lb_finegrained.Ov.solve inst <> None)

let red_special_csp () =
  check ~name:"special_csp_preserves" ~base:0x4a ~max_size:8
    (gen_graph ~p:0.5 ()) show_graph (fun g ->
      Lb_reductions.Special_csp.preserves g 3)

(* --- the matmul kernel layer --- *)

(* Random rectangular Bool matrix pair with dimensions crossing the
   63-bit word boundary (including 0 and 1): size scales the range up
   to ~160 so non-multiple-of-63 widths, sub-word and multi-word rows
   all occur.  Dispatch would never pick M4R at these sizes, so the
   property calls each kernel explicitly. *)
let gen_bool_mats : (Lb_util.Matrix.Bool.t * Lb_util.Matrix.Bool.t) gen =
 fun rng ~size ->
  let module B = Lb_util.Matrix.Bool in
  let dim () =
    match Prng.int rng 8 with
    | 0 -> 0
    | 1 -> 1
    | 2 -> 62 + Prng.int rng 4 (* straddle the word boundary *)
    | _ -> Prng.int rng (16 * size + 2)
  in
  let n = dim () and m = dim () and p = dim () in
  let density = 0.05 +. Prng.float rng 0.9 in
  let a = B.init n m (fun _ _ -> Prng.bernoulli rng density) in
  let b = B.init m p (fun _ _ -> Prng.bernoulli rng density) in
  (a, b)

let show_bool_mats (a, b) =
  let module B = Lb_util.Matrix.Bool in
  let an, am = B.dims a and bn, bm = B.dims b in
  Printf.sprintf "A %dx%d * B %dx%d" an am bn bm

(* All four product paths are bit-identical, and match a per-entry
   triple loop oracle. *)
let matmul_kernels_agree () =
  check ~name:"matmul_kernels_agree" ~base:0x51 ~max_size:10 gen_bool_mats
    show_bool_mats (fun (a, b) ->
      let module B = Lb_util.Matrix.Bool in
      let c = B.mul_naive a b in
      let cb = B.mul_blocked a b in
      let cm = B.mul_m4r a b in
      let cp =
        Lb_util.Pool.with_pool 2 (fun pool ->
            B.mul_m4r ~ctx:(Lb_util.Exec.make ~pool ()) a b)
      in
      let cbp =
        Lb_util.Pool.with_pool 2 (fun pool ->
            B.mul_blocked ~ctx:(Lb_util.Exec.make ~pool ()) a b)
      in
      let cd = B.mul a b in
      let n, m = B.dims a and _, p = B.dims b in
      let oracle_ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to p - 1 do
          let e = ref false in
          for k = 0 to m - 1 do
            if B.get a i k && B.get b k j then e := true
          done;
          if B.get c i j <> !e then oracle_ok := false
        done
      done;
      !oracle_ok && B.equal c cb && B.equal c cm && B.equal c cp
      && B.equal c cbp && B.equal c cd)

(* mul_count agrees with the Int product of the 0/1 lifts. *)
let mul_count_vs_int () =
  check ~name:"mul_count_vs_int" ~base:0x52 ~max_size:8 gen_bool_mats
    show_bool_mats (fun (a, b) ->
      let module B = Lb_util.Matrix.Bool in
      let module I = Lb_util.Matrix.Int in
      let c = B.mul_count a b in
      let n, m = B.dims a and _, p = B.dims b in
      let ai = I.init n m (fun i j -> if B.get a i j then 1 else 0) in
      let bi = I.init m p (fun i j -> if B.get b i j then 1 else 0) in
      let ci = I.mul ai bi in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to p - 1 do
          if I.get c i j <> I.get ci i j then ok := false
        done
      done;
      !ok)

(* The blocked OV route returns the same witness as the quadratic scan
   (row-major-first), sequentially and under a pool. *)
let gen_ov_instance : Lb_finegrained.Ov.instance gen =
 fun rng ~size ->
  let n = 1 + Prng.int rng (4 * size) in
  let dim = 1 + Prng.int rng 70 in
  (* p low enough that witnesses actually occur *)
  let p = 0.2 +. Prng.float rng 0.6 in
  Lb_finegrained.Ov.random rng ~n ~dim ~p

let show_ov inst =
  Printf.sprintf "OV n=%d dim=%d"
    (Array.length inst.Lb_finegrained.Ov.left)
    inst.Lb_finegrained.Ov.dim

let ov_blocked_vs_quadratic () =
  check ~name:"ov_blocked_vs_quadratic" ~base:0x53 ~max_size:12
    gen_ov_instance show_ov (fun inst ->
      let module Ov = Lb_finegrained.Ov in
      let reference = Ov.solve inst in
      Ov.solve_blocked inst = reference
      && Lb_util.Pool.with_pool 2 (fun pool ->
             let ctx = Lb_util.Exec.make ~pool () in
             Ov.solve_blocked ~ctx inst = reference))

(* --- sharded execution vs unsharded --- *)

module Shard = Lb_relalg.Shard
module Exec = Lb_util.Exec

let counters_list m =
  List.sort compare (Lb_util.Metrics.counters m)

(* For every k, the compiled sharded driver must reproduce the
   sequential interpreted oracle bit-for-bit: same answer relation,
   same engine counters, same metrics deltas.  Exercised with and
   without a pool (the pool path also covers the unit merge order). *)
let sharded_bit_identical ?(ks = [ 1; 2; 3; 7 ]) (db, q) =
  let gj_ref = Gj.fresh_counters () in
  let gj_sink = Lb_util.Metrics.create () in
  let gj_ans = Gj.answer ~ctx:(Exec.make ~metrics:gj_sink ()) db q in
  ignore (Gj.count ~counters:gj_ref db q);
  let lf_ref = Lf.fresh_counters () in
  let lf_sink = Lb_util.Metrics.create () in
  let lf_ans = Lf.answer ~ctx:(Exec.make ~metrics:lf_sink ()) db q in
  ignore (Lf.count ~counters:lf_ref db q);
  let gj_ir = C.lower ~engine:C.Generic q in
  let lf_ir = C.lower ~engine:C.Leapfrog q in
  List.for_all
    (fun k ->
      let gj_c = C.fresh_counters () in
      let gj_sk = Lb_util.Metrics.create () in
      let gj_shard =
        C.run_sharded
          ~ctx:(Exec.make ~metrics:gj_sk ())
          ~counters:gj_c ~shards:k gj_ir db q
      in
      let lf_c = C.fresh_counters () in
      let lf_sk = Lb_util.Metrics.create () in
      let lf_shard =
        C.run_sharded
          ~ctx:(Exec.make ~metrics:lf_sk ())
          ~counters:lf_c ~shards:k lf_ir db q
      in
      let pooled_equal =
        Lb_util.Pool.with_pool 2 (fun pool ->
            let pc = C.fresh_counters () in
            let n =
              C.count_sharded ~ctx:(Exec.make ~pool ())
                ~counters:pc ~shards:k gj_ir db q
            in
            n = gj_ref.Gj.emitted
            && pc.C.work = gj_ref.Gj.intersections
            &&
            let lc = C.fresh_counters () in
            let nl =
              C.count_sharded ~ctx:(Exec.make ~pool ())
                ~counters:lc ~shards:k lf_ir db q
            in
            nl = lf_ref.Lf.emitted && lc.C.work = lf_ref.Lf.seeks)
      in
      Rel.equal gj_shard gj_ans
      && gj_c.C.work = gj_ref.Gj.intersections
      && gj_c.C.emitted = gj_ref.Gj.emitted
      && counters_list gj_sk = counters_list gj_sink
      && Rel.equal lf_shard lf_ans
      && lf_c.C.work = lf_ref.Lf.seeks
      && lf_c.C.emitted = lf_ref.Lf.emitted
      && counters_list lf_sk = counters_list lf_sink
      && pooled_equal)
    ks

let sharded_vs_unsharded () =
  check ~name:"sharded_vs_unsharded" ~base:0x61 ~max_size:8 gen_cq show_cq
    (fun inst -> sharded_bit_identical inst)

(* Adversarial placement: every value drawn from a pool that hashes to
   shard 0 of k=3, so one shard carries all tuples and the others are
   empty - the skew split and the empty-shard streams must both cope. *)
let gen_cq_one_shard : (Db.t * Q.t) gen =
 fun rng ~size ->
  let k = 3 in
  let pool =
    (* values landing in shard 0; plenty exist below 10_000 *)
    let rec collect v acc n =
      if n = 0 then Array.of_list (List.rev acc)
      else if Shard.shard_of ~k v = 0 then collect (v + 1) (v :: acc) (n - 1)
      else collect (v + 1) acc n
    in
    collect 0 [] 64
  in
  let dom = 2 + Prng.int rng (max 1 size) in
  let pick () = pool.(Prng.int rng (min dom (Array.length pool))) in
  let atoms = [ "R"; "S"; "T" ] in
  let db = ref Db.empty in
  List.iter
    (fun name ->
      let ntuples = 1 + Prng.int rng (2 * dom) in
      let tuples = List.init ntuples (fun _ -> [| pick (); pick () |]) in
      db := Db.add !db name (Rel.make [| "u"; "v" |] tuples))
    atoms;
  ( !db,
    [
      Q.atom "R" [| "x"; "y" |];
      Q.atom "S" [| "y"; "z" |];
      Q.atom "T" [| "z"; "x" |];
    ] )

let sharded_one_shard_adversarial () =
  check ~name:"sharded_one_shard_adversarial" ~base:0x62 ~max_size:8
    gen_cq_one_shard show_cq
    (sharded_bit_identical ~ks:[ 3 ])

(* Skew: one heavy first-variable value with a fan-out past the heavy
   split threshold, so the depth-2 task expansion and the 2x-mean unit
   split both run. *)
let gen_cq_skew : (Db.t * Q.t) gen =
 fun rng ~size ->
  let heavy = 200 + (4 * size) in
  let hot = Prng.int rng 5 in
  let r =
    List.init heavy (fun i -> [| hot; i |])
    @ List.init 10 (fun i -> [| 5 + Prng.int rng 20; i |])
  in
  let s = List.init 40 (fun i -> [| i; Prng.int rng 30 |]) in
  let db =
    Db.of_list
      [
        ("R", Rel.make [| "u"; "v" |] r); ("S", Rel.make [| "u"; "v" |] s);
      ]
  in
  (db, [ Q.atom "R" [| "x"; "y" |]; Q.atom "S" [| "y"; "z" |] ])

let sharded_skew_split () =
  check ~name:"sharded_skew_split" ~base:0x63 ~max_size:8 gen_cq_skew show_cq
    (fun inst -> sharded_bit_identical inst)

(* Shard module laws: partition preserves content, co-partitions align,
   merge_sorted restores the relation - and rejects, rather than
   re-sorts, shards that are out of order or overlap. *)
let shard_partition_roundtrip () =
  check ~name:"shard_partition_roundtrip" ~base:0x64 ~max_size:10
    (fun rng ~size ->
      let n = 1 + Prng.int rng (8 * size) in
      let dom = 1 + Prng.int rng 50 in
      Rel.make [| "a"; "b" |]
        (List.init n (fun _ -> [| Prng.int rng dom; Prng.int rng dom |])))
    (fun r -> Printf.sprintf "Rel(%d tuples)" (Rel.cardinality r))
    (fun r ->
      List.for_all
        (fun k ->
          let parts = Shard.partition ~k ~attr:"a" r in
          Array.length parts = k
          && Rel.equal (Shard.merge_sorted parts) r
          && Array.to_list parts
             |> List.mapi (fun s p ->
                    Array.for_all
                      (fun t -> Shard.shard_of ~k t.(0) = s)
                      (Rel.tuples p))
             |> List.for_all Fun.id)
        [ 1; 2; 5 ]
      &&
      let attrs = Rel.attrs r and rows = Rel.tuples r in
      let rejects shards =
        match Shard.merge_sorted (Array.map (Rel.of_sorted_distinct attrs) shards) with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      let n = Array.length rows in
      (* reversed rows: out of order once there are two *)
      (n < 2 || rejects [| Array.of_list (List.rev (Array.to_list rows)) |])
      (* a row in two shards: the merge would emit it twice *)
      && rejects [| rows; [| rows.(n / 2) |] |])

(* The view's split: one pass that keeps input order, each bucket built
   without a sort.  On the sorted duplicate-free relations every
   constructor and [Query.bind_atom] hand it, each bucket must equal
   [Relation.make] of its own rows - same rows, same order. *)
let shard_split_buckets_sorted () =
  check ~name:"shard_split_buckets_sorted" ~base:0x65 ~max_size:10
    (fun rng ~size ->
      let width = 1 + Prng.int rng 3 in
      let n = Prng.int rng (8 * size) in
      let dom = 1 + Prng.int rng 40 in
      let attrs = Array.init width (Printf.sprintf "c%d") in
      let rel =
        Rel.make attrs
          (List.init n (fun _ -> Array.init width (fun _ -> Prng.int rng dom)))
      in
      (rel, attrs.(Prng.int rng width)))
    (fun (r, attr) ->
      Printf.sprintf "Rel(%d tuples, width %d) on %s" (Rel.cardinality r)
        (Rel.width r) attr)
    (fun (r, attr) ->
      List.for_all
        (fun k ->
          let parts = Shard.partition ~k ~attr r in
          Array.length parts = k
          && Array.fold_left (fun n p -> n + Rel.cardinality p) 0 parts
             = Rel.cardinality r
          && Array.for_all
               (fun p ->
                 let rows = Rel.tuples p in
                 rows = Rel.tuples (Rel.make (Rel.attrs p) (Array.to_list rows)))
               parts)
        [ 1; 2; 3; 7 ])

(* A hypergraph with at most two edges is alpha-acyclic, so the planner
   routes every such query to Yannakakis - self-joins and repeated
   variables included. *)
let planner_small_queries_acyclic () =
  check ~name:"planner_small_queries_acyclic" ~base:0x66 ~max_size:6
    (fun rng ~size ->
      let arity = [| 1 + Prng.int rng 3; 1 + Prng.int rng 3 |] in
      let db =
        Db.of_list
          (List.init 2 (fun i ->
               let w = arity.(i) in
               ( Printf.sprintf "R%d" i,
                 Rel.make
                   (Array.init w (Printf.sprintf "c%d"))
                   (List.init (1 + Prng.int rng (4 * size)) (fun _ ->
                        Array.init w (fun _ -> Prng.int rng 5))) )))
      in
      let nvars = 1 + Prng.int rng 4 in
      let atom () =
        let r = Prng.int rng 2 in
        Q.atom (Printf.sprintf "R%d" r)
          (Array.init arity.(r) (fun _ -> Printf.sprintf "x%d" (Prng.int rng nvars)))
      in
      (db, List.init (Prng.int rng 3) (fun _ -> atom ())))
    show_cq
    (fun (db, q) ->
      (Lb_service.Planner.choose db q).Lb_service.Planner.engine
      = Lb_service.Planner.Yannakakis)

(* The runner itself: a false property must fail, shrink to the minimum
   size, and report a replayable seed. *)
let runner_reports_failures () =
  let saw =
    try
      check ~name:"always_false" ~base:0x99 ~min_size:2 ~max_size:64
        (fun rng ~size -> size + Prng.int rng 1)
        string_of_int
        (fun _ -> false);
      None
    with e -> Some (Printexc.to_string e)
  in
  match saw with
  | None -> Alcotest.fail "false property went unreported"
  | Some msg ->
      Alcotest.(check bool) "reports a replay seed" true
        (let has sub =
           let n = String.length msg and m = String.length sub in
           let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
           go 0
         in
         has "seed=" && has "size=2")

let suite =
  [
    ("prop: runner reports failures", `Quick, runner_reports_failures);
    ("prop: DPLL vs truth table", `Quick, dpll_vs_truth_table);
    ("prop: 2SAT vs DPLL", `Quick, twosat_vs_dpll);
    ("prop: #models vs truth table", `Quick, count_models_vs_truth_table);
    ("prop: CSP solver vs brute force", `Quick, solver_vs_bruteforce);
    ("prop: Freuder DP vs brute force", `Quick, freuder_vs_bruteforce);
    ( "prop: nice-form DP vs brute force",
      `Quick,
      freuder_nice_vs_bruteforce );
    ("prop: solver count vs brute force", `Quick, solver_count_vs_bruteforce);
    ("prop: GJ/LFTJ vs hash join", `Quick, joins_vs_oracle);
    ("prop: pooled joins vs sequential", `Quick, joins_parallel_vs_sequential);
    ("prop: raced decomposition vs GJ", `Quick, race_vs_oracle);
    ("prop: SAT->3SAT round trip", `Quick, red_sat_to_3sat);
    ("prop: SAT->CSP round trip", `Quick, red_sat_to_csp);
    ("prop: 3SAT->coloring round trip", `Quick, red_sat_to_coloring);
    ("prop: SAT->OV round trip", `Quick, red_sat_to_ov);
    ("prop: Boolean CSP->2SAT round trip", `Quick, red_boolean_csp_to_2sat);
    ("prop: clique->CSP round trip", `Quick, red_clique_to_csp);
    ("prop: complement equivalences", `Quick, red_complement);
    ("prop: domset->CSP round trip", `Quick, red_domset_to_csp);
    ("prop: OV->diameter round trip", `Quick, red_ov_to_diameter);
    ("prop: clique->special CSP round trip", `Quick, red_special_csp);
    ("prop: matmul kernels bit-identical", `Quick, matmul_kernels_agree);
    ("prop: mul_count vs Int product", `Quick, mul_count_vs_int);
    ("prop: OV blocked vs quadratic scan", `Quick, ov_blocked_vs_quadratic);
    ("prop: sharded joins bit-identical", `Quick, sharded_vs_unsharded);
    ( "prop: sharded all-tuples-one-shard",
      `Quick,
      sharded_one_shard_adversarial );
    ("prop: sharded skew split", `Quick, sharded_skew_split);
    ("prop: shard partition round trip", `Quick, shard_partition_roundtrip);
    ("prop: shard split buckets sorted", `Quick, shard_split_buckets_sorted);
    ( "prop: planner routes <=2 atoms acyclic",
      `Quick,
      planner_small_queries_acyclic );
  ]
