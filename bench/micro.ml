(* Bechamel micro-benchmarks: one Test.make per core kernel, giving
   statistically robust per-operation costs to complement the scaling
   sweeps of E1-E15. *)

open Bechamel
open Toolkit

module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Prng = Lb_util.Prng

let triangle = Q.parse "R(a,b), S(b,c), T(a,c)"

let triangle_db n =
  let rng = Harness.rng 42 in
  let bin () =
    let tuples = ref [] in
    for _ = 1 to n do
      tuples := [| Prng.int rng 64; Prng.int rng 64 |] :: !tuples
    done;
    !tuples
  in
  Db.of_list
    [
      ("R", R.make [| "a"; "b" |] (bin ()));
      ("S", R.make [| "b"; "c" |] (bin ()));
      ("T", R.make [| "a"; "c" |] (bin ()));
    ]

let tests () =
  let db = triangle_db 2048 in
  let wc_db = Lb_relalg.Agm.worst_case_database triangle ~n:1024 in
  let rng = Harness.rng 7 in
  let sat = Lb_sat.Cnf.random_ksat rng ~nvars:20 ~nclauses:85 ~k:3 in
  let sat2 = Lb_sat.Cnf.random_ksat rng ~nvars:2000 ~nclauses:4000 ~k:2 in
  let csp, g, _ =
    Lb_csp.Generators.bounded_treewidth rng ~nvars:30 ~width:2 ~domain_size:8
      ~density:0.4 ~plant:true
  in
  let _, order = Lb_graph.Treewidth.heuristic_upper_bound g in
  let td = Lb_graph.Tree_decomposition.of_elimination_order g order in
  let dense = Lb_graph.Generators.gnp (Harness.rng 5) 256 0.3 in
  let a_str = Lb_finegrained.Edit_distance.random_string rng 512 4 in
  let b_str = Lb_finegrained.Edit_distance.random_string rng 512 4 in
  [
    Test.make ~name:"generic-join/triangle-skew-2k"
      (Staged.stage (fun () -> Lb_relalg.Generic_join.count db triangle));
    Test.make ~name:"leapfrog/triangle-skew-2k"
      (Staged.stage (fun () -> Lb_relalg.Leapfrog.count db triangle));
    Test.make ~name:"binary-plan/triangle-skew-2k"
      (Staged.stage (fun () -> Lb_relalg.Binary_plan.run db triangle));
    Test.make ~name:"generic-join/agm-worst-1k"
      (Staged.stage (fun () -> Lb_relalg.Generic_join.count wc_db triangle));
    Test.make ~name:"dpll/3sat-n20-transition"
      (Staged.stage (fun () -> Lb_sat.Dpll.solve sat));
    Test.make ~name:"two-sat/n2000"
      (Staged.stage (fun () -> Lb_sat.Two_sat.solve sat2));
    Test.make ~name:"freuder/tw2-d8-n30"
      (Staged.stage (fun () -> Lb_csp.Freuder.count ~decomposition:td csp));
    Test.make ~name:"triangle-matmul/n256-p0.3"
      (Staged.stage (fun () -> Lb_graph.Triangle.detect_matmul dense));
    Test.make ~name:"triangle-ayz/n256-p0.3"
      (Staged.stage (fun () -> Lb_graph.Triangle.detect_heavy_light dense));
    Test.make ~name:"edit-distance/n512"
      (Staged.stage (fun () ->
           Lb_finegrained.Edit_distance.quadratic a_str b_str));
    Test.make ~name:"lcs-bitparallel/n512"
      (Staged.stage (fun () -> Lb_finegrained.Lcs.bitparallel a_str b_str));
    Test.make ~name:"treewidth-minfill/n30"
      (Staged.stage (fun () -> Lb_graph.Treewidth.min_fill_order g));
    Test.make ~name:"freuder-nice/tw2-d8-n30"
      (Staged.stage (fun () -> Lb_csp.Freuder_nice.count ~decomposition:td csp));
    Test.make ~name:"yannakakis/path3-skew-2k"
      (Staged.stage
         (let pq = Q.parse "R(a,b), S(b,c), T(c,d)" in
          let pdb =
            let rng = Harness.rng 21 in
            let bin () =
              List.init 2048 (fun _ ->
                  [| Prng.int rng 64; Prng.int rng 64 |])
            in
            Db.of_list
              [
                ("R", R.make [| "a"; "b" |] (bin ()));
                ("S", R.make [| "b"; "c" |] (bin ()));
                ("T", R.make [| "c"; "d" |] (bin ()));
              ]
          in
          fun () -> Lb_relalg.Yannakakis.boolean_answer pdb pq));
    Test.make ~name:"simplex/rho*-of-LW4"
      (Staged.stage
         (let h =
            Q.parse "R(a,b,c), S(b,c,d), T(a,c,d), U(a,b,d)" |> Q.hypergraph
          in
          fun () -> Lb_hypergraph.Cover.rho_star h));
    Test.make ~name:"treewidth-exact/petersen"
      (Staged.stage
         (let petersen =
            Lb_graph.Graph.of_edges 10
              (List.init 5 (fun i -> (i, (i + 1) mod 5))
              @ List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5)))
              @ List.init 5 (fun i -> (i, 5 + i)))
          in
          fun () -> Lb_graph.Treewidth.exact petersen));
    Test.make ~name:"schaefer/bijunctive-solve-n50"
      (Staged.stage
         (let rng2 = Harness.rng 33 in
          let r_or =
            Lb_sat.Schaefer.relation_of_pred 2 (fun t -> t.(0) || t.(1))
          in
          let inst =
            {
              Lb_sat.Schaefer.nvars = 50;
              constraints =
                List.init 80 (fun _ ->
                    {
                      Lb_sat.Schaefer.scope = Prng.sample rng2 50 2;
                      rel = r_or;
                    });
            }
          in
          fun () -> Lb_sat.Schaefer.solve inst));
    Test.make ~name:"gauss/n400-m200"
      (Staged.stage
         (let sx =
            Lb_sat.Gauss.random (Harness.rng 8) ~nvars:400 ~nequations:200
              ~width:3
          in
          fun () -> Lb_sat.Gauss.solve sx));
    Test.make ~name:"core/decorated-C10"
      (Staged.stage
         (let s = Lb_structure.Structure.create [ ("E", 2) ] 15 in
          let add u v =
            Lb_structure.Structure.add_tuple s "E" [| u; v |];
            Lb_structure.Structure.add_tuple s "E" [| v; u |]
          in
          List.iteri (fun i () -> add i ((i + 1) mod 10)) (List.init 10 (fun _ -> ()));
          List.iteri (fun i () -> add (if i = 0 then 0 else 9 + i) (10 + i))
            (List.init 5 (fun _ -> ()));
          fun () -> Lb_structure.Core_struct.core s));
  ]

(* --- M1: the Boolean-matmul kernel sweep ---

   Times the four product paths (naive word loop, cache-blocked
   word-scan, Method of Four Russians, M4R + Domain pool) on random
   dense n x n matrices, asserts bit-identical outputs, fits the
   effective exponents, and records the naive->M4R crossover size.
   Registered as an experiment so it lands in BENCH_matmul.json under
   the determinism gate: the recorded counters (word counts, table
   builds) come from sequential runs only, making them byte-identical
   per seed; the timings are float metrics, suppressed under
   --counters-only. *)
let matmul_experiment =
  {
    Harness.id = "M1";
    title = "Boolean matmul kernel: naive vs blocked vs Four-Russians";
    claim =
      "fast matrix multiplication is the engine of Sections 7-8; M4R \
       tables drop the effective constant well below the naive word loop \
       (target: >= 2x at the largest size)";
    run =
      (fun () ->
        let module B = Lb_util.Matrix.Bool in
        let module Metrics = Lb_util.Metrics in
        (* smoke keeps the first two entries: 512 and 1024, the sizes
           where the M4R tables are amortized and the >= 2x acceptance
           bar applies *)
        let ns = Harness.sizes [ 512; 1024; 64; 128; 256 ] in
        let random_matrix rng n =
          B.init n n (fun _ _ -> Lb_util.Prng.bool rng)
        in
        let reps n = if n <= 128 then 7 else 5 in
        let rows = ref [] in
        let samples = ref [] in
        (* a full major collection before each series keeps GC debt
           accumulated by earlier kernels (each product allocates the
           result plus, for M4R, megabyte-scale tables) from landing
           stochastically inside another kernel's timing *)
        let timed r f =
          Gc.full_major ();
          Harness.median_time r f
        in
        (* The pooled series runs in a second pass so that the
           sequential timings never share the process with an idle
           domain: on this box even a parked pool participates in every
           stop-the-world minor collection and corrupts adjacent
           sequential measurements (see EXPERIMENTS.md engine notes). *)
        let pooled =
          Lb_util.Pool.with_pool 2 @@ fun pool ->
          List.map
            (fun n ->
              let rng = Harness.rng (100 + n) in
              let a = random_matrix rng n and b = random_matrix rng n in
              let ctx = Lb_util.Exec.make ~pool () in
              let c_pool = B.mul_m4r ~ctx a b in
              let t_pool = timed (reps n) (fun () -> B.mul_m4r ~ctx a b) in
              (n, c_pool, t_pool))
            ns
        in
        (* (n, naive_t, blocked_t, m4r_t, pool_t) *)
        List.iter
          (fun n ->
            let rng = Harness.rng (100 + n) in
            let a = random_matrix rng n and b = random_matrix rng n in
            let r = reps n in
            let c_naive = B.mul_naive a b in
            let c_blocked = B.mul_blocked a b in
            let c_m4r = B.mul_m4r a b in
            let c_pool, t_pool =
              let _, c, t = List.find (fun (n', _, _) -> n' = n) pooled in
              (c, t)
            in
            assert (B.equal c_naive c_blocked);
            assert (B.equal c_naive c_m4r);
            assert (B.equal c_naive c_pool);
            let t_naive = timed r (fun () -> B.mul_naive a b) in
            let t_blocked = timed r (fun () -> B.mul_blocked a b) in
            let t_m4r = timed r (fun () -> B.mul_m4r a b) in
            samples := (n, t_naive, t_blocked, t_m4r, t_pool) :: !samples;
            let nm = Printf.sprintf "M1.n%d" n in
            Harness.metric (nm ^ ".naive") t_naive;
            Harness.metric (nm ^ ".blocked") t_blocked;
            Harness.metric (nm ^ ".m4r") t_m4r;
            Harness.metric (nm ^ ".m4r_pool") t_pool;
            (* deterministic work counters, sequential paths only *)
            let count f =
              let m = Metrics.create () in
              ignore (f m);
              let c name = Option.value ~default:0 (Metrics.find_counter m name) in
              (c "matmul.words", c "matmul.table_builds")
            in
            let wn, _ =
              count (fun m -> B.mul_naive ~ctx:(Lb_util.Exec.make ~metrics:m ()) a b)
            in
            let wb, _ =
              count (fun m -> B.mul_blocked ~ctx:(Lb_util.Exec.make ~metrics:m ()) a b)
            in
            let wm, tb =
              count (fun m -> B.mul_m4r ~ctx:(Lb_util.Exec.make ~metrics:m ()) a b)
            in
            Harness.counter (nm ^ ".words.naive") wn;
            Harness.counter (nm ^ ".words.blocked") wb;
            Harness.counter (nm ^ ".words.m4r") wm;
            Harness.counter (nm ^ ".table_builds") tb;
            rows :=
              [
                string_of_int n;
                Harness.secs t_naive;
                Harness.secs t_blocked;
                Harness.secs t_m4r;
                Harness.secs t_pool;
                Harness.f2 (t_naive /. t_m4r);
              ]
              :: !rows)
          ns;
        Harness.table
          [ "n"; "naive"; "blocked"; "m4r"; "m4r+pool2"; "naive/m4r" ]
          (List.rev !rows);
        let samples = List.rev !samples in
        let xs =
          Array.of_list (List.map (fun (n, _, _, _, _) -> float_of_int n) samples)
        in
        let ys sel = Array.of_list (List.map sel samples) in
        let e_naive = Harness.fit_power xs (ys (fun (_, t, _, _, _) -> t)) in
        let e_blocked = Harness.fit_power xs (ys (fun (_, _, t, _, _) -> t)) in
        let e_m4r = Harness.fit_power xs (ys (fun (_, _, _, t, _) -> t)) in
        Harness.metric "M1.exponent.naive" e_naive;
        Harness.metric "M1.exponent.blocked" e_blocked;
        Harness.metric "M1.exponent.m4r" e_m4r;
        (* crossover: smallest measured n where M4R wins over naive *)
        let crossover =
          List.fold_left
            (fun acc (n, tn, _, tm, _) ->
              match acc with
              | Some _ -> acc
              | None -> if tm < tn then Some n else None)
            None
            (List.sort compare samples)
        in
        (match crossover with
        | Some n -> Harness.metric "M1.crossover.m4r_vs_naive" (float_of_int n)
        | None -> ());
        let n_max, t_naive_max, _, t_m4r_max, _ =
          List.fold_left
            (fun ((bn, _, _, _, _) as best) ((n, _, _, _, _) as s) ->
              if n > bn then s else best)
            (List.hd samples) samples
        in
        let speedup = t_naive_max /. t_m4r_max in
        Harness.metric "M1.speedup.at_max" speedup;
        Printf.printf
          "\nfitted exponents: naive %.2f, blocked %.2f, m4r %.2f; %s\n"
          e_naive e_blocked e_m4r
          (match crossover with
          | Some n -> Printf.sprintf "m4r overtakes naive by n = %d" n
          | None -> "no m4r/naive crossover in range");
        Harness.verdict (speedup >= 2.0)
          (Printf.sprintf
             "M4R is %.1fx the naive kernel at n = %d (acceptance: >= 2x)"
             speedup n_max));
  }

let run () =
  let suite =
    Test.make_grouped ~name:"lowerbounds" ~fmt:"%s/%s" (tests ())
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances suite in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n=== Bechamel micro-benchmarks (monotonic clock) ===\n";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> Lb_util.Stopwatch.pretty_seconds (e *. 1e-9)
        | _ -> "n/a"
      in
      rows := [ name; est ] :: !rows)
    results;
  let sorted = List.sort compare !rows in
  Lb_util.Tabulate.print ~header:[ "kernel"; "time/run" ] sorted
