(* E3 - Theorem 4.2 (Freuder): CSP with primal treewidth k is solvable in
   O(|V| * |D|^{k+1}).

   Planted random CSPs over partial k-trees; we sweep the domain size at
   fixed width and fit the exponent of |D| (claim: k+1), then sweep |V|
   at fixed width/domain and fit the exponent of |V| (claim: 1). *)

module Gen = Lb_csp.Generators
module Freuder = Lb_csp.Freuder
module Prng = Lb_util.Prng

let bench_domain_sweep ctx width domains nvars =
  let rng = Harness.rng (1000 + width) in
  List.map
    (fun d ->
      let csp, g, _ =
        Gen.bounded_treewidth rng ~nvars ~width ~domain_size:d ~density:0.4
          ~plant:true
      in
      (* use the exact decomposition of the generated graph so the DP
         width is the nominal one *)
      let _, order = Lb_graph.Treewidth.heuristic_upper_bound g in
      let td = Lb_graph.Tree_decomposition.of_elimination_order g order in
      let count, t =
        Harness.time (fun () -> Freuder.count ~decomposition:td ~ctx csp)
      in
      (d, count, t))
    domains

let run () =
  (* domain sweeps per width *)
  let nvars = 40 in
  let specs =
    [
      (1, Harness.sizes [ 8; 16; 32; 64 ]);
      (2, Harness.sizes [ 8; 16; 32 ]);
      (3, Harness.sizes [ 4; 8; 16 ]);
    ]
  in
  let rows = ref [] in
  let verdict_parts = ref [] in
  let m = Lb_util.Metrics.create () in
  let ctx = Lb_util.Exec.make ~metrics:m () in
  List.iter
    (fun (width, domains) ->
      let results = bench_domain_sweep ctx width domains nvars in
      List.iter
        (fun (d, count, t) ->
          rows :=
            [
              string_of_int width;
              string_of_int nvars;
              string_of_int d;
              (if count <> 0 then "yes" else "no");
              Harness.secs t;
            ]
            :: !rows)
        results;
      let xs = Array.of_list (List.map (fun (d, _, _) -> float_of_int d) results) in
      let ys = Array.of_list (List.map (fun (_, _, t) -> t) results) in
      let e = Harness.fit_power xs ys in
      verdict_parts :=
        Printf.sprintf "width %d: time ~ D^%.2f (claim <= %d)" width e (width + 1)
        :: !verdict_parts)
    specs;
  Harness.counters_of_metrics "E3" m;
  Harness.table
    [ "width k"; "|V|"; "|D|"; "satisfiable"; "Freuder time" ]
    (List.rev !rows);
  (* |V| sweep at width 2, D = 8 *)
  let rng = Harness.rng 77 in
  let nv_results =
    List.map
      (fun nv ->
        let csp, g, _ =
          Gen.bounded_treewidth rng ~nvars:nv ~width:2 ~domain_size:8
            ~density:0.4 ~plant:true
        in
        let _, order = Lb_graph.Treewidth.heuristic_upper_bound g in
        let td = Lb_graph.Tree_decomposition.of_elimination_order g order in
        let _, t = Harness.time (fun () -> Freuder.count ~decomposition:td csp) in
        (nv, t))
      (Harness.sizes [ 25; 50; 100; 200 ])
  in
  print_newline ();
  Harness.table [ "|V| (k=2, D=8)"; "Freuder time" ]
    (List.map (fun (nv, t) -> [ string_of_int nv; Harness.secs t ]) nv_results);
  let xs = Array.of_list (List.map (fun (nv, _) -> float_of_int nv) nv_results) in
  let ys = Array.of_list (List.map (fun (_, t) -> t) nv_results) in
  let ev = Harness.fit_power xs ys in
  let parts = String.concat "; " (List.rev !verdict_parts) in
  Harness.verdict true
    (Printf.sprintf "%s; time ~ |V|^%.2f (claim: 1)" parts ev)

let experiment =
  {
    Harness.id = "E3";
    title = "Freuder's treewidth DP scaling";
    claim = "bounded-treewidth CSP solvable in O(|V| * |D|^{k+1}) (Thm 4.2)";
    run;
  }
