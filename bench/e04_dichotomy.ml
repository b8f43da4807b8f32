(* E4 - Theorem 5.2 (Grohe-Schwentick-Segoufin): CSP(G) is tractable iff
   G has bounded treewidth.

   Two instance families with identical variable counts and domain size:
   paths (treewidth 1) and cliques (treewidth k-1).  Solving time stays
   flat on the bounded-treewidth family and explodes with k on the
   unbounded one, at the same domain size. *)

module Gen = Lb_csp.Generators
module Solver = Lb_csp.Solver
module Freuder = Lb_csp.Freuder
module Graph_gen = Lb_graph.Generators
module Prng = Lb_util.Prng

(* adversarial-ish random instances: dense enough that search cannot
   shortcut, no planted solution *)
let instance rng g d =
  fst (Gen.binary_over_graph rng g ~domain_size:d ~density:0.45 ~plant:false)

let run () =
  let d = 8 in
  let rng = Harness.rng 2024 in
  let rows = ref [] in
  let m = Lb_util.Metrics.create () in
  let ctx = Lb_util.Exec.make ~metrics:m () in
  (* paths with growing length *)
  let path_times =
    List.map
      (fun n ->
        let csp = instance rng (Graph_gen.path n) d in
        let _, t = Harness.time (fun () -> Freuder.solvable ~ctx csp) in
        (n, t))
      (Harness.sizes [ 8; 16; 32; 64 ])
  in
  List.iter
    (fun (n, t) ->
      rows := [ "path"; string_of_int n; "1"; string_of_int d; Harness.secs t ] :: !rows)
    path_times;
  (* cliques with growing size: same solver budget *)
  let clique_times =
    List.map
      (fun k ->
        let csp = instance rng (Graph_gen.clique k) d in
        let _, t = Harness.time (fun () -> Freuder.solvable ~ctx csp) in
        (k, t))
      (* kept full even under --smoke: the exponential-vs-flat verdict
         needs the clique family to reach its blow-up regime, and the
         whole sweep is well under a second *)
      [ 3; 4; 5; 6; 7 ]
  in
  List.iter
    (fun (k, t) ->
      rows :=
        [ "clique"; string_of_int k; string_of_int (k - 1); string_of_int d; Harness.secs t ]
        :: !rows)
    clique_times;
  Harness.counters_of_metrics "E4" m;
  Harness.table
    [ "family"; "|V|"; "treewidth"; "|D|"; "solve time" ]
    (List.rev !rows);
  let ratio l =
    match (List.nth_opt l 0, List.nth_opt l (List.length l - 1)) with
    | Some (_, t0), Some (_, t1) -> t1 /. max t0 1e-9
    | _ -> nan
  in
  let path_growth = ratio path_times in
  let clique_growth = ratio clique_times in
  Harness.verdict
    (clique_growth > 10.0 *. path_growth)
    (Printf.sprintf
       "paths (8->64 vars): time grew %.1fx (near-linear); cliques (3->7 \
        vars): time grew %.1fx (exponential in treewidth) - only the \
        bounded-treewidth class is tractable"
       path_growth clique_growth)

let experiment =
  {
    Harness.id = "E4";
    title = "CSP(G) dichotomy: bounded vs unbounded treewidth";
    claim =
      "CSP(G) is polynomial iff G has bounded treewidth, else W[1]-hard \
       (Thm 5.2)";
    run;
  }
