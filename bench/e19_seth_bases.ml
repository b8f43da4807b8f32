(* E19 (extension) - the anatomy of SETH (Section 7): s_k, the
   exponential base of k-SAT, grows with k.

   The SETH is precisely the statement that lim s_k = 1 (base 2 in our
   c^n notation): longer clauses leave ever less structure for solvers
   to exploit.  We fit the DPLL base c in time ~ c^n on random
   unsatisfiable k-SAT (slightly above each k's threshold ratio) for
   k = 3, 4, 5 and check that the measured base climbs towards 2 -
   the paper's observation that the known k-SAT algorithms have bases
   1.308 (k=3), 1.469 (k=4), ... increasing in k. *)

module Cnf = Lb_sat.Cnf
module Dpll = Lb_sat.Dpll
module Prng = Lb_util.Prng

(* slightly above the satisfiability thresholds (~4.27, ~9.93, ~21.1) *)
let specs =
  [
    (3, 4.8, [ 40; 55; 70; 85 ]);
    (4, 11.0, [ 28; 36; 44; 52 ]);
    (5, 23.0, [ 24; 29; 34; 39 ]);
  ]

let run () =
  let rows = ref [] in
  let mtr = Lb_util.Metrics.create () in
  let ctx = Lb_util.Exec.make ~metrics:mtr () in
  let bases = ref [] in
  List.iter
    (fun (k, ratio, ns) ->
      let pts =
        List.map
          (fun n ->
            let m = int_of_float (ratio *. float_of_int n) in
            let times =
              List.init 3 (fun i ->
                  let rng = Harness.rng ((n * 37) + (k * 1009) + i) in
                  let f = Cnf.random_ksat rng ~nvars:n ~nclauses:m ~k in
                  snd
                    (Lb_util.Stopwatch.time (fun () ->
                         Dpll.solve ~ctx f)))
            in
            let median = List.nth (List.sort compare times) 1 in
            rows :=
              [
                string_of_int k;
                string_of_int n;
                string_of_int m;
                Harness.secs median;
              ]
              :: !rows;
            (float_of_int n, median))
          (Harness.sizes ns)
      in
      let xs = Array.of_list (List.map fst pts) in
      let ys = Array.of_list (List.map snd pts) in
      bases := (k, Harness.fit_exponential xs ys) :: !bases)
    specs;
  Harness.counters_of_metrics "E19" mtr;
  Harness.table [ "k"; "n"; "m"; "median DPLL time" ] (List.rev !rows);
  let bases = List.rev !bases in
  print_newline ();
  List.iter
    (fun (k, b) -> Printf.printf "k = %d: time ~ %.3f^n\n" k b)
    bases;
  let monotone =
    match bases with
    | [ (_, b3); (_, b4); (_, b5) ] -> b3 < b4 && b4 < b5
    | _ -> false
  in
  Harness.verdict monotone
    "the fitted base grows with the clause width k, the empirical shape \
     behind SETH: s_3 < s_4 < s_5 < ... -> 1 (base -> 2), so no single \
     (2-eps)^n algorithm can cover all clause widths"

let experiment =
  {
    Harness.id = "E19";
    title = "k-SAT bases grow with k (the shape of SETH)";
    claim =
      "s_k increases with k and SETH says it tends to 1 (base 2): \
       1.308^n for 3SAT, 1.469^n for 4SAT, ... (Sec 7)";
    run;
  }
