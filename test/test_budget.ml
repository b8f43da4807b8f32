(* Budget and Metrics unit tests: tick-exact exhaustion, deadline
   promptness, cancellation and re-runnability, metrics JSON round
   trips, and the zero-overhead disabled sink. *)

module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics
module Exec = Lb_util.Exec
module Prng = Lb_util.Prng
module Cnf = Lb_sat.Cnf
module Dpll = Lb_sat.Dpll

(* A hard unsatisfiable 3SAT instance near the threshold ratio:
   unlimited DPLL needs seconds on it (~5k decisions), far longer than
   any budget set here, so the budgeted runs below always exhaust. *)
let hard_cnf () =
  let rng = Prng.create 20260806 in
  Cnf.random_ksat rng ~nvars:140 ~nclauses:616 ~k:3

let tick_limit_exact () =
  let b = Budget.create ~ticks:10 () in
  for _ = 1 to 10 do
    Budget.tick b
  done;
  Alcotest.(check int) "used all ten" 10 (Budget.used b);
  (match Budget.tick b with
  | () -> Alcotest.fail "11th tick must raise"
  | exception Budget.Budget_exhausted e ->
      Alcotest.(check bool) "reason = Ticks" true (e.Budget.reason = Budget.Ticks);
      Alcotest.(check int) "partial progress = 10" 10 e.Budget.ticks);
  (* still exhausted on the next tick too *)
  match Budget.tick b with
  | () -> Alcotest.fail "stays exhausted"
  | exception Budget.Budget_exhausted _ -> ()

(* A child charges its parent on every tick.  Its own limit fires with
   the child's count at the limit; the parent's limit and cancellation
   fire as the parent's exhaustion, with the child still below its
   limit - which is how a caller tells the two apart. *)
let child_budget () =
  let parent = Budget.create ~ticks:100 () in
  let c = Budget.child ~ticks:5 (Some parent) in
  for _ = 1 to 5 do
    Budget.tick c
  done;
  Alcotest.(check int) "parent charged" 5 (Budget.used parent);
  (match Budget.tick c with
  | () -> Alcotest.fail "the child's 6th tick must raise"
  | exception Budget.Budget_exhausted e ->
      Alcotest.(check int) "child's own count" 5 e.Budget.ticks;
      Alcotest.(check int) "child at its limit" 5 (Budget.used c));
  Alcotest.(check int) "refused tick not charged" 5 (Budget.used parent);
  let parent = Budget.create ~ticks:3 () in
  let c = Budget.child ~ticks:10 (Some parent) in
  (match
     for _ = 1 to 10 do
       Budget.tick c
     done
   with
  | () -> Alcotest.fail "the parent's limit must fire"
  | exception Budget.Budget_exhausted e ->
      Alcotest.(check int) "parent's count" 3 e.Budget.ticks;
      Alcotest.(check bool) "child below its limit" true (Budget.used c < 10));
  let parent = Budget.create () in
  let c = Budget.child ~ticks:10 (Some parent) in
  Budget.cancel parent;
  (match Budget.check c with
  | () -> Alcotest.fail "parent cancellation must reach the child"
  | exception Budget.Budget_exhausted e ->
      Alcotest.(check bool) "reason = Cancelled" true
        (e.Budget.reason = Budget.Cancelled));
  let c = Budget.child ~ticks:2 None in
  Budget.tick c;
  Budget.tick c;
  match Budget.tick c with
  | () -> Alcotest.fail "a standalone child keeps its limit"
  | exception Budget.Budget_exhausted _ -> ()

let deadline_within_quantum () =
  (* an already-expired deadline must fire within one polling quantum
     of ticks *)
  let b = Budget.create ~seconds:0.001 () in
  Unix.sleepf 0.005;
  let fired_at = ref (-1) in
  (try
     for i = 1 to 2 * Budget.quantum do
       Budget.tick b;
       fired_at := i
     done
   with Budget.Budget_exhausted e ->
     Alcotest.(check bool) "reason = Deadline" true
       (e.Budget.reason = Budget.Deadline));
  Alcotest.(check bool)
    (Printf.sprintf "fired within one quantum (at tick %d)" (!fired_at + 1))
    true
    (!fired_at < Budget.quantum)

let dpll_deadline_prompt () =
  let f = hard_cnf () in
  let budget = Budget.create ~seconds:0.05 () in
  let t0 = Unix.gettimeofday () in
  let outcome = Dpll.solve_bounded ~ctx:(Exec.make ~budget ()) f in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match outcome with
  | Budget.Exhausted e ->
      Alcotest.(check bool) "made progress before exhaustion" true
        (e.Budget.ticks > 0)
  | Budget.Done _ ->
      (* the instance resolving under 50ms would make the test vacuous *)
      Alcotest.fail "expected the hard instance to outlast 50ms");
  Alcotest.(check bool)
    (Printf.sprintf "returned promptly (%.0fms)" (elapsed *. 1000.))
    true (elapsed < 1.0)

let cancellation_rerunnable () =
  let f = hard_cnf () in
  (* budgeted run: exhausts *)
  let budget = Budget.create ~ticks:500 () in
  (match Dpll.solve_bounded ~ctx:(Exec.make ~budget ()) f with
  | Budget.Exhausted e -> Alcotest.(check int) "ticks = 500" 500 e.Budget.ticks
  | Budget.Done _ -> Alcotest.fail "500 ticks cannot finish this instance");
  (* cancellation: fires on the next tick *)
  let b2 = Budget.create () in
  Budget.cancel b2;
  (match Dpll.solve_bounded ~ctx:(Exec.make ~budget:b2 ()) f with
  | Budget.Exhausted e ->
      Alcotest.(check bool) "reason = Cancelled" true
        (e.Budget.reason = Budget.Cancelled)
  | Budget.Done _ -> Alcotest.fail "cancelled budget must not complete");
  (* the interrupted solver keeps no hidden state: after reset the same
     budget drives the same instance again and stats accumulate afresh
     (full completion takes seconds, so re-run under a tick limit and
     compare the deterministic interruption points instead) *)
  Budget.reset b2;
  let run () =
    let stats = Dpll.fresh_stats () in
    let budget = Budget.create ~ticks:500 () in
    ignore (Dpll.solve_bounded ~stats ~ctx:(Exec.make ~budget ()) f);
    (stats.Dpll.decisions, stats.Dpll.propagations)
  in
  Alcotest.(check bool) "interrupted runs are reproducible" true
    (run () = run ())

let csp_budget_partial_stats () =
  let rng = Prng.create 42 in
  let csp, _, _ =
    Lb_csp.Generators.bounded_treewidth rng ~nvars:40 ~width:3 ~domain_size:6
      ~density:0.9 ~plant:true
  in
  let stats = Lb_csp.Solver.fresh_stats () in
  let budget = Budget.create ~ticks:200 () in
  match Lb_csp.Solver.count_bounded ~stats ~ctx:(Exec.make ~budget ()) csp with
  | Budget.Exhausted _ ->
      Alcotest.(check bool) "stats filled up to interruption" true
        (stats.Lb_csp.Solver.nodes > 0)
  | Budget.Done _ -> Alcotest.fail "200 ticks cannot count this instance"

let metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.incr m "alpha";
  Metrics.add m "alpha" 41;
  Metrics.incr m "beta.gamma";
  Metrics.set_gauge m "delta" 0.125;
  Metrics.span m "work" (fun () -> ());
  let json = Metrics.to_json m in
  let parsed =
    match Metrics.parse_json json with
    | kvs -> kvs
    | exception Metrics.Parse_error _ ->
        Alcotest.failf "emitted JSON failed to parse: %s" json
  in
  Alcotest.(check bool) "alpha survives the round trip" true
    (List.assoc_opt "alpha" parsed = Some 42.0);
  Alcotest.(check (option int)) "alpha" (Some 42) (Metrics.find_counter m "alpha");
  Alcotest.(check (option int)) "work.calls" (Some 1)
    (Metrics.find_counter m "work.calls");
  (* malformed inputs are rejected *)
  List.iter
    (fun bad ->
      match Metrics.parse_json bad with
      | (_ : (string * float) list) ->
          Alcotest.failf "accepted malformed JSON: %s" bad
      | exception Metrics.Parse_error _ -> ())
    [ ""; "{"; "{\"a\" 1}"; "{\"a\": }"; "{\"a\": 1,}"; "[1]" ]

let disabled_metrics_identical () =
  let f = hard_cnf () in
  let s1 = Dpll.fresh_stats () and s2 = Dpll.fresh_stats () in
  let r1 =
    Dpll.solve ~stats:s1 ~ctx:(Exec.make ~metrics:Metrics.disabled ()) f
  in
  let m = Metrics.create () in
  let r2 = Dpll.solve ~stats:s2 ~ctx:(Exec.make ~metrics:m ()) f in
  Alcotest.(check bool) "same verdict" true ((r1 <> None) = (r2 <> None));
  Alcotest.(check int) "same decisions" s1.Dpll.decisions s2.Dpll.decisions;
  Alcotest.(check int) "same propagations" s1.Dpll.propagations
    s2.Dpll.propagations;
  Alcotest.(check (option int)) "sink saw the decision count"
    (Some s2.Dpll.decisions)
    (Metrics.find_counter m "dpll.decisions");
  Alcotest.(check bool) "disabled sink stayed empty" true
    (Metrics.counters Metrics.disabled = [])

let metrics_merge_and_clear () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add a "x" 2;
  Metrics.add b "x" 3;
  Metrics.add b "y" 1;
  Metrics.merge_into ~dst:a b;
  Alcotest.(check (option int)) "x merged" (Some 5) (Metrics.find_counter a "x");
  Alcotest.(check (option int)) "y merged" (Some 1) (Metrics.find_counter a "y");
  Metrics.clear a;
  Alcotest.(check bool) "cleared" true (Metrics.counters a = [])

let budget_across_engines () =
  (* every engine surfaces the same typed exhaustion *)
  let db =
    let tuples = List.init 80 (fun i -> [| i / 9; i mod 9 |]) in
    Lb_relalg.Database.of_list
      [
        ("R", Lb_relalg.Relation.make [| "a"; "b" |] tuples);
        ("S", Lb_relalg.Relation.make [| "b"; "c" |] tuples);
        ("T", Lb_relalg.Relation.make [| "a"; "c" |] tuples);
      ]
  in
  let q = Lb_relalg.Query.parse "R(a,b), S(b,c), T(a,c)" in
  let exhausted = function
    | Budget.Exhausted _ -> true
    | Budget.Done _ -> false
  in
  Alcotest.(check bool) "generic join" true
    (exhausted
       (Lb_relalg.Generic_join.count_bounded
          ~ctx:(Exec.make ~budget:(Budget.create ~ticks:5 ()) ())
          db q));
  Alcotest.(check bool) "leapfrog" true
    (exhausted
       (Lb_relalg.Leapfrog.count_bounded
          ~ctx:(Exec.make ~budget:(Budget.create ~ticks:5 ()) ())
          db q));
  let a = Array.init 400 (fun i -> i) in
  let exhausts_dp f = match f () with
    | (_ : int) -> false
    | exception Budget.Budget_exhausted _ -> true
  in
  Alcotest.(check bool) "edit distance" true
    (exhausts_dp (fun () ->
         Lb_finegrained.Edit_distance.quadratic
           ~ctx:(Exec.make ~budget:(Budget.create ~ticks:5 ()) ()) a a));
  Alcotest.(check bool) "lcs" true
    (exhausts_dp (fun () ->
         Lb_finegrained.Lcs.quadratic
           ~ctx:(Exec.make ~budget:(Budget.create ~ticks:5 ()) ()) a a))

(* Freuder governs and records through its ctx, and Yannakakis honours
   a ctx budget and records its stats into the ctx sink. *)
let ctx_governs_freuder_yannakakis () =
  let rng = Prng.create 77 in
  let csp, _, _ =
    Lb_csp.Generators.bounded_treewidth rng ~nvars:30 ~width:2 ~domain_size:5
      ~density:0.8 ~plant:true
  in
  let metrics = Metrics.create () in
  let n = Lb_csp.Freuder.count ~ctx:(Exec.make ~metrics ()) csp in
  Alcotest.(check bool) "freuder counted something" true (n >= 1);
  (match Metrics.find_counter metrics "freuder.bags" with
  | Some b when b >= 1 -> ()
  | _ -> Alcotest.fail "ctx metrics did not record freuder.bags");
  (match
     Lb_csp.Freuder.count_bounded
       ~ctx:(Exec.make ~budget:(Budget.create ~ticks:2 ()) ())
       csp
   with
  | Budget.Exhausted e ->
      Alcotest.(check bool) "freuder ctx budget governs" true
        (e.Budget.reason = Budget.Ticks)
  | Budget.Done _ -> Alcotest.fail "2 ticks should not finish Freuder");
  let db =
    Lb_relalg.Database.of_list
      [
        ("R", Lb_relalg.Relation.make [| "a"; "b" |] [ [| 1; 2 |]; [| 2; 3 |] ]);
        ("S", Lb_relalg.Relation.make [| "b"; "c" |] [ [| 2; 7 |]; [| 3; 9 |] ]);
      ]
  in
  let q = Lb_relalg.Query.parse "R(a,b), S(b,c)" in
  let sink = Metrics.create () in
  let rel, stats =
    Lb_relalg.Yannakakis.answer
      ~ctx:(Exec.make ~metrics:sink ())
      db q
  in
  Alcotest.(check int) "yannakakis answer" 2 (Lb_relalg.Relation.cardinality rel);
  Alcotest.(check (option int)) "ctx sink got the semijoin count"
    (Some stats.Lb_relalg.Yannakakis.semijoins)
    (Metrics.find_counter sink "yannakakis.semijoins");
  match
    Budget.protect (fun () ->
        Lb_relalg.Yannakakis.answer
          ~ctx:(Exec.make ~budget:(Budget.create ~ticks:1 ()) ())
          db q)
  with
  | Budget.Exhausted e ->
      Alcotest.(check bool) "yannakakis ctx budget governs" true
        (e.Budget.reason = Budget.Ticks)
  | Budget.Done _ -> Alcotest.fail "1 tick should not finish Yannakakis"

(* The ctx contract, one row per entry point not covered above: a
   1-tick ctx budget stops it (raising [Budget_exhausted], or
   [Exhausted] for the [*_bounded] forms), and a ctx metrics sink
   receives exactly the counter names it records.
   [Matrix.Bool.mul_naive] is the unbudgeted oracle kernel: it ignores
   the budget and completes. *)
let ctx_contract () =
  let rng = Prng.create 5 in
  let csp, _, _ =
    Lb_csp.Generators.bounded_treewidth rng ~nvars:8 ~width:2 ~domain_size:3
      ~density:0.8 ~plant:true
  in
  let graph n edges =
    let s = Lb_structure.Structure.create [ ("E", 2) ] n in
    List.iter
      (fun (u, v) ->
        Lb_structure.Structure.add_tuple s "E" [| u; v |];
        Lb_structure.Structure.add_tuple s "E" [| v; u |])
      edges;
    s
  in
  let c5 = graph 5 (List.init 5 (fun i -> (i, (i + 1) mod 5))) in
  let k3 = graph 3 [ (0, 1); (1, 2); (0, 2) ] in
  let s1 = Array.init 40 (fun i -> i mod 7)
  and s2 = Array.init 40 (fun i -> i mod 5) in
  let db =
    let rel x y =
      Lb_relalg.Relation.make [| x; y |] [ [| 1; 2 |]; [| 2; 3 |] ]
    in
    Lb_relalg.Database.of_list
      [ ("R", rel "a" "b"); ("S", rel "b" "c"); ("T", rel "c" "d") ]
  in
  let path = Lb_relalg.Query.parse "R(a,b), S(b,c), T(c,d)" in
  let m = Lb_util.Matrix.Bool.init 4 4 (fun i j -> (i + j) mod 2 = 0) in
  let raises f ctx =
    match f ctx with
    | (_ : unit) -> false
    | exception Budget.Budget_exhausted _ -> true
  in
  let bounded f ctx =
    match f ctx with Budget.Exhausted _ -> true | Budget.Done _ -> false
  in
  let freuder = [ "freuder.bag_assignments"; "freuder.bags" ] in
  let nice = [ "freuder_nice.introduce_entries" ] in
  let module Hom = Lb_csp.Hom in
  let module Nice = Lb_csp.Freuder_nice in
  let module Ed = Lb_finegrained.Edit_distance in
  let module Lcs = Lb_finegrained.Lcs in
  let rows =
    [
      ( "Hom.decide", true, freuder,
        raises (fun ctx -> ignore (Hom.decide ~ctx c5 k3)) );
      ( "Hom.count", true, freuder,
        raises (fun ctx -> ignore (Hom.count ~ctx c5 k3)) );
      ( "Hom.count_bruteforce", true, [],
        raises (fun ctx -> ignore (Hom.count_bruteforce ~ctx c5 k3)) );
      ( "Hom.decide_bounded", true, freuder,
        bounded (fun ctx -> Hom.decide_bounded ~ctx c5 k3) );
      ( "Hom.count_bounded", true, freuder,
        bounded (fun ctx -> Hom.count_bounded ~ctx c5 k3) );
      ( "Freuder_nice.count", true, nice,
        raises (fun ctx -> ignore (Nice.count ~ctx csp)) );
      ( "Freuder_nice.solvable", true, nice,
        raises (fun ctx -> ignore (Nice.solvable ~ctx csp)) );
      ( "Freuder_nice.count_bounded", true, nice,
        bounded (fun ctx -> Nice.count_bounded ~ctx csp) );
      ( "Csp.solve_bruteforce", true, [],
        raises (fun ctx -> ignore (Lb_csp.Csp.solve_bruteforce ~ctx csp)) );
      ( "Csp.count_bruteforce", true, [],
        raises (fun ctx -> ignore (Lb_csp.Csp.count_bruteforce ~ctx csp)) );
      ( "Edit_distance.quadratic", true, [],
        raises (fun ctx -> ignore (Ed.quadratic ~ctx s1 s2)) );
      ( "Edit_distance.banded", true, [],
        raises (fun ctx -> ignore (Ed.banded ~ctx s1 s2 ~band:3)) );
      ( "Edit_distance.adaptive", true, [],
        raises (fun ctx -> ignore (Ed.adaptive ~ctx s1 s2)) );
      ( "Lcs.quadratic", true, [],
        raises (fun ctx -> ignore (Lcs.quadratic ~ctx s1 s2)) );
      ( "Lcs.bitparallel", true, [],
        raises (fun ctx -> ignore (Lcs.bitparallel ~ctx s1 s2)) );
      ( "Yannakakis.full_reducer", true, [],
        raises (fun ctx ->
            ignore (Lb_relalg.Yannakakis.full_reducer ~ctx db path)) );
      ( "Matrix.Bool.mul_naive", false, [ "matmul.words" ],
        raises (fun ctx -> ignore (Lb_util.Matrix.Bool.mul_naive ~ctx m m)) );
    ]
  in
  List.iter
    (fun (name, budgeted, counters, exhausts) ->
      let one_tick = Exec.make ~budget:(Budget.create ~ticks:1 ()) () in
      Alcotest.(check bool) (name ^ ": 1-tick ctx budget stops it") budgeted
        (exhausts one_tick);
      let sink = Metrics.create () in
      Alcotest.(check bool) (name ^ ": completes unbudgeted") false
        (exhausts (Exec.make ~metrics:sink ()));
      Alcotest.(check (list string)) (name ^ ": ctx sink counter names") counters
        (List.sort compare (List.map fst (Metrics.counters sink))))
    rows

let suite =
  [
    ("tick limit is exact", `Quick, tick_limit_exact);
    ("child budget charges its parent", `Quick, child_budget);
    ("deadline fires within one quantum", `Quick, deadline_within_quantum);
    ("50ms deadline on hard DPLL returns promptly", `Quick, dpll_deadline_prompt);
    ("cancellation leaves solvers re-runnable", `Quick, cancellation_rerunnable);
    ("interrupted CSP search keeps partial stats", `Quick, csp_budget_partial_stats);
    ("metrics JSON round-trips", `Quick, metrics_json_roundtrip);
    ("disabled metrics leave runs identical", `Quick, disabled_metrics_identical);
    ("metrics merge and clear", `Quick, metrics_merge_and_clear);
    ("typed exhaustion across engines", `Quick, budget_across_engines);
    ("ctx governs Freuder and Yannakakis", `Quick, ctx_governs_freuder_yannakakis);
    ("ctx contract of every solver entry point", `Quick, ctx_contract);
  ]
