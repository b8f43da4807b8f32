(* Differential tests for the plan compilation tier, the one
   production WCOJ driver.

   The contract under test: for every (query, database) pair and every
   driver - sequential, Domain-parallel, sharded at k in {1,2,3,7},
   and distributed slices summed over a cover of participants - the
   compiled loop nest produces the same answers AND the same work
   counters (intersections / seeks / emitted) as the sequential
   interpreted engines, the reference oracle.  The sequential driver
   also lands its budget ticks at the oracle's points (so partial
   counters after a mid-query exhaustion match too).  Instances reuse
   the generators and seeds of test_join_engine.ml. *)

module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Gj = Lb_relalg.Generic_join
module Lf = Lb_relalg.Leapfrog
module C = Lb_relalg.Compile
module Pool = Lb_util.Pool
module Prng = Lb_util.Prng
module Budget = Lb_util.Budget
module Exec = Lb_util.Exec
module Metrics = Lb_util.Metrics

let check = Alcotest.check

(* --- random instances (same generators and seeds as
   test_join_engine.ml) --- *)

let var_pool = [| "a"; "b"; "c"; "d" |]

let random_query rng =
  let nvars = 2 + Prng.int rng 3 in
  let natoms = 1 + Prng.int rng 3 in
  List.init natoms (fun i ->
      let arity = 1 + Prng.int rng 3 in
      let vs = Array.init arity (fun _ -> var_pool.(Prng.int rng nvars)) in
      Q.atom (Printf.sprintf "R%d" i) vs)

let random_db rng (q : Q.t) =
  let dom = 2 + Prng.int rng 4 in
  Db.of_list
    (List.map
       (fun (a : Q.atom) ->
         let arity = Array.length a.Q.attrs in
         let nrows = if Prng.bernoulli rng 0.05 then 0 else 1 + Prng.int rng 12 in
         let tuples =
           List.init nrows (fun _ ->
               Array.init arity (fun _ -> Prng.int rng dom))
         in
         let attrs = Array.init arity (Printf.sprintf "c%d") in
         (a.Q.rel, R.make attrs tuples))
       q)

(* Interpreted reference counters as the unified (work, emitted) pair. *)
let interp_gj db q =
  let cs = Gj.fresh_counters () in
  let n = Gj.count ~counters:cs db q in
  (n, cs.Gj.intersections, cs.Gj.emitted)

let interp_lf db q =
  let cs = Lf.fresh_counters () in
  let n = Lf.count ~counters:cs db q in
  (n, cs.Lf.seeks, cs.Lf.emitted)

let engines = [ (C.Generic, interp_gj); (C.Leapfrog, interp_lf) ]

let test_differential_seq () =
  for seed = 1 to 100 do
    let rng = Prng.create (31 * seed) in
    let q = random_query rng in
    let db = random_db rng q in
    let oracle = Q.answer db q in
    List.iter
      (fun (eng, interp) ->
        let ctxt =
          Printf.sprintf "%s seed %d, query %s" (C.engine_name eng) seed
            (Q.to_string q)
        in
        let ir = C.lower ~engine:eng q in
        let n_i, work_i, emitted_i = interp db q in
        let cc = C.fresh_counters () in
        let n_c = C.count ~counters:cc ir db q in
        check Alcotest.int (ctxt ^ ": count") n_i n_c;
        check Alcotest.int (ctxt ^ ": work counter") work_i cc.C.work;
        check Alcotest.int (ctxt ^ ": emitted counter") emitted_i cc.C.emitted;
        if not (R.equal_modulo_order oracle (C.answer ir db q)) then
          Alcotest.failf "compiled answer disagrees with oracle (%s)" ctxt)
      engines
  done

let test_differential_sharded () =
  List.iter
    (fun shards ->
      for seed = 1 to 50 do
        let rng = Prng.create (31 * seed) in
        let q = random_query rng in
        let db = random_db rng q in
        let oracle = Q.answer db q in
        List.iter
          (fun (eng, interp) ->
            let ctxt =
              Printf.sprintf "%s k=%d seed %d, query %s" (C.engine_name eng)
                shards seed (Q.to_string q)
            in
            let ir = C.lower ~engine:eng q in
            let n_i, work_i, emitted_i = interp db q in
            let cc = C.fresh_counters () in
            let n_c = C.count_sharded ~counters:cc ~shards ir db q in
            check Alcotest.int (ctxt ^ ": count") n_i n_c;
            check Alcotest.int (ctxt ^ ": work counter") work_i cc.C.work;
            check Alcotest.int (ctxt ^ ": emitted counter") emitted_i
              cc.C.emitted;
            if
              not
                (R.equal_modulo_order oracle
                   (C.run_sharded ~shards ir db q))
            then
              Alcotest.failf "compiled sharded answer disagrees (%s)" ctxt)
          engines
      done)
    [ 1; 2; 3; 7 ]

let test_differential_pooled () =
  Pool.with_pool 3 (fun pool ->
      let ctx = Exec.make ~pool () in
      for seed = 1 to 25 do
        let rng = Prng.create (977 * seed) in
        let q = random_query rng in
        let db = random_db rng q in
        List.iter
          (fun (eng, interp) ->
            let ctxt =
              Printf.sprintf "%s seed %d, query %s" (C.engine_name eng) seed
                (Q.to_string q)
            in
            let ir = C.lower ~engine:eng q in
            let n_i, work_i, emitted_i = interp db q in
            let cc = C.fresh_counters () in
            let n_c = C.count ~counters:cc ~ctx ir db q in
            check Alcotest.int (ctxt ^ ": pooled count") n_i n_c;
            check Alcotest.int (ctxt ^ ": pooled work") work_i cc.C.work;
            check Alcotest.int (ctxt ^ ": pooled emitted") emitted_i
              cc.C.emitted;
            if
              not
                (R.equal (C.answer ir db q) (C.answer ~ctx ir db q))
            then Alcotest.failf "pooled compiled answer differs (%s)" ctxt)
          engines
      done)

(* --- budget exhaustion mid-query: partial counters must match --- *)

let broom_relation n attrs =
  let tuples = ref [ [| 0; 0 |] ] in
  for i = 1 to n do
    tuples := [| 0; i |] :: [| i; 0 |] :: !tuples
  done;
  R.make attrs !tuples

let broom_db n =
  Db.of_list
    [
      ("R", broom_relation n [| "a"; "b" |]);
      ("S", broom_relation n [| "b"; "c" |]);
      ("T", broom_relation n [| "a"; "c" |]);
    ]

let triangle = Q.parse "R(a,b), S(b,c), T(a,c)"

let exhausted_ticks name = function
  | Budget.Done _ -> Alcotest.failf "%s: expected exhaustion, got Done" name
  | Budget.Exhausted e -> e.Budget.ticks

let test_budget_exhaustion_partial_counters () =
  let db = broom_db 120 in
  List.iter
    (fun ticks ->
      (* Generic Join, unsharded *)
      let cs = Gj.fresh_counters () in
      let ti =
        exhausted_ticks "interpreted gj"
          (Gj.count_bounded ~counters:cs
             ~ctx:(Exec.make ~budget:(Budget.create ~ticks ()) ())
             db triangle)
      in
      let ir = C.lower ~engine:C.Generic triangle in
      let cc = C.fresh_counters () in
      let tc =
        exhausted_ticks "compiled gj"
          (C.count_bounded ~counters:cc
             ~ctx:(Exec.make ~budget:(Budget.create ~ticks ()) ())
             ir db triangle)
      in
      check Alcotest.int "gj ticks at exhaustion" ti tc;
      check Alcotest.int "gj partial intersections" cs.Gj.intersections
        cc.C.work;
      check Alcotest.int "gj partial emitted" cs.Gj.emitted cc.C.emitted;
      (* Leapfrog, unsharded *)
      let ls = Lf.fresh_counters () in
      let tl =
        exhausted_ticks "interpreted lf"
          (Lf.count_bounded ~counters:ls
             ~ctx:(Exec.make ~budget:(Budget.create ~ticks ()) ())
             db triangle)
      in
      let irl = C.lower ~engine:C.Leapfrog triangle in
      let lc = C.fresh_counters () in
      let tlc =
        exhausted_ticks "compiled lf"
          (C.count_bounded ~counters:lc
             ~ctx:(Exec.make ~budget:(Budget.create ~ticks ()) ())
             irl db triangle)
      in
      check Alcotest.int "lf ticks at exhaustion" tl tlc;
      check Alcotest.int "lf partial seeks" ls.Lf.seeks lc.C.work;
      check Alcotest.int "lf partial emitted" ls.Lf.emitted lc.C.emitted;
      (* Sharded: the driver defers leaf emission until after level-0
         task generation, so its partials legitimately differ from the
         unsharded run's.  Their values still follow from the budget:
         the limit-th tick is the last one granted, and every Generic
         Join work unit is counted immediately before its tick, so the
         refused tick's unit is counted too. *)
      let cc3 = C.fresh_counters () in
      let t3 =
        exhausted_ticks "compiled sharded gj"
          (Budget.protect (fun () ->
               C.count_sharded ~counters:cc3
                 ~ctx:(Exec.make ~budget:(Budget.create ~ticks ()) ())
                 ~shards:3 ir db triangle))
      in
      check Alcotest.int "sharded ticks at exhaustion" ticks t3;
      check Alcotest.int "sharded partial work" (ticks + 1) cc3.C.work;
      check Alcotest.bool "sharded partial emitted within the full answer"
        true
        (cc3.C.emitted <= Gj.count db triangle))
    [ 5; 57; 351 ]

(* --- distributed slices: a cover of participants sums to the oracle ---

   Each participant runs the sharded driver over the shards it owns;
   exactly one of them leads (accounts level 0 and the trie build).
   The union of their rows must be the oracle's answer, and their
   summed counters and metrics the oracle's. *)

let test_subset_cover () =
  let sorted m = List.sort compare (Metrics.counters m) in
  List.iter
    (fun shards ->
      for seed = 1 to 40 do
        let rng = Prng.create ((53 * seed) + shards) in
        let q = random_query rng in
        let db = random_db rng q in
        let nparts = 1 + Prng.int rng 3 in
        let owner = Array.init shards (fun _ -> Prng.int rng nparts) in
        let lead = Prng.int rng nparts in
        List.iter
          (fun (eng, oracle_answer) ->
            let ctxt =
              Printf.sprintf "%s k=%d parts=%d seed %d, query %s"
                (C.engine_name eng) shards nparts seed (Q.to_string q)
            in
            let mo = Metrics.create () in
            let oracle = oracle_answer ~ctx:(Exec.make ~metrics:mo ()) db q in
            (* every participant reports into one sink and one counter
               record, which therefore hold the sums *)
            let ms = Metrics.create () and sum = C.fresh_counters () in
            let ctx = Exec.make ~metrics:ms () in
            let ir = C.lower ~engine:eng q in
            let rows =
              List.concat_map
                (fun p ->
                  let subset =
                    { C.owned = (fun s -> owner.(s) = p); lead = p = lead }
                  in
                  Array.to_list
                    (R.tuples
                       (C.run_sharded ~counters:sum ~ctx ~subset ~shards ir db q)))
                (List.init nparts Fun.id)
            in
            check
              Alcotest.(list (array int))
              (ctxt ^ ": union of slices = oracle rows")
              (Array.to_list (R.tuples oracle))
              (List.sort R.compare_tuples rows);
            check
              Alcotest.(list (pair string int))
              (ctxt ^ ": summed metrics (trie builds, work, emitted)")
              (sorted mo) (sorted ms);
            check Alcotest.int (ctxt ^ ": summed emitted counter")
              (List.length rows) sum.C.emitted;
            check
              Alcotest.(option int)
              (ctxt ^ ": summed work counter")
              (Metrics.find_counter mo
                 (C.engine_name eng
                 ^ if eng = C.Generic then ".intersections" else ".seeks"))
              (Some sum.C.work))
          [
            (C.Generic, fun ~ctx db q -> Gj.answer ~ctx db q);
            (C.Leapfrog, fun ~ctx db q -> Lf.answer ~ctx db q);
          ]
      done)
    [ 2; 3; 5 ]

(* --- metrics sink parity: compiled paths report to the interpreted
   engines' metric names --- *)

let test_metrics_names () =
  let db = broom_db 40 in
  let mi = Metrics.create () and mc = Metrics.create () in
  ignore (Gj.count ~ctx:(Exec.make ~metrics:mi ()) db triangle);
  let ir = C.lower ~engine:C.Generic triangle in
  ignore (C.count ~ctx:(Exec.make ~metrics:mc ()) ir db triangle);
  List.iter
    (fun name ->
      check Alcotest.(option int) name
        (Metrics.find_counter mi name)
        (Metrics.find_counter mc name))
    [
      "generic_join.trie_builds";
      "generic_join.intersections";
      "generic_join.emitted";
    ]

(* --- the IR itself --- *)

let test_lower_shape () =
  let ir = C.lower ~engine:C.Generic triangle in
  check Alcotest.int "nvars" 3 ir.C.nvars;
  check Alcotest.int "natoms" 3 ir.C.natoms;
  check
    Alcotest.(array string)
    "order" [| "a"; "b"; "c" |] ir.C.order;
  (* level 0 (a): R@0, T@0; level 1 (b): R@1, S@0; level 2 (c): S@1, T@1 *)
  check Alcotest.(array int) "lv_off" [| 0; 2; 4; 6 |] ir.C.lv_off;
  check Alcotest.(array int) "lv_atom" [| 0; 2; 0; 1; 1; 2 |] ir.C.lv_atom;
  check Alcotest.(array int) "lv_depth" [| 0; 0; 1; 0; 1; 1 |] ir.C.lv_depth;
  check Alcotest.bool "weight is positive" true (C.weight ir > 0);
  check Alcotest.int "describe lines" (1 + 3)
    (List.length (C.describe ir));
  (* repeated attributes inside an atom collapse to one trie level *)
  let self = Q.parse "R(a,a,b)" in
  let ir2 = C.lower ~engine:C.Leapfrog self in
  check Alcotest.(array int) "self-join lv_depth" [| 0; 1 |] ir2.C.lv_depth

let suite =
  [
    Alcotest.test_case "100 random queries: compiled = interpreted (seq)"
      `Quick test_differential_seq;
    Alcotest.test_case "sharded k in {1,2,3,7}: compiled = interpreted" `Quick
      test_differential_sharded;
    Alcotest.test_case "pooled: compiled = interpreted (25 random)" `Quick
      test_differential_pooled;
    Alcotest.test_case "budget exhaustion: partial counters match" `Quick
      test_budget_exhaustion_partial_counters;
    Alcotest.test_case "distributed slice covers sum to the oracle" `Quick
      test_subset_cover;
    Alcotest.test_case "compiled reports interpreted metric names" `Quick
      test_metrics_names;
    Alcotest.test_case "lowered IR shape" `Quick test_lower_shape;
  ]
