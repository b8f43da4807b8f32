(* Differential and determinism tests for the worst-case-optimal join
   engine.

   - Differential: ~100 random (query, database) pairs are evaluated by
     Generic Join and Leapfrog Triejoin and compared against the naive
     hash-join oracle (Query.answer: a fold of Relation.natural_join,
     which shares no code with the trie engine).  Queries include unary
     atoms, repeated variables inside an atom, empty relations and
     cross products.
   - Determinism: the Domain-parallel driver (the compiled tier's) must
     produce the same answer relation AND the same counter totals as
     the sequential engine - on skewed (broom) inputs, where task
     splitting is actually exercised, and on random inputs. *)

module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Gj = Lb_relalg.Generic_join
module Lf = Lb_relalg.Leapfrog
module C = Lb_relalg.Compile
module Pool = Lb_util.Pool
module Exec = Lb_util.Exec
module Prng = Lb_util.Prng

let check = Alcotest.check

(* --- random instances --- *)

let var_pool = [| "a"; "b"; "c"; "d" |]

(* 1-3 atoms over 2-4 variables, arity 1-3, repeated variables allowed;
   every atom gets its own relation symbol *)
let random_query rng =
  let nvars = 2 + Prng.int rng 3 in
  let natoms = 1 + Prng.int rng 3 in
  List.init natoms (fun i ->
      let arity = 1 + Prng.int rng 3 in
      let vs = Array.init arity (fun _ -> var_pool.(Prng.int rng nvars)) in
      Q.atom (Printf.sprintf "R%d" i) vs)

(* small active domain so joins actually match; ~5% empty relations *)
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

let test_differential () =
  for seed = 1 to 100 do
    let rng = Prng.create (31 * seed) in
    let q = random_query rng in
    let db = random_db rng q in
    let oracle = Q.answer db q in
    let gj = Gj.answer db q in
    let lf = Lf.answer db q in
    let ctxt = Printf.sprintf "seed %d, query %s" seed (Q.to_string q) in
    if not (R.equal_modulo_order oracle gj) then
      Alcotest.failf "GJ disagrees with oracle (%s)" ctxt;
    if not (R.equal_modulo_order oracle lf) then
      Alcotest.failf "LFTJ disagrees with oracle (%s)" ctxt;
    check Alcotest.int
      (Printf.sprintf "GJ count (%s)" ctxt)
      (R.cardinality oracle) (Gj.count db q);
    check Alcotest.int
      (Printf.sprintf "LFTJ count (%s)" ctxt)
      (R.cardinality oracle) (Lf.count db q)
  done

(* --- parallel determinism --- *)

(* the broom: value 0 of the first variable carries ~half the join
   work, so the driver's skew splitting is on the hot path *)
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

(* The Domain-parallel driver is the compiled tier's; the sequential
   interpreted engines are the reference it must reproduce. *)
let test_parallel_matches_sequential_gj () =
  let db = broom_db 150 in
  let cs = Gj.fresh_counters () in
  let n_seq = Gj.count ~counters:cs db triangle in
  let ans_seq = Gj.answer db triangle in
  let ir = C.lower ~engine:C.Generic triangle in
  Pool.with_pool 4 (fun pool ->
      let cp = C.fresh_counters () in
      let n_par = C.count ~counters:cp ~ctx:(Exec.make ~pool ()) ir db triangle in
      check Alcotest.int "count" n_seq n_par;
      check Alcotest.int "intersections counter" cs.Gj.intersections cp.C.work;
      check Alcotest.int "emitted counter" cs.Gj.emitted cp.C.emitted;
      let ans_par = C.answer ~ctx:(Exec.make ~pool ()) ir db triangle in
      check Alcotest.bool "answer relation" true (R.equal ans_seq ans_par))

let test_parallel_matches_sequential_lf () =
  let db = broom_db 150 in
  let cs = Lf.fresh_counters () in
  let n_seq = Lf.count ~counters:cs db triangle in
  let ans_seq = Lf.answer db triangle in
  let ir = C.lower ~engine:C.Leapfrog triangle in
  Pool.with_pool 4 (fun pool ->
      let cp = C.fresh_counters () in
      let n_par = C.count ~counters:cp ~ctx:(Exec.make ~pool ()) ir db triangle in
      check Alcotest.int "count" n_seq n_par;
      check Alcotest.int "seeks counter" cs.Lf.seeks cp.C.work;
      check Alcotest.int "emitted counter" cs.Lf.emitted cp.C.emitted;
      let ans_par = C.answer ~ctx:(Exec.make ~pool ()) ir db triangle in
      check Alcotest.bool "answer relation" true (R.equal ans_seq ans_par))

let test_parallel_random_instances () =
  Pool.with_pool 3 (fun pool ->
      for seed = 1 to 25 do
        let rng = Prng.create (977 * seed) in
        let q = random_query rng in
        let db = random_db rng q in
        let ctxt = Printf.sprintf "seed %d, query %s" seed (Q.to_string q) in
        let gj_ir = C.lower ~engine:C.Generic q in
        check Alcotest.int
          (Printf.sprintf "GJ par count (%s)" ctxt)
          (Gj.count db q)
          (C.count ~ctx:(Exec.make ~pool ()) gj_ir db q);
        check Alcotest.int
          (Printf.sprintf "LFTJ par count (%s)" ctxt)
          (Lf.count db q)
          (C.count ~ctx:(Exec.make ~pool ()) (C.lower ~engine:C.Leapfrog q) db q);
        if not (R.equal (Gj.answer db q) (C.answer ~ctx:(Exec.make ~pool ()) gj_ir db q))
        then Alcotest.failf "GJ par answer differs (%s)" ctxt
      done)

(* a pool of size 1 must behave exactly like no pool at all *)
let test_pool_of_one_is_sequential () =
  let db = broom_db 40 in
  Pool.with_pool 1 (fun pool ->
      let cs = Gj.fresh_counters () in
      let n_seq = Gj.count ~counters:cs db triangle in
      let cp = C.fresh_counters () in
      let n_par =
        C.count ~counters:cp ~ctx:(Exec.make ~pool ())
          (C.lower ~engine:C.Generic triangle) db triangle
      in
      check Alcotest.int "count" n_seq n_par;
      check Alcotest.int "intersections" cs.Gj.intersections cp.C.work)

let suite =
  [
    Alcotest.test_case "100 random queries: GJ/LFTJ = hash-join oracle" `Quick
      test_differential;
    Alcotest.test_case "parallel GJ = sequential (broom skew)" `Quick
      test_parallel_matches_sequential_gj;
    Alcotest.test_case "parallel LFTJ = sequential (broom skew)" `Quick
      test_parallel_matches_sequential_lf;
    Alcotest.test_case "parallel = sequential on 25 random instances" `Quick
      test_parallel_random_instances;
    Alcotest.test_case "pool of one degenerates to sequential" `Quick
      test_pool_of_one_is_sequential;
  ]
