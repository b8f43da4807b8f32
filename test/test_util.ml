(* Tests for lb_util: PRNG, bitsets, union-find, matrices, combinatorics,
   the table printer and the regression fits. *)

module Prng = Lb_util.Prng
module Bitset = Lb_util.Bitset
module Union_find = Lb_util.Union_find
module Matrix = Lb_util.Matrix
module Combinat = Lb_util.Combinat
module Stopwatch = Lb_util.Stopwatch
module Bits = Lb_util.Bits
module Exec = Lb_util.Exec
module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics
module Pool = Lb_util.Pool

let check = Alcotest.check

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.bits a) (Prng.bits b)
  done

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_prng_int_rejects () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_sample () =
  let rng = Prng.create 3 in
  for _ = 1 to 50 do
    let s = Prng.sample rng 20 5 in
    check Alcotest.int "size" 5 (Array.length s);
    let l = Array.to_list s in
    check Alcotest.(list int) "sorted distinct" (List.sort_uniq compare l) l;
    List.iter (fun v -> Alcotest.(check bool) "range" true (v >= 0 && v < 20)) l
  done

let test_prng_shuffle_permutation () =
  let rng = Prng.create 11 in
  let a = Array.init 30 Fun.id in
  let b = Prng.shuffle rng a in
  check
    Alcotest.(list int)
    "same multiset"
    (List.sort compare (Array.to_list b))
    (Array.to_list a)

let test_prng_bernoulli_frequency () =
  let rng = Prng.create 5 in
  let hits = ref 0 in
  let trials = 20000 in
  for _ = 1 to trials do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "close to 0.3" true (abs_float (freq -. 0.3) < 0.02)

(* Bitset model-based property: operations agree with a Set.Make(Int)
   model. *)
let bitset_model_prop =
  QCheck.Test.make ~name:"bitset agrees with int-set model" ~count:200
    QCheck.(pair (list (int_bound 99)) (list (int_bound 99)))
    (fun (xs, ys) ->
      let module S = Set.Make (Int) in
      let cap = 100 in
      let bx = Bitset.of_list cap xs and by = Bitset.of_list cap ys in
      let sx = S.of_list xs and sy = S.of_list ys in
      let eq b s = Bitset.elements b = S.elements s in
      eq (Bitset.union bx by) (S.union sx sy)
      && eq (Bitset.inter bx by) (S.inter sx sy)
      && eq (Bitset.diff bx by) (S.diff sx sy)
      && Bitset.cardinal bx = S.cardinal sx
      && Bitset.subset bx by = S.subset sx sy
      && Bitset.disjoint bx by = S.disjoint sx sy
      && Bitset.inter_cardinal bx by = S.cardinal (S.inter sx sy))

let test_bitset_fill_clear () =
  let b = Bitset.create 200 in
  Bitset.fill b;
  check Alcotest.int "full" 200 (Bitset.cardinal b);
  Bitset.clear b;
  check Alcotest.int "empty" 0 (Bitset.cardinal b);
  Alcotest.(check bool) "is_empty" true (Bitset.is_empty b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: index out of range") (fun () -> Bitset.add b 10)

let test_bitset_choose () =
  let b = Bitset.of_list 50 [ 17; 3; 42 ] in
  check Alcotest.(option int) "min element" (Some 3) (Bitset.choose b);
  check Alcotest.(option int) "none" None (Bitset.choose (Bitset.create 5))

let test_union_find () =
  let uf = Union_find.create 10 in
  check Alcotest.int "initial components" 10 (Union_find.components uf);
  Alcotest.(check bool) "union" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "redundant union" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  check Alcotest.int "components" 9 (Union_find.components uf)

let test_matrix_int_mul () =
  let a = Matrix.Int.init 2 3 (fun i j -> (i * 3) + j + 1) in
  let b = Matrix.Int.init 3 2 (fun i j -> (i * 2) + j + 1) in
  let c = Matrix.Int.mul a b in
  (* [[1 2 3][4 5 6]] * [[1 2][3 4][5 6]] = [[22 28][49 64]] *)
  check Alcotest.int "c00" 22 (Matrix.Int.get c 0 0);
  check Alcotest.int "c01" 28 (Matrix.Int.get c 0 1);
  check Alcotest.int "c10" 49 (Matrix.Int.get c 1 0);
  check Alcotest.int "c11" 64 (Matrix.Int.get c 1 1)

let bool_matmul_prop =
  QCheck.Test.make ~name:"bool matmul agrees with naive" ~count:50
    QCheck.(pair (int_bound 1000) small_int)
    (fun (seed, _) ->
      let rng = Prng.create seed in
      let n = 1 + Prng.int rng 12 in
      let a = Matrix.Bool.init n n (fun _ _ -> Prng.bool rng) in
      let b = Matrix.Bool.init n n (fun _ _ -> Prng.bool rng) in
      let c = Matrix.Bool.mul a b in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let expect = ref false in
          for k = 0 to n - 1 do
            if Matrix.Bool.get a i k && Matrix.Bool.get b k j then expect := true
          done;
          if Matrix.Bool.get c i j <> !expect then ok := false
        done
      done;
      !ok)

let test_matrix_trace () =
  let a = Matrix.Int.init 3 3 (fun i j -> if i = j then i + 1 else 9) in
  check Alcotest.int "trace" 6 (Matrix.Int.trace a)

let test_binomial () =
  check Alcotest.int "C(5,2)" 10 (Combinat.binomial 5 2);
  check Alcotest.int "C(10,0)" 1 (Combinat.binomial 10 0);
  check Alcotest.int "C(10,10)" 1 (Combinat.binomial 10 10);
  check Alcotest.int "C(4,7)" 0 (Combinat.binomial 4 7);
  check Alcotest.int "C(20,10)" 184756 (Combinat.binomial 20 10)

let test_iter_subsets_count () =
  for n = 0 to 7 do
    for k = 0 to n do
      let c = ref 0 in
      Combinat.iter_subsets n k (fun _ -> incr c);
      check Alcotest.int (Printf.sprintf "count %d choose %d" n k)
        (Combinat.binomial n k) !c
    done
  done

let test_iter_subsets_sorted_distinct () =
  Combinat.iter_subsets 6 3 (fun s ->
      let l = Array.to_list s in
      check Alcotest.(list int) "sorted" (List.sort_uniq compare l) l)

let test_iter_tuples_count () =
  let c = ref 0 in
  Combinat.iter_tuples 3 4 (fun _ -> incr c);
  check Alcotest.int "3^4" 81 !c;
  let c = ref 0 in
  Combinat.iter_tuples 5 0 (fun _ -> incr c);
  check Alcotest.int "d^0 = 1" 1 !c

let test_power () =
  check Alcotest.int "2^10" 1024 (Combinat.power 2 10);
  check Alcotest.int "7^0" 1 (Combinat.power 7 0);
  check Alcotest.int "3^3" 27 (Combinat.power 3 3)

let test_fit_power () =
  (* y = 2 * x^3 *)
  let xs = [| 2.0; 4.0; 8.0; 16.0 |] in
  let ys = Array.map (fun x -> 2.0 *. (x ** 3.0)) xs in
  let e = Stopwatch.fit_power xs ys in
  Alcotest.(check bool) "exponent 3" true (abs_float (e -. 3.0) < 1e-6)

let test_fit_exponential () =
  (* y = 5 * 2^x *)
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let ys = Array.map (fun x -> 5.0 *. (2.0 ** x)) xs in
  let b = Stopwatch.fit_exponential xs ys in
  Alcotest.(check bool) "base 2" true (abs_float (b -. 2.0) < 1e-6)

let test_prng_split_independence () =
  let a = Prng.create 42 in
  let b = Prng.split a in
  (* advancing b does not change a's future stream *)
  let a2 = Prng.copy a in
  for _ = 1 to 50 do
    ignore (Prng.bits b)
  done;
  for _ = 1 to 50 do
    check Alcotest.int "a unaffected" (Prng.bits a2) (Prng.bits a)
  done

let test_matrix_bool_diagonal () =
  (* directed 2-cycle: A^2 has diagonal entries *)
  let a = Matrix.Bool.init 2 2 (fun i j -> i <> j) in
  Alcotest.(check bool) "hits" true (Matrix.Bool.mul_hits_diagonal a a);
  let b = Matrix.Bool.init 2 2 (fun i j -> i = 0 && j = 1) in
  Alcotest.(check bool) "no hit" false (Matrix.Bool.mul_hits_diagonal b b)

let test_matrix_transpose () =
  let m = Matrix.Bool.init 2 3 (fun i j -> i = 0 && j = 2) in
  let t = Matrix.Bool.transpose m in
  check Alcotest.(pair int int) "dims" (3, 2) (Matrix.Bool.dims t);
  Alcotest.(check bool) "entry moved" true (Matrix.Bool.get t 2 0)

let test_rows_intersect () =
  let m = Matrix.Bool.init 3 100 (fun i j -> (i = 0 && j = 77) || (i = 1 && j = 77) || (i = 2 && j = 5)) in
  Alcotest.(check bool) "share 77" true (Matrix.Bool.rows_intersect m 0 1);
  Alcotest.(check bool) "disjoint" false (Matrix.Bool.rows_intersect m 0 2)

let test_bits_popcount () =
  check Alcotest.int "popcount 0" 0 (Bits.popcount 0);
  check Alcotest.int "popcount 1" 1 (Bits.popcount 1);
  check Alcotest.int "popcount 0b1011" 3 (Bits.popcount 0b1011);
  (* the sign bit is an ordinary payload bit of the 63-bit pattern *)
  check Alcotest.int "popcount -1" 63 (Bits.popcount (-1));
  check Alcotest.int "popcount max_int" 62 (Bits.popcount max_int);
  check Alcotest.int "popcount min_int" 1 (Bits.popcount min_int);
  (* agrees with a bit loop on pseudorandom words *)
  let rng = Prng.create 99 in
  for _ = 1 to 200 do
    let x = Int64.to_int (Prng.next_int64 rng) in
    let slow = ref 0 in
    for b = 0 to 62 do
      if x land (1 lsl b) <> 0 then incr slow
    done;
    check Alcotest.int "popcount random" !slow (Bits.popcount x)
  done

let test_bits_ctz () =
  check Alcotest.int "ctz 1" 0 (Bits.ctz 1);
  check Alcotest.int "ctz 8" 3 (Bits.ctz 8);
  check Alcotest.int "ctz 12" 2 (Bits.ctz 12);
  check Alcotest.int "ctz min_int" 62 (Bits.ctz min_int);
  check Alcotest.int "ctz -1" 0 (Bits.ctz (-1));
  Alcotest.check_raises "ctz 0" (Invalid_argument "Bits.ctz: zero has no set bit")
    (fun () -> ignore (Bits.ctz 0))

let test_bits_words_for () =
  check Alcotest.int "0 bits" 0 (Bits.words_for ~bits:63 0);
  check Alcotest.int "1 bit" 1 (Bits.words_for ~bits:63 1);
  check Alcotest.int "63 bits" 1 (Bits.words_for ~bits:63 63);
  check Alcotest.int "64 bits" 2 (Bits.words_for ~bits:63 64);
  check Alcotest.int "62-bit words" 2 (Bits.words_for ~bits:62 124)

let test_matrix_mul_count () =
  (* popcount product = Int product on the 0/1 lift, rectangular and
     wider than one 63-bit word *)
  let rng = Prng.create 5 in
  let n = 9 and m = 130 and p = 7 in
  let a = Matrix.Bool.init n m (fun _ _ -> Prng.bool rng) in
  let b = Matrix.Bool.init m p (fun _ _ -> Prng.bool rng) in
  let c = Matrix.Bool.mul_count a b in
  let ai = Matrix.Int.init n m (fun i j -> if Matrix.Bool.get a i j then 1 else 0) in
  let bi = Matrix.Int.init m p (fun i j -> if Matrix.Bool.get b i j then 1 else 0) in
  let ci = Matrix.Int.mul ai bi in
  for i = 0 to n - 1 do
    for j = 0 to p - 1 do
      check Alcotest.int "entry" (Matrix.Int.get ci i j) (Matrix.Int.get c i j)
    done
  done

let test_matrix_all_set_equal () =
  let full = Matrix.Bool.init 3 70 (fun _ _ -> true) in
  Alcotest.(check bool) "all set" true (Matrix.Bool.all_set full);
  Matrix.Bool.set full 2 69 false;
  Alcotest.(check bool) "missing last bit" false (Matrix.Bool.all_set full);
  Alcotest.(check bool) "empty all set" true
    (Matrix.Bool.all_set (Matrix.Bool.create 0 5));
  let a = Matrix.Bool.init 2 64 (fun i j -> (i + j) mod 3 = 0) in
  let b = Matrix.Bool.init 2 64 (fun i j -> (i + j) mod 3 = 0) in
  Alcotest.(check bool) "equal" true (Matrix.Bool.equal a b);
  Matrix.Bool.set b 1 63 (not (Matrix.Bool.get b 1 63));
  Alcotest.(check bool) "not equal" false (Matrix.Bool.equal a b);
  Alcotest.(check bool) "dim mismatch" false
    (Matrix.Bool.equal a (Matrix.Bool.create 2 63))

let test_matrix_of_packed_rows () =
  (* 63-bit LSB-first packing: bit j of row i at word j/63, bit j mod 63 *)
  let rows = [| [| 0b101 |]; [| 0; 1 lsl 2 |] |] in
  let m = Matrix.Bool.of_packed_rows ~m:70 rows in
  check Alcotest.(pair int int) "dims" (2, 70) (Matrix.Bool.dims m);
  Alcotest.(check bool) "bit (0,0)" true (Matrix.Bool.get m 0 0);
  Alcotest.(check bool) "bit (0,1)" false (Matrix.Bool.get m 0 1);
  Alcotest.(check bool) "bit (0,2)" true (Matrix.Bool.get m 0 2);
  Alcotest.(check bool) "bit (1,65)" true (Matrix.Bool.get m 1 65);
  Alcotest.(check bool) "bit (1,64)" false (Matrix.Bool.get m 1 64)

let test_find_orthogonal_rows () =
  (* rows 0/1 of a intersect everything; a.(2) misses b.(1) *)
  let a = Matrix.Bool.init 3 80 (fun i j -> j mod 3 = i) in
  let b = Matrix.Bool.init 2 80 (fun i j -> if i = 0 then true else j mod 3 = 0)
  in
  check
    Alcotest.(option (pair int int))
    "witness" (Some (1, 1))
    (Matrix.Bool.find_orthogonal_rows a b);
  let c = Matrix.Bool.init 2 80 (fun _ _ -> true) in
  check
    Alcotest.(option (pair int int))
    "none" None
    (Matrix.Bool.find_orthogonal_rows a c);
  (* m = 0: every pair is vacuously orthogonal *)
  check
    Alcotest.(option (pair int int))
    "zero-width" (Some (0, 0))
    (Matrix.Bool.find_orthogonal_rows (Matrix.Bool.create 2 0)
       (Matrix.Bool.create 3 0));
  (* empty sides *)
  check
    Alcotest.(option (pair int int))
    "empty left" None
    (Matrix.Bool.find_orthogonal_rows (Matrix.Bool.create 0 10)
       (Matrix.Bool.create 3 10))

let test_find_subset () =
  let found = Combinat.find_subset 6 2 (fun s -> s.(0) + s.(1) = 7) in
  (match found with
  | Some s -> check Alcotest.(list int) "witness" [ 2; 5 ] (Array.to_list s)
  | None -> Alcotest.fail "2+5=7 exists");
  Alcotest.(check bool) "no witness" true
    (Combinat.find_subset 3 2 (fun s -> s.(0) + s.(1) > 100) = None)

let test_tabulate () =
  let s =
    Lb_util.Tabulate.render ~header:[ "name"; "n" ]
      [ [ "x"; "10" ]; [ "long-name"; "9" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.length lines >= 4)

(* --- Pool: the Domain work-queue behind the parallel join driver --- *)

let test_pool_covers_all_chunks () =
  Lb_util.Pool.with_pool 4 (fun p ->
      let hits = Array.make 97 0 in
      let m = Mutex.create () in
      Lb_util.Pool.run p ~chunks:97 (fun i ->
          Mutex.lock m;
          hits.(i) <- hits.(i) + 1;
          Mutex.unlock m);
      Array.iteri
        (fun i h ->
          check Alcotest.int (Printf.sprintf "chunk %d ran once" i) 1 h)
        hits)

let test_pool_reraises () =
  Lb_util.Pool.with_pool 2 (fun p ->
      (match
         Lb_util.Pool.run p ~chunks:16 (fun i ->
             if i = 7 then failwith "chunk 7")
       with
      | () -> Alcotest.fail "expected Failure"
      | exception Failure msg -> check Alcotest.string "message" "chunk 7" msg);
      (* the pool must still be usable after a failed job *)
      let total = Atomic.make 0 in
      Lb_util.Pool.run p ~chunks:10 (fun i ->
          ignore (Atomic.fetch_and_add total i));
      check Alcotest.int "sum after failure" 45 (Atomic.get total))

let test_pool_size_one_inline () =
  Lb_util.Pool.with_pool 1 (fun p ->
      check Alcotest.int "size" 1 (Lb_util.Pool.size p);
      let seen = ref [] in
      Lb_util.Pool.run p ~chunks:5 (fun i -> seen := i :: !seen);
      check Alcotest.(list int) "inline, in order" [ 4; 3; 2; 1; 0 ] !seen)

(* --- Lru --- *)

module Lru = Lb_util.Lru

let test_lru_basic () =
  let c = Lru.create 2 in
  check Alcotest.int "capacity" 2 (Lru.capacity c);
  check Alcotest.int "empty" 0 (Lru.length c);
  check Alcotest.(option int) "miss" None (Lru.find c "a");
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  check Alcotest.(option int) "hit a" (Some 1) (Lru.find c "a");
  check Alcotest.(option int) "hit b" (Some 2) (Lru.find c "b");
  check Alcotest.int "hits" 2 (Lru.hits c);
  check Alcotest.int "misses" 1 (Lru.misses c);
  Lru.put c "a" 10;
  check Alcotest.int "replace keeps length" 2 (Lru.length c);
  check Alcotest.(option int) "replaced value" (Some 10) (Lru.find c "a")

let test_lru_eviction_order () =
  let c = Lru.create 3 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Lru.put c "c" 3;
  (* touch "a": now "b" is least recently used *)
  ignore (Lru.find c "a");
  Lru.put c "d" 4;
  check Alcotest.int "one eviction" 1 (Lru.evictions c);
  check Alcotest.bool "lru binding evicted" false (Lru.mem c "b");
  check Alcotest.bool "recently used survives" true (Lru.mem c "a");
  check
    Alcotest.(list (pair string int))
    "most-to-least recent" [ ("d", 4); ("a", 1); ("c", 3) ] (Lru.to_list c)

let test_lru_remove_and_clear () =
  let c = Lru.create 4 in
  List.iter (fun (k, v) -> Lru.put c k v) [ ("a", 1); ("b", 2); ("c", 3) ];
  ignore (Lru.find c "a");
  ignore (Lru.find c "zzz");
  Lru.remove c "b";
  check Alcotest.int "length after remove" 2 (Lru.length c);
  check Alcotest.bool "removed" false (Lru.mem c "b");
  Lru.remove c "b" (* removing an absent key is a no-op *);
  Lru.clear c;
  check Alcotest.int "cleared" 0 (Lru.length c);
  check Alcotest.int "hits survive clear" 1 (Lru.hits c);
  check Alcotest.int "misses survive clear" 1 (Lru.misses c);
  check Alcotest.int "clear is not an eviction" 0 (Lru.evictions c);
  Lru.put c "x" 9;
  check Alcotest.(option int) "usable after clear" (Some 9) (Lru.find c "x")

let test_lru_capacity_one () =
  let c = Lru.create 1 in
  Lru.put c 1 "one";
  Lru.put c 2 "two";
  check Alcotest.int "length stays one" 1 (Lru.length c);
  check Alcotest.(option string) "latest wins" (Some "two") (Lru.find c 2);
  check Alcotest.int "evicted" 1 (Lru.evictions c);
  check Alcotest.bool "rejects capacity 0" true
    (try
       ignore (Lru.create 0);
       false
     with Invalid_argument _ -> true)

(* Model check against an association-list LRU: same finds, same
   contents, same recency order, under a random operation stream. *)
let test_lru_model () =
  let cap = 4 in
  let c = Lru.create cap in
  let model = ref [] (* most recent first, length <= cap *) in
  let rng = Prng.create 2026 in
  for _ = 1 to 2_000 do
    let k = Prng.int rng 8 in
    match Prng.int rng 3 with
    | 0 ->
        let v = Prng.int rng 1000 in
        model := (k, v) :: List.remove_assoc k !model;
        if List.length !model > cap then
          model := List.filteri (fun i _ -> i < cap) !model;
        Lru.put c k v
    | 1 ->
        let expected = List.assoc_opt k !model in
        if expected <> None then
          model := (k, List.assoc k !model) :: List.remove_assoc k !model;
        check Alcotest.(option int) "find agrees" expected (Lru.find c k)
    | _ ->
        model := List.remove_assoc k !model;
        Lru.remove c k
  done;
  check
    Alcotest.(list (pair int int))
    "final recency order" !model (Lru.to_list c)

(* Weighted entries: capacity bounds total weight, eviction still walks
   the recency tail, and a heavier-than-capacity binding is admitted
   alone. *)
let test_lru_weights () =
  let c = Lru.create 10 in
  Lru.put ~weight:4 c "a" 1;
  Lru.put ~weight:4 c "b" 2;
  check Alcotest.int "total weight" 8 (Lru.total_weight c);
  (* weight 4 would exceed 10: the LRU binding "a" goes, not "b" *)
  ignore (Lru.find c "b");
  Lru.put ~weight:4 c "c" 3;
  check Alcotest.bool "tail evicted first" false (Lru.mem c "a");
  check Alcotest.bool "recently used survives" true (Lru.mem c "b");
  check Alcotest.int "one eviction" 1 (Lru.evictions c);
  check Alcotest.int "total after eviction" 8 (Lru.total_weight c);
  (* a light entry still fits without evicting *)
  Lru.put c "d" 4;
  check Alcotest.int "unit default weight" 9 (Lru.total_weight c);
  check Alcotest.int "no extra eviction" 1 (Lru.evictions c);
  (* one heavy entry may evict several light ones, in recency order *)
  Lru.put ~weight:9 c "e" 5;
  check
    Alcotest.(list (pair string int))
    "evicts from the tail until it fits" [ ("e", 5); ("d", 4) ]
    (Lru.to_list c);
  check Alcotest.int "two more evictions" 3 (Lru.evictions c);
  (* replacing a binding at a new weight re-balances *)
  Lru.put ~weight:1 c "e" 50;
  check Alcotest.int "re-weighted total" 2 (Lru.total_weight c);
  (* heavier than the whole cache: admitted alone *)
  Lru.put ~weight:99 c "huge" 6;
  check Alcotest.int "alone" 1 (Lru.length c);
  check Alcotest.int "overweight admitted" 99 (Lru.total_weight c);
  check Alcotest.(option int) "and readable" (Some 6) (Lru.find c "huge");
  check Alcotest.bool "rejects weight 0" true
    (try
       Lru.put ~weight:0 c "z" 0;
       false
     with Invalid_argument _ -> true)

(* --- Exec: context building --- *)

let test_exec_default_and_builders () =
  check Alcotest.bool "default has no pool" true (Exec.default.Exec.pool = None);
  check Alcotest.bool "default has no budget" true
    (Exec.default.Exec.budget = None);
  check Alcotest.bool "default metrics disabled" false
    (Metrics.is_enabled Exec.default.Exec.metrics);
  let same_pool p = function Some p' -> p' == p | None -> false in
  let same_budget b = function Some b' -> b' == b | None -> false in
  let b = Budget.create ~ticks:10 () in
  let m = Metrics.create () in
  Pool.with_pool 2 (fun pool ->
      (* one part at a time: the others keep [default]'s values *)
      let only_pool = Exec.make ~pool () in
      check Alcotest.bool "make ~pool sets only pool" true
        (same_pool pool only_pool.Exec.pool
        && only_pool.Exec.budget = None
        && only_pool.Exec.metrics == Exec.default.Exec.metrics);
      let only_budget = Exec.make ~budget:b () in
      check Alcotest.bool "make ~budget sets only budget" true
        (same_budget b only_budget.Exec.budget && only_budget.Exec.pool = None);
      let only_metrics = Exec.make ~metrics:m () in
      check Alcotest.bool "make ~metrics sets only metrics" true
        (only_metrics.Exec.metrics == m
        && only_metrics.Exec.pool = None
        && only_metrics.Exec.budget = None);
      let made = Exec.make ~pool ~budget:b ~metrics:m () in
      check Alcotest.bool "make sets all three" true
        (same_pool pool made.Exec.pool
        && same_budget b made.Exec.budget
        && made.Exec.metrics == m))

let test_exec_ctx_in_solver () =
  (* the ctx contract, observed end to end: the same solver entry point
     records into whichever metrics sink its context carries, whether
     the context is a record update of [Exec.default] or built by
     [Exec.make], and the two are indistinguishable *)
  let db =
    Lb_relalg.Database.of_list
      [ ("E", Lb_relalg.Relation.make [| "u"; "v" |]
            [ [| 1; 2 |]; [| 2; 3 |]; [| 3; 1 |] ]) ]
  in
  let q = Lb_relalg.Query.parse "E(x,y), E(y,z), E(z,x)" in
  let via_update = Metrics.create () in
  let n1 =
    Lb_relalg.Generic_join.count
      ~ctx:{ Exec.default with Exec.metrics = via_update }
      db q
  in
  let via_make = Metrics.create () in
  let n2 =
    Lb_relalg.Generic_join.count ~ctx:(Exec.make ~metrics:via_make ()) db q
  in
  let untouched = Metrics.create () in
  let n3 =
    Lb_relalg.Generic_join.count
      ~ctx:(Exec.make ~metrics:(Metrics.create ()) ())
      db q
  in
  check Alcotest.int "same answer" n1 n2;
  check Alcotest.int "same answer (fresh sink)" n1 n3;
  let builds m = Metrics.find_counter m "generic_join.trie_builds" in
  check Alcotest.(option int) "record-update sink recorded" (Some 1)
    (builds via_update);
  check Alcotest.(option int) "Exec.make sink recorded" (Some 1)
    (builds via_make);
  check Alcotest.(option int) "unrelated sink untouched" None
    (builds untouched)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng rejects bad bound" `Quick test_prng_int_rejects;
    Alcotest.test_case "prng sample" `Quick test_prng_sample;
    Alcotest.test_case "prng shuffle permutation" `Quick
      test_prng_shuffle_permutation;
    Alcotest.test_case "prng bernoulli frequency" `Quick
      test_prng_bernoulli_frequency;
    QCheck_alcotest.to_alcotest bitset_model_prop;
    Alcotest.test_case "bitset fill/clear" `Quick test_bitset_fill_clear;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    Alcotest.test_case "bitset choose" `Quick test_bitset_choose;
    Alcotest.test_case "union find" `Quick test_union_find;
    Alcotest.test_case "int matmul" `Quick test_matrix_int_mul;
    QCheck_alcotest.to_alcotest bool_matmul_prop;
    Alcotest.test_case "matrix trace" `Quick test_matrix_trace;
    Alcotest.test_case "binomial" `Quick test_binomial;
    Alcotest.test_case "subset count" `Quick test_iter_subsets_count;
    Alcotest.test_case "subsets sorted" `Quick test_iter_subsets_sorted_distinct;
    Alcotest.test_case "tuple count" `Quick test_iter_tuples_count;
    Alcotest.test_case "power" `Quick test_power;
    Alcotest.test_case "fit power" `Quick test_fit_power;
    Alcotest.test_case "fit exponential" `Quick test_fit_exponential;
    Alcotest.test_case "prng split independence" `Quick test_prng_split_independence;
    Alcotest.test_case "bool matmul diagonal" `Quick test_matrix_bool_diagonal;
    Alcotest.test_case "bool transpose" `Quick test_matrix_transpose;
    Alcotest.test_case "rows intersect" `Quick test_rows_intersect;
    Alcotest.test_case "bits popcount" `Quick test_bits_popcount;
    Alcotest.test_case "bits ctz" `Quick test_bits_ctz;
    Alcotest.test_case "bits words_for" `Quick test_bits_words_for;
    Alcotest.test_case "bool mul_count vs int mul" `Quick
      test_matrix_mul_count;
    Alcotest.test_case "bool all_set / equal" `Quick test_matrix_all_set_equal;
    Alcotest.test_case "bool of_packed_rows" `Quick test_matrix_of_packed_rows;
    Alcotest.test_case "find orthogonal rows" `Quick test_find_orthogonal_rows;
    Alcotest.test_case "find subset" `Quick test_find_subset;
    Alcotest.test_case "tabulate" `Quick test_tabulate;
    Alcotest.test_case "pool covers all chunks" `Quick
      test_pool_covers_all_chunks;
    Alcotest.test_case "pool re-raises chunk failure" `Quick test_pool_reraises;
    Alcotest.test_case "pool of one runs inline" `Quick
      test_pool_size_one_inline;
    Alcotest.test_case "lru basic" `Quick test_lru_basic;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru remove and clear" `Quick test_lru_remove_and_clear;
    Alcotest.test_case "lru capacity one" `Quick test_lru_capacity_one;
    Alcotest.test_case "lru model check" `Quick test_lru_model;
    Alcotest.test_case "lru weighted eviction" `Quick test_lru_weights;
    Alcotest.test_case "exec default and builders" `Quick
      test_exec_default_and_builders;
    Alcotest.test_case "exec ctx observed through a solver" `Quick
      test_exec_ctx_in_solver;
  ]
