(* Off-heap columnar storage layer: unit tests for Column, plus the
   seeded differential suite that pins the bit-identity gate of the
   storage swap - a Column-backed Trie walked against an [int
   array]-based oracle on random data, including the gallop boundary
   cases (empty ranges, lo = hi, value past the end) - and the mmap
   snapshot image round trip. *)

module Column = Lb_util.Column
module Prng = Lb_util.Prng
module R = Lb_relalg.Relation
module Trie = Lb_relalg.Trie
module Json = Lb_service.Json
module Snapshot = Lb_service.Snapshot

let check = Alcotest.check

let prop_count default =
  match Sys.getenv_opt "LBT_PROP_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* --- Column unit tests --- *)

let test_column_basics () =
  let c = Column.init 10 (fun i -> i * i) in
  check Alcotest.int "length" 10 (Column.length c);
  check Alcotest.int "get" 49 (Column.get c 7);
  Column.set c 7 (-1);
  check Alcotest.int "set" (-1) (Column.get c 7);
  check Alcotest.int "empty" 0 (Column.length Column.empty);
  let m = Column.make 4 3 in
  check Alcotest.(list int) "make" [ 3; 3; 3; 3 ] (Array.to_list (Column.to_array m));
  Column.fill m 0;
  check Alcotest.(list int) "fill" [ 0; 0; 0; 0 ] (Array.to_list (Column.to_array m))

let test_column_round_trip () =
  let a = [| 5; -3; 0; max_int; min_int; 42 |] in
  let c = Column.of_array a in
  check Alcotest.(list int) "of_array/to_array" (Array.to_list a)
    (Array.to_list (Column.to_array c));
  let d = Column.copy c in
  Column.set d 0 99;
  check Alcotest.int "copy is independent" 5 (Column.get c 0);
  Alcotest.(check bool) "equal" true (Column.equal c (Column.of_array a));
  Alcotest.(check bool) "not equal (element)" false (Column.equal c d);
  Alcotest.(check bool)
    "not equal (length)" false
    (Column.equal c (Column.sub c 0 3))

let test_column_sub_aliases () =
  let c = Column.init 8 (fun i -> i) in
  let v = Column.sub c 2 4 in
  check Alcotest.int "view length" 4 (Column.length v);
  check Alcotest.int "view offset" 2 (Column.get v 0);
  Column.set v 0 77;
  check Alcotest.int "view shares storage" 77 (Column.get c 2)

let test_column_blit () =
  let src = Column.init 6 (fun i -> 10 + i) in
  let dst = Column.make 6 0 in
  Column.blit ~src ~src_pos:1 ~dst ~dst_pos:3 ~len:3;
  check Alcotest.(list int) "blit" [ 0; 0; 0; 11; 12; 13 ]
    (Array.to_list (Column.to_array dst));
  (* len = 0 is a no-op, even at the very end of the column *)
  Column.blit ~src ~src_pos:6 ~dst ~dst_pos:6 ~len:0;
  (* overlapping blit within one column behaves like a memmove *)
  let c = Column.init 5 (fun i -> i) in
  Column.blit ~src:c ~src_pos:0 ~dst:c ~dst_pos:1 ~len:4;
  check Alcotest.(list int) "overlap" [ 0; 0; 1; 2; 3 ]
    (Array.to_list (Column.to_array c))

(* --- gallop boundary cases --- *)

let test_gallop_boundaries () =
  let col = Column.of_array [| 1; 3; 3; 5; 9 |] in
  let n = 5 in
  (* empty range: lo = hi anywhere, including 0 and n *)
  List.iter
    (fun i ->
      check Alcotest.int "geq empty" i (Trie.gallop_geq col i i 3);
      check Alcotest.int "gt empty" i (Trie.gallop_gt col i i 3))
    [ 0; 2; n ];
  (* value past the end of the range *)
  check Alcotest.int "geq past end" n (Trie.gallop_geq col 0 n 10);
  check Alcotest.int "gt past end" n (Trie.gallop_gt col 0 n 9);
  (* value below every key *)
  check Alcotest.int "geq below" 0 (Trie.gallop_geq col 0 n 0);
  check Alcotest.int "gt below" 0 (Trie.gallop_gt col 0 n 0);
  (* duplicates: geq finds the first, gt skips them all *)
  check Alcotest.int "geq dup" 1 (Trie.gallop_geq col 0 n 3);
  check Alcotest.int "gt dup" 3 (Trie.gallop_gt col 0 n 3);
  (* sub-range never looks outside [lo, hi) *)
  check Alcotest.int "geq windowed" 3 (Trie.gallop_geq col 3 4 2);
  check Alcotest.int "gt windowed" 4 (Trie.gallop_gt col 3 4 5)

(* --- differential properties: Column-backed structures vs oracles --- *)

let sorted_distinct rows =
  let arr = Array.of_list (List.map Array.copy rows) in
  Array.sort R.compare_tuples arr;
  Array.of_list
    (List.filteri
       (fun i r -> i = 0 || R.compare_tuples arr.(i - 1) r <> 0)
       (Array.to_list arr))

let random_rows rng ~n ~width ~dom =
  List.init n (fun _ -> Array.init width (fun _ -> Prng.int rng dom))

(* Full trie walk (iter_keys + narrow at every depth) must enumerate
   exactly the oracle's sorted distinct rows. *)
let rows_of_trie trie =
  let w = Array.length (Trie.attrs trie) in
  let out = ref [] in
  let rec go depth lo hi prefix =
    if depth = w then out := Array.of_list (List.rev prefix) :: !out
    else
      Trie.iter_keys trie ~depth ~lo ~hi (fun v l h ->
          go (depth + 1) l h (v :: prefix))
  in
  if Trie.row_count trie > 0 then go 0 0 (Trie.row_count trie) [];
  Array.of_list (List.rev !out)

let trie_vs_oracle_prop () =
  let iters = prop_count 30 in
  for case = 0 to iters - 1 do
    let rng = Prng.create (0x51CA + (case * 7919)) in
    let width = 1 + Prng.int rng 3 in
    let n = Prng.int rng 40 in
    let dom = 1 + Prng.int rng 8 in
    let rows = random_rows rng ~n ~width ~dom in
    let attrs = Array.init width (fun i -> Printf.sprintf "c%d" i) in
    let oracle = sorted_distinct rows in
    let rel = R.make attrs rows in
    let trie = Trie.build ~order:attrs rel in
    let ctxt = Printf.sprintf "case %d (n=%d w=%d)" case n width in
    check Alcotest.int (ctxt ^ ": row_count") (Array.length oracle)
      (Trie.row_count trie);
    check
      Alcotest.(list (list int))
      (ctxt ^ ": walk = oracle")
      (Array.to_list (Array.map Array.to_list oracle))
      (Array.to_list (Array.map Array.to_list (rows_of_trie trie)));
    (* seeks at depth 0 vs a naive scan over the oracle's first column *)
    let rows0 = Trie.row_count trie in
    for v = -1 to dom + 1 do
      let naive_geq = ref rows0 and naive_gt = ref rows0 in
      for i = rows0 - 1 downto 0 do
        if oracle.(i).(0) >= v then naive_geq := i;
        if oracle.(i).(0) > v then naive_gt := i
      done;
      check Alcotest.int
        (Printf.sprintf "%s: lower_bound %d" ctxt v)
        !naive_geq
        (Trie.lower_bound trie ~depth:0 ~lo:0 ~hi:rows0 v);
      check Alcotest.int
        (Printf.sprintf "%s: upper_bound %d" ctxt v)
        !naive_gt
        (Trie.upper_bound trie ~depth:0 ~lo:0 ~hi:rows0 v)
    done
  done

(* --- mmap snapshot image round trip --- *)

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lbt_column_test_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_image_round_trip () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "snapshot.lbt" in
  let rels =
    [
      ("E", 3, [| Column.of_array [| 1; 1; 2 |]; Column.of_array [| 2; 3; 3 |] |]);
      ("empty", 0, [| Column.empty |]);
      ("unary", 2, [| Column.of_array [| 4; 9 |] |]);
    ]
  in
  Snapshot.write_image ~path ~stamp:"stamp-1" rels;
  (match Snapshot.read_image ~path ~stamp:"stamp-1" with
  | None -> Alcotest.fail "image did not read back"
  | Some got ->
      check Alcotest.int "relation count" 3 (List.length got);
      List.iter2
        (fun (n, r, cols) (n', r', cols') ->
          check Alcotest.string "name" n n';
          check Alcotest.int "rows" r r';
          check Alcotest.int "width" (Array.length cols) (Array.length cols');
          Array.iteri
            (fun i c ->
              Alcotest.(check bool)
                (Printf.sprintf "%s col %d" n i)
                true (Column.equal c cols'.(i)))
            cols)
        rels got);
  (* wrong stamp: the image is for some other snapshot - refuse it *)
  Alcotest.(check bool)
    "stamp mismatch reads as absent" true
    (Snapshot.read_image ~path ~stamp:"stamp-2" = None);
  (* truncation: a short file can never satisfy its own header *)
  let full = In_channel.with_open_bin (Snapshot.cols_path path) In_channel.input_all in
  Out_channel.with_open_bin (Snapshot.cols_path path) (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 8)));
  Alcotest.(check bool)
    "torn image reads as absent" true
    (Snapshot.read_image ~path ~stamp:"stamp-1" = None)

let test_image_missing () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "nothing.lbt" in
  Alcotest.(check bool)
    "missing image reads as absent" true
    (Snapshot.read_image ~path ~stamp:"s" = None)

let suite =
  [
    Alcotest.test_case "column: basics" `Quick test_column_basics;
    Alcotest.test_case "column: array round trip" `Quick test_column_round_trip;
    Alcotest.test_case "column: sub views alias" `Quick test_column_sub_aliases;
    Alcotest.test_case "column: blit" `Quick test_column_blit;
    Alcotest.test_case "gallop: boundary cases" `Quick test_gallop_boundaries;
    Alcotest.test_case "prop: column trie vs array oracle" `Quick
      trie_vs_oracle_prop;
    Alcotest.test_case "image: round trip" `Quick test_image_round_trip;
    Alcotest.test_case "image: missing" `Quick test_image_missing;
  ]
