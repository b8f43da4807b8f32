(* Orthogonal Vectors: given two sets of n 0/1-vectors of dimension d, is
   there a pair (one from each side) with empty coordinate-wise
   intersection?  The canonical SETH-hard problem of fine-grained
   complexity (Section 7); the quadratic scan below is conjectured
   optimal up to n^{o(1)} for d = omega(log n).

   Vectors are bit-packed, so the inner test is O(d/63). *)

module Prng = Lb_util.Prng

type instance = {
  dim : int;
  left : int array array; (* each vector = packed words *)
  right : int array array;
}

let words_for dim = Lb_util.Bits.words_for ~bits:63 dim

let pack dim bools =
  let w = Array.make (words_for dim) 0 in
  Array.iteri (fun i b -> if b then w.(i / 63) <- w.(i / 63) lor (1 lsl (i mod 63))) bools;
  w

let of_bool_arrays ~dim left right =
  { dim; left = Array.map (pack dim) left; right = Array.map (pack dim) right }

let orthogonal a b =
  let ok = ref true in
  for w = 0 to Array.length a - 1 do
    if a.(w) land b.(w) <> 0 then ok := false
  done;
  !ok

(* Quadratic scan; returns a witness pair of indices.  The budget is
   ticked once per left row (each row is O(n d / 63) work), so a
   deadline interrupts the scan within a quantum of rows; [metrics]
   counts the pairs actually examined — exactly [i*nr + j + 1] at a
   witness (i, j), [nl*nr] on a miss, and the completed prefix on a
   budget interrupt.  Plain while-loops instead of iterators + [Exit]
   so the count can't drift when the exit unwinds mid-row. *)
let solve ?(ctx = Lb_util.Exec.default) inst =
  let budget = ctx.Lb_util.Exec.budget and metrics = ctx.Lb_util.Exec.metrics in
  let nl = Array.length inst.left and nr = Array.length inst.right in
  let res = ref None in
  let pairs = ref 0 in
  Fun.protect ~finally:(fun () ->
      Lb_util.Metrics.add metrics "ov.pairs_scanned" !pairs)
  @@ fun () ->
  let i = ref 0 in
  while !res = None && !i < nl do
    (match budget with Some b -> Lb_util.Budget.tick b | None -> ());
    let a = inst.left.(!i) in
    let j = ref 0 in
    while !res = None && !j < nr do
      incr pairs;
      if orthogonal a inst.right.(!j) then res := Some (!i, !j);
      incr j
    done;
    incr i
  done;
  !res

let solve_bounded ?ctx inst =
  Lb_util.Budget.protect (fun () -> solve ?ctx inst)

(* Blocked route: the packed vectors already use Matrix.Bool's 63-bit
   row layout, so both sides adopt in-place into matrices and the
   search for an orthogonal pair becomes finding a zero entry of
   A * B^T via the kernel's banded scan (early exit per band,
   optionally Domain-parallel with a deterministic witness).  The
   [ov.pairs_scanned] delta is derived from the witness position, so it
   matches [solve]'s count exactly (and deterministically, even under
   a [ctx] pool, where the words actually touched vary). *)
let solve_blocked ?(ctx = Lb_util.Exec.default) inst =
  let metrics = ctx.Lb_util.Exec.metrics in
  let a = Lb_util.Matrix.Bool.of_packed_rows ~m:inst.dim inst.left in
  let b = Lb_util.Matrix.Bool.of_packed_rows ~m:inst.dim inst.right in
  let res = Lb_util.Matrix.Bool.find_orthogonal_rows ~ctx a b in
  let nr = Array.length inst.right in
  let pairs =
    match res with
    | Some (i, j) -> (i * nr) + j + 1
    | None -> Array.length inst.left * nr
  in
  Lb_util.Metrics.add metrics "ov.pairs_scanned" pairs;
  res

(* Random instance: each coordinate set with probability p.  With p
   around 1/2 and d >> log n, orthogonal pairs are rare, keeping the
   scan at its quadratic worst case. *)
let random rng ~n ~dim ~p =
  let vec () = Array.init dim (fun _ -> Prng.bernoulli rng p) in
  of_bool_arrays ~dim
    (Array.init n (fun _ -> vec ()))
    (Array.init n (fun _ -> vec ()))

(* Count all orthogonal pairs (for tests). *)
let count inst =
  let c = ref 0 in
  Array.iter
    (fun a -> Array.iter (fun b -> if orthogonal a b then incr c) inst.right)
    inst.left;
  !c
