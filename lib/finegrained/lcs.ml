(* Longest common subsequence: the other classic quadratic-DP problem in
   the fine-grained canon cited in Section 7 (Abboud-Backurs-Vassilevska
   Williams; Bringmann-Kunnemann).  Quadratic DP plus the bit-parallel
   Allison-Dix speedup, whose n^2/word behaviour illustrates what the
   conditional lower bound permits: constants (and polylog factors) move,
   the quadratic shape stays. *)

(* Both variants tick the budget once per DP row (O(m) resp. O(m/62)
   work), so a deadline interrupts within a quantum of rows. *)
let tick = function Some b -> Lb_util.Budget.tick b | None -> ()

let quadratic ?(ctx = Lb_util.Exec.default) a b =
  let n = Array.length a and m = Array.length b in
  let prev = Array.make (m + 1) 0 in
  let curr = Array.make (m + 1) 0 in
  for i = 1 to n do
    tick ctx.Lb_util.Exec.budget;
    for j = 1 to m do
      curr.(j) <-
        (if a.(i - 1) = b.(j - 1) then prev.(j - 1) + 1
         else max prev.(j) curr.(j - 1))
    done;
    Array.blit curr 0 prev 0 (m + 1)
  done;
  prev.(m)

(* Bit-parallel LCS (Allison-Dix): the DP row is a bit vector V (1 = the
   column value does not increase here); the update per input symbol is
     U = V & M;  V = (V + U) | (V - U)
   over m-bit arithmetic, where M is the symbol's match mask in [b].
   We use 62 payload bits per word so carries fit in the native int.
   LCS = number of zero bits in the final V. *)
let word_bits = 62

let word_mask = (1 lsl word_bits) - 1

let bitparallel ?(ctx = Lb_util.Exec.default) a b =
  let n = Array.length a and m = Array.length b in
  if m = 0 || n = 0 then 0
  else begin
    let sigma = 1 + Array.fold_left max 0 (Array.append a b) in
    let words = Lb_util.Bits.words_for ~bits:word_bits m in
    let masks = Array.make_matrix sigma words 0 in
    Array.iteri
      (fun j c ->
        masks.(c).(j / word_bits) <-
          masks.(c).(j / word_bits) lor (1 lsl (j mod word_bits)))
      b;
    (* valid-bit mask for the last word *)
    let last_valid =
      if m mod word_bits = 0 then word_mask else (1 lsl (m mod word_bits)) - 1
    in
    let v = Array.make words word_mask in
    v.(words - 1) <- last_valid;
    let u = Array.make words 0 in
    let sum = Array.make words 0 in
    let diff = Array.make words 0 in
    for i = 0 to n - 1 do
      tick ctx.Lb_util.Exec.budget;
      let mrow = masks.(a.(i)) in
      for w = 0 to words - 1 do
        u.(w) <- v.(w) land mrow.(w)
      done;
      (* sum = v + u with carry *)
      let carry = ref 0 in
      for w = 0 to words - 1 do
        let s = v.(w) + u.(w) + !carry in
        sum.(w) <- s land word_mask;
        carry := s lsr word_bits
      done;
      (* diff = v - u with borrow *)
      let borrow = ref 0 in
      for w = 0 to words - 1 do
        let d = v.(w) - u.(w) - !borrow in
        if d < 0 then begin
          diff.(w) <- d + word_mask + 1;
          borrow := 1
        end
        else begin
          diff.(w) <- d;
          borrow := 0
        end
      done;
      for w = 0 to words - 1 do
        v.(w) <- (sum.(w) lor diff.(w)) land word_mask
      done;
      v.(words - 1) <- v.(words - 1) land last_valid
    done;
    (* LCS = number of zero bits among the m valid positions; words
       beyond the valid mask are already clear, so m minus the total
       popcount counts them word-parallel. *)
    let ones = ref 0 in
    for w = 0 to words - 1 do
      ones := !ones + Lb_util.Bits.popcount v.(w)
    done;
    m - !ones
  end
