(* Edit distance (Section 7): the textbook O(n^2) dynamic program whose
   SETH-optimality (Backurs-Indyk) the paper cites, plus the
   Ukkonen-style banded O(n d) variant that is possible when the distance
   is promised small - the structure of the quadratic lower bound says
   nothing about parameterized improvements, and E9 measures both.

   Strings are int arrays (any alphabet dictionary-encodes to this). *)

(* Budgets tick once per DP row: a row is O(m) (or O(band)) work, so a
   deadline interrupts within a quantum of rows. *)
let tick = function Some b -> Lb_util.Budget.tick b | None -> ()

let quadratic ?(ctx = Lb_util.Exec.default) a b =
  let n = Array.length a and m = Array.length b in
  let prev = Array.init (m + 1) Fun.id in
  let curr = Array.make (m + 1) 0 in
  for i = 1 to n do
    tick ctx.Lb_util.Exec.budget;
    curr.(0) <- i;
    for j = 1 to m do
      let cost = if a.(i - 1) = b.(j - 1) then 0 else 1 in
      curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit curr 0 prev 0 (m + 1)
  done;
  prev.(m)

(* Banded DP: exact if the true distance is <= band, otherwise returns
   None.  O(n * band).  Cells are addressed by the diagonal offset
   j - i + band, which stays fixed along the substitution edge. *)
let banded ?(ctx = Lb_util.Exec.default) a b ~band =
  let n = Array.length a and m = Array.length b in
  if abs (n - m) > band then None
  else begin
    let inf = max_int / 2 in
    let width = (2 * band) + 1 in
    let prev = Array.make width inf in
    let curr = Array.make width inf in
    (* row 0: D(0,j) = j *)
    for j = 0 to min m band do
      prev.(j + band) <- j
    done;
    for i = 1 to n do
      tick ctx.Lb_util.Exec.budget;
      Array.fill curr 0 width inf;
      let jlo = max 0 (i - band) and jhi = min m (i + band) in
      for j = jlo to jhi do
        let off = j - i + band in
        if j = 0 then curr.(off) <- i
        else begin
          (* substitution: same offset in the previous row *)
          let cost = if a.(i - 1) = b.(j - 1) then 0 else 1 in
          let best = ref (prev.(off) + cost) in
          (* deletion D(i-1, j): offset + 1, valid while in band *)
          if off + 1 < width then best := min !best (prev.(off + 1) + 1);
          (* insertion D(i, j-1): offset - 1 in the current row *)
          if off - 1 >= 0 then best := min !best (curr.(off - 1) + 1);
          curr.(off) <- !best
        end
      done;
      Array.blit curr 0 prev 0 width
    done;
    let d = prev.(m - n + band) in
    if d > band then None else Some d
  end

(* Adaptive: double the band until the banded result is definite; the
   total work is O(n * d) for distance d. *)
let adaptive ?(ctx = Lb_util.Exec.default) a b =
  let rec go band =
    match banded ~ctx a b ~band with
    | Some d when d <= band -> d
    | _ ->
        let n = max (Array.length a) (Array.length b) in
        if band >= n then quadratic ~ctx a b else go (2 * band)
  in
  go 1

(* Random-string workloads for E9. *)
let random_string rng n sigma =
  Array.init n (fun _ -> Lb_util.Prng.int rng sigma)

(* A pair at guaranteed distance <= d: mutate d random positions. *)
let mutated_pair rng n sigma d =
  let a = random_string rng n sigma in
  let b = Array.copy a in
  for _ = 1 to d do
    b.(Lb_util.Prng.int rng n) <- Lb_util.Prng.int rng sigma
  done;
  (a, b)
