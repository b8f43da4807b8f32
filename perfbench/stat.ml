(* Small numeric helpers: growable sample buffers and nearest-rank
   percentiles. *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.0; n = 0 }

let push s v =
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let to_sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [p] of the samples
   at or below it. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let percentile s p = percentile_sorted (to_sorted s) p

let median_list l =
  let s = samples () in
  List.iter (push s) l;
  percentile s 0.5

(* Monotonic seconds at nanosecond resolution: sub-0.1 ms latencies
   would collapse onto a few values at gettimeofday's microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
