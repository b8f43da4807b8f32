(** Edit distance (Section 7): the quadratic DP whose SETH-optimality
    (Backurs-Indyk) the paper cites, plus the banded O(n d) variant the
    lower bound does not forbid.  Strings are int arrays. *)

(** The textbook O(nm) dynamic program.  All three solvers tick
    [?ctx]'s budget once per DP row, raising
    {!Lb_util.Budget.Budget_exhausted} when spent. *)
val quadratic : ?ctx:Lb_util.Exec.t -> int array -> int array -> int

(** Exact if the true distance is at most [band], else [None];
    O(n * band). *)
val banded :
  ?ctx:Lb_util.Exec.t -> int array -> int array -> band:int -> int option

(** Double the band until definite: O(n d) total for distance d. *)
val adaptive : ?ctx:Lb_util.Exec.t -> int array -> int array -> int

val random_string : Lb_util.Prng.t -> int -> int -> int array

(** A pair at edit distance at most [d] (by mutation). *)
val mutated_pair :
  Lb_util.Prng.t -> int -> int -> int -> int array * int array
