(** Longest common subsequence - the other quadratic-DP classic of the
    fine-grained canon (Section 7's citations), with the bit-parallel
    Allison-Dix variant showing the word-size speedups the conditional
    lower bounds permit. *)

(** Both variants tick an [?ctx]'s budget once per DP row, raising
    {!Lb_util.Budget.Budget_exhausted} when spent. *)
val quadratic : ?ctx:Lb_util.Exec.t -> int array -> int array -> int

(** 62 DP columns per word; alphabet values must be small nonnegative
    ints. *)
val bitparallel : ?ctx:Lb_util.Exec.t -> int array -> int array -> int
