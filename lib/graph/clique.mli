(** Clique algorithms: the brute-force [n^k] search of Section 5, the
    Nesetril-Poljak matrix-multiplication route of Section 8, and
    Bron-Kerbosch for cross-checks. *)

(** Enumerate all [k]-cliques (as sorted arrays, reused between calls) by
    candidate-intersection backtracking.  Raise inside [f] to stop. *)
val iter_cliques : Graph.t -> int -> (int array -> unit) -> unit

(** First [k]-clique found, if any - the [O(n^k)] baseline. *)
val find_bruteforce : Graph.t -> int -> int array option

val count_cliques : Graph.t -> int -> int

(** All [t]-cliques as sorted arrays. *)
val list_cliques : Graph.t -> int -> int array list

(** Nesetril-Poljak: detect a [k]-clique ([k] a positive multiple of 3)
    as a triangle on the [k/3]-clique auxiliary graph, via word-packed
    Boolean matrix multiplication ([ctx]'s pool, budget and sink reach
    the kernel).  Returns a witness clique. *)
val find_matmul :
  ?ctx:Lb_util.Exec.t -> Graph.t -> int -> int array option

(** Maximum clique (Bron-Kerbosch with pivoting). *)
val max_clique : Graph.t -> int array
