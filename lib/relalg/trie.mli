(** Sorted columnar tries over a global attribute order: the shared
    relation view of both worst-case-optimal joins.  A trie node is a
    row range at a depth; storage is one flat off-heap
    {!Lb_util.Column} per level (struct-of-arrays, unboxed, invisible
    to the GC), built by a monomorphic lexicographic sort; navigation
    is galloping search (LFTJ's "seek"). *)

type t

val attrs : t -> string array

val depth_count : t -> int

val row_count : t -> int

(** The sorted column at a depth.  Exposed for the join engines' hot
    loops; callers must not mutate it. *)
val column : t -> int -> Lb_util.Column.t

(** Permute the relation's columns into the order induced by the global
    [order] and sort lexicographically.  Raises if some attribute is
    missing from [order]. *)
val build : order:string array -> Relation.t -> t

(** [gallop_geq col lo hi v] is the first index in [\[lo, hi)] with
    [col.(i) >= v] ([hi] if none), by exponential search from [lo]: the
    cost is logarithmic in the distance advanced, so repeated seeks with
    a moving cursor are amortized.  Probes are unchecked; [\[lo, hi)]
    must lie within the column. *)
val gallop_geq : Lb_util.Column.t -> int -> int -> int -> int

(** Same with [col.(i) > v]. *)
val gallop_gt : Lb_util.Column.t -> int -> int -> int -> int

(** First index in [\[lo, hi)] whose key at [depth] is [>= v]. *)
val lower_bound : t -> depth:int -> lo:int -> hi:int -> int -> int

(** First index in [\[lo, hi)] whose key at [depth] is [> v]. *)
val upper_bound : t -> depth:int -> lo:int -> hi:int -> int -> int

(** Child range for value [v], if nonempty. *)
val narrow : t -> depth:int -> lo:int -> hi:int -> int -> (int * int) option

(** Iterate the distinct keys in a range with each key's child range. *)
val iter_keys :
  t -> depth:int -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit

val key_at : t -> depth:int -> int -> int

val distinct_key_count : t -> depth:int -> lo:int -> hi:int -> int
