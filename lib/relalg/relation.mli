(** Named relations: a schema of attribute names and a duplicate-free
    set of int tuples - the "table" of Section 2.1.  Any value type
    dictionary-encodes to ints without changing the complexity behaviour
    this library studies. *)

type t

(** Validates distinct attributes and uniform tuple width; deduplicates
    tuples. *)
val make : string array -> int array list -> t

(** Trusted constructor: [rows] must be duplicate-free (and, wherever
    the sorted form is relied on - the catalog's stored rows, shard
    buckets - already lexicographically sorted).  No dedup, no copy of
    the rows - ownership transfers.  Raises on invalid schemas or
    ragged rows. *)
val of_sorted_distinct : string array -> int array array -> t

(** Monomorphic lexicographic comparison of two equal-width tuples -
    the order {!make} stores tuples in and the canonical row order of
    served answers. *)
val compare_tuples : int array -> int array -> int

val attrs : t -> string array

(** The tuples.  Callers must not mutate them. *)
val tuples : t -> int array array

val cardinality : t -> int

val width : t -> int

val mem : t -> int array -> bool

val attr_index : t -> string -> int option

val has_attr : t -> string -> bool

(** All values appearing anywhere, sorted. *)
val active_domain : t -> int list

(** Rename attributes via an association list. *)
val rename : t -> (string * string) list -> t

(** Projection (deduplicates). Raises on unknown attributes. *)
val project : t -> string array -> t

val select_eq : t -> string -> int -> t

val common_attrs : t -> t -> string list

(** Hash-based natural join; a cross product when no attributes are
    shared. *)
val natural_join : t -> t -> t

(** Tuples of the left operand that join with some tuple of the right. *)
val semijoin : t -> t -> t

(** Same schema (in order) and same tuples. *)
val equal : t -> t -> bool

(** Same content modulo column order. *)
val equal_modulo_order : t -> t -> bool

(** Requires disjoint schemas. *)
val cross_product : t -> t -> t

val pp : Format.formatter -> t -> unit
