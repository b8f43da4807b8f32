(** Dense matrices: int matrices for counting walks, and word-packed
    Boolean matrices whose multiplication is this reproduction's
    stand-in for "fast matrix multiplication" (see DESIGN.md).

    The [Bool] kernel layer offers four product paths — naive word
    loop, cache-blocked word-scan, Method of Four Russians, and each of
    those under Domain parallelism — that produce bit-identical
    outputs.  Execution resources (pool, budget, metrics) are passed as
    one [?ctx] ({!Exec.t}); the [ctx] metrics sink receives
    ["matmul.words"] (words OR'd or AND-popcounted),
    ["matmul.table_builds"] (M4R group tables built), and
    ["matmul.int_ops"] (scalar multiply-adds in [Int.mul]). *)

module Int : sig
  type t

  val create : int -> int -> t

  val dims : t -> int * int

  val get : t -> int -> int -> int

  val set : t -> int -> int -> int -> unit

  val init : int -> int -> (int -> int -> int) -> t

  (** Cache-aware [i-k-j] product. Raises [Invalid_argument] on dimension
      mismatch.

      Overflow is {e not} checked: entries are native ints, so every
      partial sum must stay below [max_int] = 2^62 - 1.  A chain of
      [k] products of n x n 0/1 matrices has entries up to [n^(k-1)];
      for a single product of 0/1 matrices prefer [Bool.mul_count],
      whose entries are popcounts bounded by the shared dimension.

      A [ctx] pool parallelizes over bands of left rows with
      deterministic output; the [ctx] budget is ticked once per band. *)
  val mul : ?ctx:Exec.t -> t -> t -> t

  val trace : t -> int
end

module Bool : sig
  type t

  val create : int -> int -> t

  val dims : t -> int * int

  val get : t -> int -> int -> bool

  val set : t -> int -> int -> bool -> unit

  val init : int -> int -> (int -> int -> bool) -> t

  (** [of_packed_rows ~m rows] adopts rows already packed 63 bits per
      word, LSB first (the layout used by [Ov.pack]).  Rows may be
      shorter than the full word count (zero-padded); bits at positions
      >= [m] must be clear. *)
  val of_packed_rows : m:int -> int array array -> t

  (** Structural equality of dimensions and every entry. *)
  val equal : t -> t -> bool

  (** Is every entry set?  (Vacuously true when either dimension is
      0.) *)
  val all_set : t -> bool

  (** Boolean product, automatically dispatching between the naive,
      blocked, and Four-Russians kernels by size.  All paths are
      bit-identical; a [ctx] pool parallelizes over bands of left rows
      without changing the output. *)
  val mul : ?ctx:Exec.t -> t -> t -> t

  (** The naive per-bit loop: small-case and oracle path.  Sequential
      and unbudgeted: only the [ctx] metrics sink is used. *)
  val mul_naive : ?ctx:Exec.t -> t -> t -> t

  (** Cache-blocked word-scan over k-blocks of 252 columns. *)
  val mul_blocked : ?ctx:Exec.t -> t -> t -> t

  (** Method of Four Russians: per 8-row group of the right operand,
      precompute the 256 OR-combinations, then each left row costs one
      table OR per group instead of up to 8 row-ORs. *)
  val mul_m4r : ?ctx:Exec.t -> t -> t -> t

  (** Int-valued product of 0/1 matrices via popcount of
      [row(a) AND row(b^T)]: entry (i,j) counts the common witnesses,
      bounded by the shared dimension — no overflow, unlike an
      [Int.mul] power chain. *)
  val mul_count : ?ctx:Exec.t -> t -> t -> Int.t

  (** First [(i, j)] in row-major order with rows [i] of [a] and [j] of
      [b] disjoint — the first zero of A * B^T; [None] if every pair
      intersects.  The blocked Orthogonal Vectors kernel: sequential
      scan early-exits at the witness; under a [ctx] pool, whole bands
      of left rows run on domains with a band-skip protocol that keeps
      the returned pair deterministic (always the row-major-first one).
      Requires equal column counts. *)
  val find_orthogonal_rows : ?ctx:Exec.t -> t -> t -> (int * int) option

  (** Does the product have a [true] on its diagonal? Early-exits without
      materializing it. *)
  val mul_hits_diagonal : t -> t -> bool

  (** Do rows [i1] and [i2] share a [true] column? (The inner step of
      triangle detection.) *)
  val rows_intersect : t -> int -> int -> bool

  val transpose : t -> t
end
