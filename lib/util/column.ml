(* Off-heap unboxed int columns.

   A [Column.t] is a [Bigarray.Array1] of native ints in C layout: the
   payload lives outside the OCaml major heap, so the GC scans only the
   small header - never the data.  This is the storage type of every
   hot read path (trie levels, compiled loop-nest columns, packed
   matmul words): the major heap stops scaling with data size and serve
   tail latency stops inheriting mark-slice pauses.

   Semantics match [int array] exactly (same 63-bit boxing-free ints,
   same bounds discipline), so swapping a column in is a pure layout
   change: answers and counters stay bit-identical.  Sub-views share
   storage (zero-copy). *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let empty : t = create 0

let length (c : t) = Bigarray.Array1.dim c

let get (c : t) i = Bigarray.Array1.get c i

let set (c : t) i v = Bigarray.Array1.set c i v

let unsafe_get (c : t) i = Bigarray.Array1.unsafe_get c i

let unsafe_set (c : t) i v = Bigarray.Array1.unsafe_set c i v

(* Zero-copy view of [len] elements starting at [pos]; writes through
   the view are visible in the parent. *)
let sub (c : t) pos len : t = Bigarray.Array1.sub c pos len

let fill (c : t) v = Bigarray.Array1.fill c v

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len > 0 then
    Bigarray.Array1.blit (sub src src_pos len) (sub dst dst_pos len)

let init n f : t =
  let c = create n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set c i (f i)
  done;
  c

let make n v : t =
  let c = create n in
  if n > 0 then fill c v;
  c

let of_array (a : int array) : t =
  let n = Array.length a in
  let c = create n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set c i (Array.unsafe_get a i)
  done;
  c

let to_array (c : t) =
  let n = length c in
  Array.init n (fun i -> Bigarray.Array1.unsafe_get c i)

let copy (c : t) : t =
  let n = length c in
  let d = create n in
  if n > 0 then Bigarray.Array1.blit c d;
  d

let equal (a : t) (b : t) =
  let n = length a in
  n = length b
  &&
  let rec go i =
    i >= n
    || Bigarray.Array1.unsafe_get a i = Bigarray.Array1.unsafe_get b i
       && go (i + 1)
  in
  go 0

(* Reinterpret a mapped (or otherwise externally produced) int bigarray
   as a column - Snapshot.read_image hands these out. *)
let of_genarray g : t = Bigarray.array1_of_genarray g
