(* Sorted columnar tries over a global attribute order.

   Both worst-case-optimal join implementations (Generic Join and
   Leapfrog Triejoin) view each relation as a trie whose levels follow
   the global variable order restricted to the relation's attributes.  We
   materialize the trie implicitly: tuples are permuted into that order
   and sorted lexicographically; a trie node is a row range [lo, hi) at a
   depth, and children are the maximal equal-key subranges at that depth.

   Layout is struct-of-arrays: one flat off-heap {!Lb_util.Column} per
   trie level, so a seek at depth d scans a single contiguous unboxed
   buffer instead of hopping through row pointers - and the GC never
   walks the data, only each column's constant-size header.  The
   lexicographic sort is a monomorphic three-way quicksort on (key,
   permutation) pairs, recursing per equal run into the next column - no
   polymorphic comparison is involved anywhere in the build.

   Navigation is galloping (exponential) search seeded at the low end of
   the query range: seeks that advance a cursor by k positions cost
   O(log k), which is what makes LFTJ's amortized seek bound real. *)

module Column = Lb_util.Column

type t = {
  attrs : string array; (* relation attrs permuted into global order *)
  nrows : int;
  cols : Column.t array; (* cols.(depth).(row); columnar, sorted lexicographically *)
}

let attrs t = t.attrs

let depth_count t = Array.length t.attrs

let row_count t = t.nrows

let column t depth = t.cols.(depth)

(* --- galloping search primitives on a raw column ---

   Accesses are unchecked: every probe index lies in [lo, hi), which the
   callers (trie navigation, the engines' level loops) keep inside the
   column by construction. *)

(* First index in [lo, hi) with col.(i) >= v, galloping from [lo]; [hi]
   if none.  Cost O(log (result - lo)). *)
let gallop_geq (col : Column.t) lo hi v =
  if lo >= hi then hi
  else if Column.unsafe_get col lo >= v then lo
  else begin
    (* invariant: col.(base) < v *)
    let base = ref lo and step = ref 1 in
    while !base + !step < hi && Column.unsafe_get col (!base + !step) < v do
      base := !base + !step;
      step := !step * 2
    done;
    let l = ref (!base + 1) and h = ref (min (!base + !step) hi) in
    while !l < !h do
      let mid = (!l + !h) / 2 in
      if Column.unsafe_get col mid < v then l := mid + 1 else h := mid
    done;
    !l
  end

(* First index in [lo, hi) with col.(i) > v, galloping from [lo]. *)
let gallop_gt (col : Column.t) lo hi v =
  if lo >= hi then hi
  else if Column.unsafe_get col lo > v then lo
  else begin
    let base = ref lo and step = ref 1 in
    while !base + !step < hi && Column.unsafe_get col (!base + !step) <= v do
      base := !base + !step;
      step := !step * 2
    done;
    let l = ref (!base + 1) and h = ref (min (!base + !step) hi) in
    while !l < !h do
      let mid = (!l + !h) / 2 in
      if Column.unsafe_get col mid <= v then l := mid + 1 else h := mid
    done;
    !l
  end

(* --- monomorphic lexicographic sort ---

   Sorts a row permutation so that rows read through it are in
   lexicographic column order.  Per column: pull the range's keys into a
   scratch column (one cache-friendly contiguous pass), three-way
   quicksort (key, perm) together with plain int comparisons, then
   recurse into each equal-key run on the next column. *)

let swap2 (key : Column.t) (perm : Column.t) i j =
  let k = Column.unsafe_get key i in
  Column.unsafe_set key i (Column.unsafe_get key j);
  Column.unsafe_set key j k;
  let p = Column.unsafe_get perm i in
  Column.unsafe_set perm i (Column.unsafe_get perm j);
  Column.unsafe_set perm j p

(* Insertion sort of (key, perm) on [lo, hi). *)
let insertion_sort (key : Column.t) (perm : Column.t) lo hi =
  for i = lo + 1 to hi - 1 do
    let k = Column.unsafe_get key i and p = Column.unsafe_get perm i in
    let j = ref i in
    while !j > lo && Column.unsafe_get key (!j - 1) > k do
      Column.unsafe_set key !j (Column.unsafe_get key (!j - 1));
      Column.unsafe_set perm !j (Column.unsafe_get perm (!j - 1));
      decr j
    done;
    Column.unsafe_set key !j k;
    Column.unsafe_set perm !j p
  done

(* Three-way (Dutch-flag) quicksort of (key, perm) on [lo, hi). *)
let rec sort_pairs (key : Column.t) (perm : Column.t) lo hi =
  if hi - lo <= 16 then insertion_sort key perm lo hi
  else begin
    (* median-of-three pivot *)
    let mid = lo + ((hi - lo) / 2) in
    let a = Column.unsafe_get key lo
    and b = Column.unsafe_get key mid
    and c = Column.unsafe_get key (hi - 1) in
    let pivot =
      if a < b then if b < c then b else if a < c then c else a
      else if a < c then a
      else if b < c then c
      else b
    in
    (* partition into < pivot | = pivot | > pivot *)
    let lt = ref lo and i = ref lo and gt = ref hi in
    while !i < !gt do
      let k = Column.unsafe_get key !i in
      if k < pivot then begin
        swap2 key perm !lt !i;
        incr lt;
        incr i
      end
      else if k > pivot then begin
        decr gt;
        swap2 key perm !i !gt
      end
      else incr i
    done;
    sort_pairs key perm lo !lt;
    sort_pairs key perm !gt hi
  end

(* Sort perm.[lo, hi) lexicographically on cols starting at [depth],
   using [key] as scratch. *)
let rec sort_lex (cols : Column.t array) (key : Column.t) (perm : Column.t)
    depth lo hi =
  if hi - lo > 1 && depth < Array.length cols then begin
    let col = cols.(depth) in
    for i = lo to hi - 1 do
      Column.unsafe_set key i (Column.unsafe_get col (Column.unsafe_get perm i))
    done;
    sort_pairs key perm lo hi;
    (* recurse into equal-key runs on the next column *)
    let i = ref lo in
    while !i < hi do
      let v = Column.unsafe_get key !i in
      let j = ref (!i + 1) in
      while !j < hi && Column.unsafe_get key !j = v do
        incr j
      done;
      if !j - !i > 1 then sort_lex cols key perm (depth + 1) !i !j;
      i := !j
    done
  end

(* Build from a relation: permute columns so attributes appear in the
   order induced by [order] (a global variable order containing all of
   the relation's attributes). *)
let build ~order rel =
  let position = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace position x i) order;
  let cols_spec =
    Array.to_list (Relation.attrs rel)
    |> List.mapi (fun i x ->
           match Hashtbl.find_opt position x with
           | Some p -> (p, i, x)
           | None -> invalid_arg ("Trie.build: attribute not in order: " ^ x))
    |> List.sort (fun (p, _, _) (q, _, _) ->
           if (p : int) < q then -1 else if p > q then 1 else 0)
  in
  let src = Array.of_list (List.map (fun (_, i, _) -> i) cols_spec) in
  let attrs = Array.of_list (List.map (fun (_, _, x) -> x) cols_spec) in
  let width = Array.length attrs in
  let tuples = Relation.tuples rel in
  let n = Array.length tuples in
  (* columnar copy in source row order *)
  let unsorted =
    Array.init width (fun d ->
        let s = src.(d) in
        let c = Column.create n in
        for i = 0 to n - 1 do
          Column.unsafe_set c i tuples.(i).(s)
        done;
        c)
  in
  let perm = Column.create n in
  for i = 0 to n - 1 do
    Column.unsafe_set perm i i
  done;
  let key = Column.create (max n 1) in
  sort_lex unsorted key perm 0 0 n;
  let cols =
    Array.init width (fun d ->
        let u = unsorted.(d) in
        Column.init n (fun i -> Column.unsafe_get u (Column.unsafe_get perm i)))
  in
  { attrs; nrows = n; cols }

(* First index in [lo, hi) whose key at [depth] is >= v. *)
let lower_bound t ~depth ~lo ~hi v = gallop_geq t.cols.(depth) lo hi v

(* First index in [lo, hi) whose key at [depth] is > v. *)
let upper_bound t ~depth ~lo ~hi v = gallop_gt t.cols.(depth) lo hi v

(* Child range for value v at [depth] within [lo, hi), if nonempty. *)
let narrow t ~depth ~lo ~hi v =
  let col = t.cols.(depth) in
  let l = gallop_geq col lo hi v in
  if l >= hi || Column.unsafe_get col l <> v then None
  else Some (l, gallop_gt col l hi v)

(* Iterate the distinct keys at [depth] within [lo, hi); [f v sublo
   subhi] gets each key's child range. *)
let iter_keys t ~depth ~lo ~hi f =
  let col = t.cols.(depth) in
  let pos = ref lo in
  while !pos < hi do
    let v = Column.unsafe_get col !pos in
    let e = gallop_gt col !pos hi v in
    f v !pos e;
    pos := e
  done

let key_at t ~depth pos = Column.get t.cols.(depth) pos

let distinct_key_count t ~depth ~lo ~hi =
  let c = ref 0 in
  iter_keys t ~depth ~lo ~hi (fun _ _ _ -> incr c);
  !c
