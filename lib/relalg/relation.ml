(* Named relations: a schema of attribute names and a set of int tuples.

   This is the "table" of Section 2.1.  Values are plain ints (a database
   with any other value type can be dictionary-encoded into this form
   without changing any of the complexity behaviour the library
   studies). *)

type t = {
  attrs : string array; (* column names; distinct *)
  tuples : int array array; (* rows; width = |attrs|; duplicate-free *)
}

let check_attrs attrs =
  let l = Array.to_list attrs in
  if List.length (List.sort_uniq String.compare l) <> List.length l then
    invalid_arg "Relation: duplicate attribute names"

(* Monomorphic lexicographic comparison of int tuples: the dedup paths
   ([make], [project], [equal]) are warm enough that polymorphic
   [compare] shows up in profiles. *)
let compare_tuples (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then if la < lb then -1 else 1
  else begin
    let i = ref 0 and r = ref 0 in
    while !r = 0 && !i < la do
      let x = a.(!i) and y = b.(!i) in
      if x < y then r := -1 else if x > y then r := 1;
      incr i
    done;
    !r
  end

let equal_tuples (a : int array) (b : int array) = compare_tuples a b = 0

module Tuple_set = Set.Make (struct
  type t = int array

  let compare = compare_tuples
end)

(* Trusted constructor from known-duplicate-free rows, kept in the
   order given (the catalog's write merge hands them lexicographically
   sorted).  Ownership of [rows] transfers to the relation. *)
let of_sorted_distinct attrs rows =
  check_attrs attrs;
  let width = Array.length attrs in
  Array.iter
    (fun t ->
      if Array.length t <> width then
        invalid_arg "Relation.of_sorted_distinct: tuple width")
    rows;
  { attrs = Array.copy attrs; tuples = rows }

let make attrs tuple_list =
  check_attrs attrs;
  let width = Array.length attrs in
  List.iter
    (fun t ->
      if Array.length t <> width then invalid_arg "Relation.make: tuple width")
    tuple_list;
  let set = Tuple_set.of_list (List.map Array.copy tuple_list) in
  { attrs = Array.copy attrs; tuples = Array.of_list (Tuple_set.elements set) }

let attrs t = t.attrs

let tuples t = t.tuples

let cardinality t = Array.length t.tuples

let width t = Array.length t.attrs

let mem t tuple = Array.exists (fun u -> equal_tuples u tuple) t.tuples

let attr_index t name =
  let rec go i =
    if i >= Array.length t.attrs then None
    else if t.attrs.(i) = name then Some i
    else go (i + 1)
  in
  go 0

let has_attr t name = attr_index t name <> None

(* Active domain: all values appearing anywhere. *)
let active_domain t =
  let s = Hashtbl.create 64 in
  Array.iter (Array.iter (fun v -> Hashtbl.replace s v ())) t.tuples;
  Hashtbl.fold (fun v () acc -> v :: acc) s []
  |> List.sort (fun (a : int) b -> if a < b then -1 else if a > b then 1 else 0)

let rename t mapping =
  let attrs' =
    Array.map
      (fun a -> match List.assoc_opt a mapping with Some b -> b | None -> a)
      t.attrs
  in
  check_attrs attrs';
  { t with attrs = attrs' }

let project t names =
  let idx =
    Array.map
      (fun name ->
        match attr_index t name with
        | Some i -> i
        | None -> invalid_arg ("Relation.project: no attribute " ^ name))
      names
  in
  let set =
    Array.fold_left
      (fun acc tup -> Tuple_set.add (Array.map (fun i -> tup.(i)) idx) acc)
      Tuple_set.empty t.tuples
  in
  { attrs = Array.copy names; tuples = Array.of_list (Tuple_set.elements set) }

let select_eq t name value =
  match attr_index t name with
  | None -> invalid_arg ("Relation.select_eq: no attribute " ^ name)
  | Some i ->
      { t with tuples = Array.of_list (List.filter (fun tup -> tup.(i) = value) (Array.to_list t.tuples)) }

(* Key of a tuple on given column indices, for hashing. *)
let key_of idx tup = Array.map (fun i -> tup.(i)) idx

let common_attrs a b =
  Array.to_list a.attrs |> List.filter (fun n -> has_attr b n)

(* Hash-based natural join. *)
let natural_join a b =
  let common = common_attrs a b in
  let aidx = Array.of_list (List.map (fun n -> Option.get (attr_index a n)) common) in
  let bidx = Array.of_list (List.map (fun n -> Option.get (attr_index b n)) common) in
  (* output schema: a's attrs then b's non-common attrs *)
  let b_extra =
    Array.to_list b.attrs
    |> List.mapi (fun i n -> (i, n))
    |> List.filter (fun (_, n) -> not (has_attr a n))
  in
  let out_attrs =
    Array.append a.attrs (Array.of_list (List.map snd b_extra))
  in
  let b_extra_idx = Array.of_list (List.map fst b_extra) in
  (* hash the smaller side on common attrs *)
  let build, probe, build_idx, probe_idx, build_is_a =
    if cardinality a <= cardinality b then (a, b, aidx, bidx, true)
    else (b, a, bidx, aidx, false)
  in
  let table = Hashtbl.create (2 * cardinality build) in
  Array.iter
    (fun tup ->
      let k = key_of build_idx tup in
      Hashtbl.add table k tup)
    build.tuples;
  (* No dedup needed: both inputs are duplicate-free and an output row
     determines its pair of input rows (the b-side row is its key plus
     its extra columns). *)
  let out = ref [] in
  Array.iter
    (fun ptup ->
      let k = key_of probe_idx ptup in
      List.iter
        (fun btup ->
          let atup, btup' = if build_is_a then (btup, ptup) else (ptup, btup) in
          let row =
            Array.append atup (Array.map (fun i -> btup'.(i)) b_extra_idx)
          in
          out := row :: !out)
        (Hashtbl.find_all table k))
    probe.tuples;
  { attrs = out_attrs; tuples = Array.of_list !out }

(* Semijoin: tuples of [a] that join with some tuple of [b]. *)
let semijoin a b =
  let common = common_attrs a b in
  if common = [] then if cardinality b = 0 then { a with tuples = [||] } else a
  else begin
    let aidx = Array.of_list (List.map (fun n -> Option.get (attr_index a n)) common) in
    let bidx = Array.of_list (List.map (fun n -> Option.get (attr_index b n)) common) in
    let keys = Hashtbl.create (2 * cardinality b) in
    Array.iter (fun tup -> Hashtbl.replace keys (key_of bidx tup) ()) b.tuples;
    {
      a with
      tuples =
        Array.of_list
          (List.filter
             (fun tup -> Hashtbl.mem keys (key_of aidx tup))
             (Array.to_list a.tuples));
    }
  end

let equal_attrs a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri (fun i x -> if not (String.equal x b.(i)) then ok := false) a;
       !ok
     end

let equal a b =
  equal_attrs a.attrs b.attrs
  && cardinality a = cardinality b
  && Tuple_set.equal
       (Tuple_set.of_list (Array.to_list a.tuples))
       (Tuple_set.of_list (Array.to_list b.tuples))

(* Same content modulo column order. *)
let equal_modulo_order a b =
  let sorted r = List.sort String.compare (Array.to_list r.attrs) in
  Array.length a.attrs = Array.length b.attrs
  && List.equal String.equal (sorted a) (sorted b)
  && equal
       (project a (Array.of_list (sorted a)))
       (project b (Array.of_list (sorted b)))

let cross_product a b =
  Array.iter
    (fun n -> if has_attr b n then invalid_arg "Relation.cross_product: shared attribute")
    a.attrs;
  natural_join a b

let pp fmt t =
  Format.fprintf fmt "%s(%d tuples)"
    (String.concat "," (Array.to_list t.attrs))
    (cardinality t)
