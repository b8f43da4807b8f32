(* Versioned mutable catalog over the immutable Database.t.

   Storage: each relation is held once, as its Relation.t - the
   lexicographically sorted, duplicate-free rows that every engine,
   IVM, snapshot and the coordinator read.  A write is one linear
   merge: the batch is sorted and deduplicated (O(d log d)), each of
   its rows is located in the stored rows by binary search, and one new
   row array is built in O(n + d) that shares every untouched row with
   the previous version.  Nothing is mutated in place, so an earlier
   {!database} snapshot keeps answering for its own rows.  Loads
   sort-dedup through Relation.make; stored rows are always in the dump
   form snapshots write and recovery adopts.

   A sharded query keeps nothing here: it hash-splits its bound atoms
   per execution ({!Lb_relalg.Shard.view}), so writes maintain no
   partitions.

   Versions: a global version (+1 per successful mutation, keys batch
   grouping) and a per-relation version (bumped only when that relation
   changes, surviving drop/reload).  The per-relation versions are the
   provenance the server's IVM layer stamps cached answers with. *)

module Db = Lb_relalg.Database
module R = Lb_relalg.Relation

type t = {
  mutable db : Db.t;
  versions : (string, int) Hashtbl.t; (* per-relation; survives drop *)
  mutable version : int;
}

let create () = { db = Db.empty; versions = Hashtbl.create 16; version = 0 }

let version t = t.version

let database t = t.db

let rel_version t name =
  Option.value ~default:0 (Hashtbl.find_opt t.versions name)

let version_vector t names =
  List.sort_uniq String.compare names
  |> List.map (fun n -> (n, rel_version t n))

(* Kept for perfbench's trace only (no server caller): the catalog
   keeps no side layers, so a stored relation has none to report. *)
let delta_stats t name = Option.map (fun _ -> (0, 0, 0)) (Db.find_opt t.db name)

let without t name =
  Db.of_list
    (List.filter_map
       (fun n -> if n = name then None else Some (n, Db.find t.db n))
       (Db.names t.db))

(* Every successful mutation: new snapshot, both versions bumped. *)
let bump t name db =
  t.db <- db;
  t.version <- t.version + 1;
  Hashtbl.replace t.versions name (rel_version t name + 1)

let load t ~name ~attrs tuples =
  match R.make attrs tuples with
  | exception Invalid_argument msg -> Error msg
  | rel ->
      bump t name (Db.add (without t name) name rel);
      Ok (R.cardinality rel)

(* The batch sorted and duplicate-free.  Rows are copied, so the stored
   relation never aliases an array the caller still holds. *)
let sorted_batch tuples =
  let a = Array.of_list (List.map Array.copy tuples) in
  Array.sort R.compare_tuples a;
  let n = ref 0 in
  Array.iteri
    (fun i r ->
      if i = 0 || R.compare_tuples a.(!n - 1) r <> 0 then begin
        a.(!n) <- r;
        incr n
      end)
    a;
  Array.sub a 0 !n

let mem_sorted (rows : int array array) row =
  let lo = ref 0 and hi = ref (Array.length rows) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if R.compare_tuples rows.(mid) row < 0 then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length rows && R.compare_tuples rows.(!lo) row = 0

let filter_rows f rows = Array.of_list (List.filter f (Array.to_list rows))

(* Shared write path: validate widths, then [apply] the sorted batch to
   the stored rows, returning the effective rows (the batch rows that
   actually change state - what cache maintenance needs) and the new
   rows, built by one linear merge that shares every untouched row. *)
let write t ~name tuples ~apply =
  match Db.find_opt t.db name with
  | None -> Error (Printf.sprintf "no relation %S" name)
  | Some rel -> (
      let width = R.width rel in
      match List.find_opt (fun tup -> Array.length tup <> width) tuples with
      | Some tup ->
          Error
            (Printf.sprintf "tuple of width %d does not fit %S (width %d)"
               (Array.length tup) name width)
      | None ->
          let stored = R.tuples rel in
          let effective, rows = apply stored (sorted_batch tuples) in
          let rel =
            if Array.length effective = 0 then rel
            else R.of_sorted_distinct (R.attrs rel) rows
          in
          bump t name (Db.add (without t name) name rel);
          Ok (R.cardinality rel, effective))

let insert t ~name tuples =
  write t ~name tuples ~apply:(fun stored batch ->
      let added = filter_rows (fun r -> not (mem_sorted stored r)) batch in
      (added, Ivm.union_rows stored added))

let delete t ~name tuples =
  write t ~name tuples ~apply:(fun stored batch ->
      let removed = filter_rows (mem_sorted stored) batch in
      (removed, Ivm.diff_rows stored removed))

let drop t ~name =
  match Db.find_opt t.db name with
  | None -> Error (Printf.sprintf "no relation %S" name)
  | Some _ ->
      bump t name (without t name);
      Ok ()

let summary t =
  Db.names t.db
  |> List.map (fun n -> (n, R.cardinality (Db.find t.db n)))
  |> List.sort compare

(* --- snapshot support (durability) --- *)

let dump t =
  Db.names t.db
  |> List.sort String.compare
  |> List.map (fun n ->
         let rel = Db.find t.db n in
         (n, R.attrs rel, R.tuples rel, rel_version t n))

(* Rows exactly as [dump] wrote them: rectangular, lexicographically
   sorted, duplicate-free - the precondition for adopting them with
   [R.of_sorted_distinct].  O(n * width). *)
let dump_shaped attrs (rows : int array array) =
  let w = Array.length attrs in
  let n = Array.length rows in
  let ok = ref true in
  for i = 0 to n - 1 do
    if Array.length rows.(i) <> w then ok := false
    else if i > 0 && R.compare_tuples rows.(i - 1) rows.(i) >= 0 then
      ok := false
  done;
  !ok

(* Restore a snapshot: trusted state (no validation beyond R.make),
   versions set - not bumped - so persisted provenance stamps keep
   matching.  Existing state is discarded.  Rows in dump form are
   adopted as they are; anything else goes through R.make's sort and
   dedup. *)
let restore t ~version rels =
  Hashtbl.reset t.versions;
  t.db <- Db.empty;
  t.version <- version;
  List.iter
    (fun (name, attrs, rows, rv) ->
      let rel =
        if dump_shaped attrs rows then R.of_sorted_distinct attrs rows
        else R.make attrs (Array.to_list rows)
      in
      Hashtbl.replace t.versions name rv;
      t.db <- Db.add t.db name rel)
    rels
