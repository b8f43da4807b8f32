(* Versioned mutable catalog over the immutable Database.t, with a
   delta-trie master copy per relation.

   Storage: each relation is held as a {!Lb_relalg.Delta_trie} - a base
   columnar trie plus sorted delta side tries.  Writes (insert/delete)
   apply an O(d log d) batch to the delta trie and re-materialize the
   Relation.t snapshot by one O(n + d) k-way merge (no re-sort, no
   dedup hash); loads build a fresh base.  Catalog relations therefore
   always hold their tuples lexicographically sorted - the dump form
   snapshots write and recovery adopts.

   A sharded query keeps nothing here: it hash-splits its bound atoms
   per execution ({!Lb_relalg.Shard.view}), so each relation is stored
   twice (rows and delta trie) and writes maintain no partitions.

   Versions: a global version (+1 per successful mutation, keys batch
   grouping) and a per-relation version (bumped only when that relation
   changes, surviving drop/reload).  The per-relation versions are the
   provenance the server's IVM layer stamps cached answers with. *)

module Db = Lb_relalg.Database
module R = Lb_relalg.Relation
module Delta_trie = Lb_relalg.Delta_trie

type t = {
  mutable db : Db.t;
  store : (string, Delta_trie.t) Hashtbl.t; (* master copies *)
  versions : (string, int) Hashtbl.t; (* per-relation; survives drop *)
  mutable version : int;
  arena : Lb_util.Arena.t;
      (* sort scratch for trie builds; mutations run single-threaded
         under the server's write mutex, so one arena is safe *)
}

let create () =
  {
    db = Db.empty;
    store = Hashtbl.create 16;
    versions = Hashtbl.create 16;
    version = 0;
    arena = Lb_util.Arena.create ();
  }

let version t = t.version

let database t = t.db

let rel_version t name =
  Option.value ~default:0 (Hashtbl.find_opt t.versions name)

let version_vector t names =
  List.sort_uniq String.compare names
  |> List.map (fun n -> (n, rel_version t n))

let delta_stats t name =
  Option.map
    (fun dt ->
      ( Delta_trie.side_count dt,
        Delta_trie.delta_rows dt,
        Delta_trie.compactions dt ))
    (Hashtbl.find_opt t.store name)

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
      Hashtbl.replace t.store name
        (Delta_trie.of_relation ~scratch:t.arena rel);
      bump t name (Db.add (without t name) name rel);
      Ok (R.cardinality rel)

(* Shared write path: apply the batch to the delta trie, re-materialize
   the snapshot by one merge.  Returns the
   effective rows (what actually changed state) for cache
   maintenance. *)
let write t ~name ~inserts ~deletes =
  match Hashtbl.find_opt t.store name with
  | None -> Error (Printf.sprintf "no relation %S" name)
  | Some dt -> (
      match Delta_trie.apply dt ~inserts ~deletes with
      | exception Invalid_argument _ ->
          let width = Delta_trie.width dt in
          let ragged =
            List.find_opt
              (fun tup -> Array.length tup <> width)
              (inserts @ deletes)
          in
          Error
            (match ragged with
            | Some tup ->
                Printf.sprintf
                  "tuple of width %d does not fit %S (width %d)"
                  (Array.length tup) name width
            | None -> Printf.sprintf "invalid tuples for %S" name)
      | { Delta_trie.dt = dt'; added; removed } ->
          let rel = Delta_trie.to_relation dt' in
          Hashtbl.replace t.store name dt';
          bump t name (Db.add (without t name) name rel);
          Ok (R.cardinality rel, added, removed))

let insert t ~name tuples =
  Result.map
    (fun (n, added, _) -> (n, added))
    (write t ~name ~inserts:tuples ~deletes:[])

let delete t ~name tuples =
  Result.map
    (fun (n, _, removed) -> (n, removed))
    (write t ~name ~inserts:[] ~deletes:tuples)

let drop t ~name =
  match Db.find_opt t.db name with
  | None -> Error (Printf.sprintf "no relation %S" name)
  | Some _ ->
      Hashtbl.remove t.store name;
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
   sorted, duplicate-free - the precondition for adopting a prebuilt
   trie and for [R.of_sorted_distinct].  O(n * width). *)
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
   matching.  Existing state is discarded.

   [tries] is the mapped-snapshot fast path: when it supplies a
   prebuilt trie whose shape matches the relation (and the snapshot
   rows are in dump form), the trie is adopted as the delta-trie base
   with no sort and no columnarization - its levels stay wherever the
   supplier put them, e.g. in an mmap'd image.  Any mismatch falls
   back to the ordinary build.  Returns how many relations took the
   fast path. *)
let restore ?tries t ~version rels =
  Hashtbl.reset t.store;
  Hashtbl.reset t.versions;
  t.db <- Db.empty;
  t.version <- version;
  let mapped = ref 0 in
  List.iter
    (fun (name, attrs, rows, rv) ->
      let prebuilt =
        match tries with
        | None -> None
        | Some hook -> (
            match hook name with
            | Some trie
              when Lb_relalg.Trie.attrs trie = attrs
                   && Lb_relalg.Trie.row_count trie = Array.length rows
                   && dump_shaped attrs rows ->
                Some trie
            | _ -> None)
      in
      let rel, dt =
        match prebuilt with
        | Some trie ->
            incr mapped;
            (R.of_sorted_distinct attrs rows, Delta_trie.of_trie trie)
        | None ->
            let rel = R.make attrs (Array.to_list rows) in
            (rel, Delta_trie.of_relation ~scratch:t.arena rel)
      in
      Hashtbl.replace t.store name dt;
      Hashtbl.replace t.versions name rv;
      t.db <- Db.add t.db name rel)
    rels;
  !mapped
