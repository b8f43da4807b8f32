(* Incremental view maintenance for cached join-query answers.

   The contract is byte-identity: a maintained answer must equal the
   full recompute's canonical answer exactly, so the result cache stays
   indistinguishable (to clients and tests) from a cache that is
   flushed and refilled on every write.

   Inserts use the classic delta rule, correct under self-joins by
   per-occurrence substitution.  For q = R_1 ⋈ ... ⋈ R_n with the
   changed relation appearing at occurrences j_1 < ... < j_m:

     Δq = ⋃_j q[occ_i -> new for i<j, occ_j -> Δ, occ_i -> old for i>j]

   Each union term is itself a join query over the same engines, run
   through the caller's [runner]; the terms' canonical rows are merged
   into the cached rows.  Since answers are set-semantics (relations
   are duplicate-free), over-counting is not a concern - the union is
   the maintenance.

   Deletes are harder under projection: a deleted derivation does not
   retract an output row that another derivation still supports.  We
   compute the {e candidate} rows C (output rows with at least one
   derivation through a deleted tuple - the same delta rule evaluated
   on the old state), then re-derive the survivors with one query: q
   extended by a candidate atom holding C over all output attributes.
   The extra atom restricts the search to the candidates, so the
   re-check costs |C| probes' worth of join work, not a recompute; and
   because the candidate atom covers every output attribute it is a
   full-cover edge, which keeps an acyclic query acyclic (the cover is
   a root every original atom hangs off as an ear).  The new answer is
   (A \ C) ∪ K where K are the survivors. *)

module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database

(* Canonical answer: the query's attribute order, rows sorted
   lexicographically - every engine and every maintenance path yields
   byte-identical rows.  [R.project] already returns distinct rows in
   [R.compare_tuples] order, so no copy or sort follows. *)
type answer = { attributes : string array; rows : int array array }

type runner = Db.t -> Q.t -> R.t

let canonical (q : Q.t) (rel : R.t) =
  let attributes = Q.attributes q in
  { attributes; rows = R.tuples (R.project rel attributes) }

(* Reserved relation names for the rewritten maintenance queries; the
   NUL prefix keeps them out of any client-loadable namespace. *)
let old_name = "\x00ivm.old"

let delta_name = "\x00ivm.delta"

let cand_name = "\x00ivm.cand"

(* --- sorted distinct row-set algebra --- *)

let cmp = R.compare_tuples

let union_rows (a : int array array) (b : int array array) =
  let na = Array.length a and nb = Array.length b in
  if nb = 0 then a
  else if na = 0 then b
  else begin
    let out = Array.make (na + nb) [||] in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < na || !j < nb do
      let c =
        if !i >= na then 1 else if !j >= nb then -1 else cmp a.(!i) b.(!j)
      in
      if c < 0 then begin
        out.(!w) <- a.(!i);
        incr i
      end
      else if c > 0 then begin
        out.(!w) <- b.(!j);
        incr j
      end
      else begin
        out.(!w) <- a.(!i);
        incr i;
        incr j
      end;
      incr w
    done;
    if !w = na + nb then out else Array.sub out 0 !w
  end

let diff_rows (a : int array array) (b : int array array) =
  let na = Array.length a and nb = Array.length b in
  if nb = 0 then a
  else begin
    let out = Array.make na [||] in
    let j = ref 0 and w = ref 0 in
    for i = 0 to na - 1 do
      while !j < nb && cmp b.(!j) a.(i) < 0 do
        incr j
      done;
      if not (!j < nb && cmp b.(!j) a.(i) = 0) then begin
        out.(!w) <- a.(i);
        incr w
      end
    done;
    if !w = na then out else Array.sub out 0 !w
  end

(* The delta-rule union terms: for each occurrence j of [name] in [q],
   the query with occurrence j renamed to [delta_name], occurrences
   before it to [before], after it to [after]. *)
let delta_terms (q : Q.t) ~name ~before ~after =
  let occs =
    List.filteri (fun _ (a : Q.atom) -> a.Q.rel = name) q |> List.length
  in
  List.init occs (fun j ->
      let seen = ref 0 in
      List.map
        (fun (a : Q.atom) ->
          if a.Q.rel <> name then a
          else begin
            let i = !seen in
            incr seen;
            let rel =
              if i < j then before else if i = j then delta_name else after
            in
            { a with Q.rel }
          end)
        q)

(* Evaluate the union of the delta terms' canonical rows. *)
let delta_rows ~(runner : runner) db (q : Q.t) ~name ~before ~after =
  List.fold_left
    (fun acc term -> union_rows acc (canonical q (runner db term)).rows)
    [||]
    (delta_terms q ~name ~before ~after)

(* Maintenance for an insert of [delta] (the effective added rows) into
   [name].  [db_old]/[db_new] are the catalog snapshots around the
   write. *)
let insert_maintain ~runner ~db_old ~db_new ~name ~(delta : R.t) (q : Q.t)
    (ans : answer) =
  let db =
    Db.add (Db.add db_new old_name (Db.find db_old name)) delta_name delta
  in
  (* new-before / Δ / old-after; the unchanged relations are shared by
     both snapshots, so evaluating every term on [db] is exact. *)
  let rows =
    delta_rows ~runner db q ~name ~before:name ~after:old_name
  in
  { ans with rows = union_rows ans.rows rows }

(* Maintenance for a delete of [delta] (the effective removed rows)
   from [name]. *)
let delete_maintain ~runner ~db_old ~db_new ~name ~(delta : R.t) (q : Q.t)
    (ans : answer) =
  if Array.length ans.attributes = 0 then
    (* No output attributes to key candidates by: recompute (cheap -
       such queries are boolean-shaped). *)
    canonical q (runner db_new q)
  else begin
    (* Candidates: output rows with a derivation through a deleted
       tuple, via the delta rule entirely on the old state. *)
    let db_c = Db.add db_old delta_name delta in
    let cand =
      delta_rows ~runner db_c q ~name ~before:name ~after:name
    in
    if Array.length cand = 0 then ans
    else begin
      (* Survivors: candidates still derivable from the new state - the
         original query constrained by a full-cover candidate atom. *)
      let cand_rel = R.of_sorted_distinct ans.attributes (Array.copy cand) in
      let db_k = Db.add db_new cand_name cand_rel in
      let q' = q @ [ Q.atom cand_name ans.attributes ] in
      let kept = (canonical q (runner db_k q')).rows in
      { ans with rows = union_rows (diff_rows ans.rows cand) kept }
    end
  end
