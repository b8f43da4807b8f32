(* Hash partitioning for the sharded execution tier.  See shard.mli.

   The hash is a fixed 63-bit multiply-xor mix: it must be identical in
   every process that ever touches a shard index (engine drivers,
   distributed workers, the property tests), and it must not
   depend on anything runtime-varying, or sharded runs stop being
   replayable. *)

let shard_of ~k v =
  if k <= 1 then 0
  else begin
    let h = (v + 0x2545F4914F6CDD1) * 0x9E3779B97F4A7C1 in
    let h = h lxor (h lsr 29) in
    let h = h * 0x2545F4914F6CDD1 in
    let h = h lxor (h lsr 32) in
    (h land max_int) mod k
  end

(* One reverse scan: every bucket keeps its rows in [rel]'s order, so a
   sorted duplicate-free relation splits into sorted duplicate-free
   buckets without a re-sort. *)
let partition ~k ~attr rel =
  if k < 1 then invalid_arg "Shard.partition: k < 1";
  let col =
    match Relation.attr_index rel attr with
    | Some col -> col
    | None -> invalid_arg ("Shard.partition: no attribute " ^ attr)
  in
  let rows = Relation.tuples rel in
  let buckets = Array.make k [] in
  for i = Array.length rows - 1 downto 0 do
    let s = shard_of ~k rows.(i).(col) in
    buckets.(s) <- rows.(i) :: buckets.(s)
  done;
  Array.map
    (fun b -> Relation.of_sorted_distinct (Relation.attrs rel) (Array.of_list b))
    buckets

(* k-way merge of the shards' sorted duplicate-free tuple arrays.  The
   shards of one partition are key-disjoint, so no dedup is needed here;
   Relation.make still validates and canonicalizes. *)
let merge_sorted shards =
  if Array.length shards = 0 then invalid_arg "Shard.merge_sorted: no shards";
  let attrs = Relation.attrs shards.(0) in
  Array.iter
    (fun r ->
      let a = Relation.attrs r in
      if Array.length a <> Array.length attrs
         || not (Array.for_all2 String.equal a attrs)
      then invalid_arg "Shard.merge_sorted: schema mismatch")
    shards;
  let arrs = Array.map Relation.tuples shards in
  let pos = Array.map (fun _ -> 0) arrs in
  let out = ref [] in
  let rec next () =
    let best = ref (-1) in
    Array.iteri
      (fun i p ->
        if p < Array.length arrs.(i) then
          match !best with
          | -1 -> best := i
          | b ->
              if Relation.compare_tuples arrs.(i).(p) arrs.(b).(pos.(b)) < 0
              then best := i)
      pos;
    match !best with
    | -1 -> ()
    | b ->
        out := arrs.(b).(pos.(b)) :: !out;
        pos.(b) <- pos.(b) + 1;
        next ()
  in
  next ();
  Relation.make attrs (List.rev !out)

(* --- query views --- *)

type part = Whole of Relation.t | Parts of Relation.t array

type view = { attr : string; k : int; parts : part array }

let view ~attr ~k db (q : Query.t) =
  if k < 1 then invalid_arg "Shard.view: k < 1";
  let found = ref false in
  let parts =
    Array.map
      (fun (a : Query.atom) ->
        let bound = Query.bind_atom db a in
        if Relation.has_attr bound attr then begin
          found := true;
          Parts (partition ~k ~attr bound)
        end
        else Whole bound)
      (Array.of_list q)
  in
  if not !found then
    invalid_arg ("Shard.view: attribute " ^ attr ^ " appears in no atom");
  { attr; k; parts }

(* --- merged depth-0 key streams --- *)

module Stream = struct
  module Column = Lb_util.Column

  type t = {
    cols : Column.t array;
    his : int array;
    pos : int array;
    mutable live : int;
    mutable cur : int;
  }

  let refresh s =
    let live = ref 0 and cur = ref 0 and first = ref true in
    Array.iteri
      (fun i p ->
        if p < s.his.(i) then begin
          incr live;
          let v = Column.unsafe_get s.cols.(i) p in
          if !first || v < !cur then begin
            cur := v;
            first := false
          end
        end)
      s.pos;
    s.live <- !live;
    if not !first then s.cur <- !cur

  let make cols =
    let s =
      {
        cols;
        his = Array.map Column.length cols;
        pos = Array.map (fun _ -> 0) cols;
        live = 0;
        cur = 0;
      }
    in
    refresh s;
    s

  let exhausted s = s.live = 0

  let cur s = s.cur

  let total s = Array.fold_left ( + ) 0 s.his

  let seek_geq s v =
    Array.iteri
      (fun i p ->
        if p < s.his.(i) && Column.unsafe_get s.cols.(i) p < v then
          s.pos.(i) <- Trie.gallop_geq s.cols.(i) p s.his.(i) v)
      s.pos;
    refresh s

  let advance_gt s v =
    Array.iteri
      (fun i p ->
        if p < s.his.(i) && Column.unsafe_get s.cols.(i) p <= v then
          s.pos.(i) <- Trie.gallop_gt s.cols.(i) p s.his.(i) v)
      s.pos;
    refresh s
end
