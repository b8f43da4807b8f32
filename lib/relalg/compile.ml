(* The plan compilation tier: lower a WCOJ plan to a monomorphic loop
   nest over flat int arrays.  This is the one production WCOJ driver:
   sequential, Domain-parallel, sharded, and the distributed slices a
   worker runs all go through it.  Generic Join and Leapfrog differ only
   in how one level is intersected (the min-leader probe vs the
   agreement loop below); everything around that is shared.

   The interpreted engines (Generic_join, Leapfrog) are the sequential
   reference: they recompute their participant structure on every call,
   thread options through the hot path, and pay a bounds check on every
   column access.  This module splits the work into the two halves the
   LogicBlox lineage (Veldhuizen) compiles between:

   - [lower] runs once per plan and produces a schema-level IR: for
     each variable of the global order, the flat list of (atom, trie
     depth) bindings that participate at that level.  The IR depends
     only on the query and the order - never on the data - so it lives
     in the server's plan LRU and amortizes across the batch window.
   - [make_mach] runs once per execution and resolves the IR against
     freshly built tries: every (atom, depth) binding becomes a direct
     pointer to one sorted int column.  The interpreters then run a
     monomorphic loop nest with [Array.unsafe_get] on the hot path -
     no closures, no option matches per column access, no Trie module
     indirection.

   Contract: answers and work counters (intersections / seeks /
   emitted) equal the sequential interpreted engines' on every driver -
   sequential, Domain-parallel, sharded, and summed over a cover of
   distributed slices - and the sequential driver also matches their
   budget-tick placement, so the partial counters left behind when a
   budget fires mid-query agree too.  The differential suite in
   test/test_compile.ml holds this line; any divergence is a bug in
   this file.

   Depth resolution without tries: an atom's trie levels are its
   distinct attributes (first-appearance order, as Query.bind_atom
   projects) sorted by global-order position (as Trie.build sorts), so
   the depth of a variable in an atom is its rank among that atom's
   distinct attributes ordered by position - computable from the
   schema alone.  [make_mach] asserts the resolution against the real
   tries it builds. *)

module Pool = Lb_util.Pool
module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics
module Exec = Lb_util.Exec
module Column = Lb_util.Column

type engine = Generic | Leapfrog

let engine_name = function Generic -> "generic_join" | Leapfrog -> "leapfrog"

(* [work] counts the engine's unit of intersection effort: enumerated
   leader keys for Generic, seeks for Leapfrog - the same quantities
   the interpreted counters track. *)
type counters = { mutable work : int; mutable emitted : int }

let fresh_counters () = { work = 0; emitted = 0 }

(* --- the IR --- *)

type ir = {
  engine : engine;
  order : string array;
  nvars : int;
  natoms : int;
  rels : string array; (* atom relation symbols, parallel to atom ids *)
  lv_off : int array; (* nvars+1: level l owns slots [lv_off.(l), lv_off.(l+1)) *)
  lv_atom : int array; (* slot -> participating atom id (ascending per level) *)
  lv_depth : int array; (* slot -> that atom's trie depth for the level *)
}

let weight ir =
  Array.length ir.lv_off + (2 * Array.length ir.lv_atom) + ir.nvars + ir.natoms

let lower ~engine ?order (q : Query.t) =
  let order = match order with Some o -> o | None -> Query.attributes q in
  let atoms = Array.of_list q in
  let natoms = Array.length atoms in
  let nvars = Array.length order in
  let position = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace position x i) order;
  (* per atom: distinct attrs sorted by order position = its trie levels *)
  let trie_attrs =
    Array.map
      (fun (a : Query.atom) ->
        let seen = Hashtbl.create 8 in
        let distinct = ref [] in
        Array.iter
          (fun x ->
            if not (Hashtbl.mem seen x) then begin
              Hashtbl.replace seen x ();
              distinct := x :: !distinct
            end)
          a.Query.attrs;
        let arr = Array.of_list (List.rev !distinct) in
        let pos x =
          match Hashtbl.find_opt position x with
          | Some p -> p
          | None ->
              invalid_arg ("Compile.lower: attribute not in order: " ^ x)
        in
        Array.sort (fun x y -> compare (pos x) (pos y)) arr;
        arr)
      atoms
  in
  let lv_off = Array.make (nvars + 1) 0 in
  let slots = ref [] and nslots = ref 0 in
  for l = 0 to nvars - 1 do
    lv_off.(l) <- !nslots;
    let var = order.(l) in
    for i = 0 to natoms - 1 do
      let ats = trie_attrs.(i) in
      for d = 0 to Array.length ats - 1 do
        if ats.(d) = var then begin
          slots := (i, d) :: !slots;
          incr nslots
        end
      done
    done;
    if !nslots = lv_off.(l) then
      invalid_arg "Compile.lower: variable missing from all atoms"
  done;
  lv_off.(nvars) <- !nslots;
  let slots = Array.of_list (List.rev !slots) in
  {
    engine;
    order;
    nvars;
    natoms;
    rels = Array.map (fun (a : Query.atom) -> a.Query.rel) atoms;
    lv_off;
    lv_atom = Array.map fst slots;
    lv_depth = Array.map snd slots;
  }

let describe ir =
  let lines = ref [] in
  for l = ir.nvars - 1 downto 0 do
    let slots =
      List.init
        (ir.lv_off.(l + 1) - ir.lv_off.(l))
        (fun j ->
          let s = ir.lv_off.(l) + j in
          Printf.sprintf "%s#%d@%d"
            ir.rels.(ir.lv_atom.(s))
            ir.lv_atom.(s) ir.lv_depth.(s))
    in
    lines :=
      Printf.sprintf "level %d %s: %s" l ir.order.(l)
        (String.concat " " slots)
      :: !lines
  done;
  Printf.sprintf "compiled %s loop nest: %d vars, %d atoms, %d bindings"
    (engine_name ir.engine) ir.nvars ir.natoms
    (Array.length ir.lv_atom)
  :: !lines

(* --- metric names (shared with the interpreted engines, so served
   counters are indistinguishable) --- *)

let trie_builds_name = function
  | Generic -> "generic_join.trie_builds"
  | Leapfrog -> "leapfrog.trie_builds"

let work_name = function
  | Generic -> "generic_join.intersections"
  | Leapfrog -> "leapfrog.seeks"

let emitted_name = function
  | Generic -> "generic_join.emitted"
  | Leapfrog -> "leapfrog.emitted"

let with_metrics engine metrics c f =
  let w0 = c.work and e0 = c.emitted in
  Fun.protect
    ~finally:(fun () ->
      Metrics.add metrics (work_name engine) (c.work - w0);
      Metrics.add metrics (emitted_name engine) (c.emitted - e0))
    f

(* --- unsafe galloping search (same algorithm as Trie.gallop_*, with
   the bounds checks compiled away; callers guarantee [lo, hi) is a
   valid range of [col]) --- *)

let ugallop_geq (col : Column.t) lo hi v =
  if lo >= hi then hi
  else if Column.unsafe_get col lo >= v then lo
  else begin
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

let ugallop_gt (col : Column.t) lo hi v =
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

(* --- the machine: an IR resolved against concrete tries --- *)

type mach = {
  eng : engine;
  nvars : int;
  natoms : int;
  tries : Trie.t array;
  off : int array; (* = ir.lv_off *)
  atom : int array; (* = ir.lv_atom *)
  cols : Column.t array; (* slot -> the resolved sorted column *)
  bud : Budget.t option;
}

let mach_of_tries budget ir tries =
  let n = Array.length ir.lv_atom in
  let cols = Array.make n Column.empty in
  for l = 0 to ir.nvars - 1 do
    for s = ir.lv_off.(l) to ir.lv_off.(l + 1) - 1 do
      let t = tries.(ir.lv_atom.(s)) in
      (* schema-level depth resolution must agree with the trie the
         data actually built *)
      assert ((Trie.attrs t).(ir.lv_depth.(s)) = ir.order.(l));
      cols.(s) <- Trie.column t ir.lv_depth.(s)
    done
  done;
  {
    eng = ir.engine;
    nvars = ir.nvars;
    natoms = ir.natoms;
    tries;
    off = ir.lv_off;
    atom = ir.lv_atom;
    cols;
    bud = budget;
  }

(* One logical trie build per execution (the unit the server's batch
   scheduler asserts sharing on); the per-atom builds run on the pool. *)
let make_mach (ex : Exec.t) ir db (q : Query.t) =
  Metrics.incr ex.Exec.metrics (trie_builds_name ir.engine);
  let atoms = Array.of_list q in
  let natoms = Array.length atoms in
  let build i = Trie.build ~order:ir.order (Query.bind_atom db atoms.(i)) in
  let tries =
    match ex.Exec.pool with
    | Some p when Pool.size p > 1 && natoms > 1 ->
        let out = Array.make natoms None in
        Pool.run p ~chunks:natoms (fun i -> out.(i) <- Some (build i));
        Array.map Option.get out
    | _ -> Array.init natoms build
  in
  mach_of_tries ex.Exec.budget ir tries

let has_empty_atom m =
  let e = ref false in
  Array.iter (fun t -> if Trie.row_count t = 0 then e := true) m.tries;
  !e

(* --- per-domain workspace --- *)

type ws = {
  stack : int array array;
  cursors : int array array;
  assignment : int array;
}

let make_ws m =
  {
    stack =
      Array.init (m.nvars + 1) (fun _ -> Array.make (max 1 (2 * m.natoms)) 0);
    cursors = Array.init (max 1 m.nvars) (fun _ -> Array.make (max 1 m.natoms) 0);
    assignment = Array.make (max 1 m.nvars) 0;
  }

let init_root m ws =
  let st = ws.stack.(0) in
  for i = 0 to m.natoms - 1 do
    st.(2 * i) <- 0;
    st.(2 * i + 1) <- Trie.row_count m.tries.(i)
  done

(* --- the Generic Join loop nest ---

   Mirrors Generic_join.enumerate step for step (leader = smallest
   range, first wins; one [c.work] increment and budget tick per
   enumerated leader key; forward-only probe cursors; early abort on an
   exhausted stream), with every column access unsafe and the level
   tables read from the flat slot arrays. *)

let rec enum_gj m ws c ~level ~stop emit =
  if level >= stop then emit ()
  else begin
    let base = Array.unsafe_get m.off level in
    let np = Array.unsafe_get m.off (level + 1) - base in
    let st = Array.unsafe_get ws.stack level
    and st' = Array.unsafe_get ws.stack (level + 1) in
    (* The two shapes that dominate real plans collapse to straight-line
       code; every variant replays the generic scan exactly (leader =
       smallest range with ties to the lowest slot, one work unit and
       budget tick per enumerated leader key), so counters cannot tell
       them apart.  At the last level the next range table is never
       read, so the leaf variants skip the range copy, the st' writes,
       and the upper-bound gallops that exist only to fill them - none
       of which are counted units of work.  Only when [stop] is the
       machine's last level, though: prefix runs (task generation for
       the parallel drivers) read [stack.(stop)] after the emit. *)
    if level = stop - 1 && stop = m.nvars && np <= 2 then begin
      if np = 1 then leaf_gj1 m ws c ~level base st emit
      else leaf_gj2 m ws c ~level base st emit
    end
    else begin
      (* inline copy: 2*natoms ints is too small for a blit's C call *)
      for i = 0 to (2 * m.natoms) - 1 do
        Array.unsafe_set st' i (Array.unsafe_get st i)
      done;
      if np = 1 then enum_gj1 m ws c ~level ~stop base st st' emit
      else if np = 2 then enum_gj2 m ws c ~level ~stop base st st' emit
      else enum_gjn m ws c ~level ~stop base np st st' emit
    end
  end

and leaf_gj1 m ws c ~level base st emit =
  let a = Array.unsafe_get m.atom base in
  let col = Array.unsafe_get m.cols base in
  let hi = Array.unsafe_get st ((2 * a) + 1) in
  let pos = ref (Array.unsafe_get st (2 * a)) in
  while !pos < hi do
    let v = Column.unsafe_get col !pos in
    let e = ugallop_gt col !pos hi v in
    c.work <- c.work + 1;
    (match m.bud with Some b -> Budget.tick b | None -> ());
    Array.unsafe_set ws.assignment level v;
    emit ();
    pos := e
  done

and leaf_gj2 m ws c ~level base st emit =
  let a0 = Array.unsafe_get m.atom base in
  let a1 = Array.unsafe_get m.atom (base + 1) in
  let s0 = Array.unsafe_get st ((2 * a0) + 1) - Array.unsafe_get st (2 * a0) in
  let s1 = Array.unsafe_get st ((2 * a1) + 1) - Array.unsafe_get st (2 * a1) in
  let la, oa, lcol, ocol =
    if s1 < s0 then
      (a1, a0, Array.unsafe_get m.cols (base + 1), Array.unsafe_get m.cols base)
    else
      (a0, a1, Array.unsafe_get m.cols base, Array.unsafe_get m.cols (base + 1))
  in
  let lhi = Array.unsafe_get st ((2 * la) + 1) in
  let ohi = Array.unsafe_get st ((2 * oa) + 1) in
  let ocur = ref (Array.unsafe_get st (2 * oa)) in
  let pos = ref (Array.unsafe_get st (2 * la)) in
  let dead = ref false in
  while (not !dead) && !pos < lhi do
    let v = Column.unsafe_get lcol !pos in
    let e = ugallop_gt lcol !pos lhi v in
    c.work <- c.work + 1;
    (match m.bud with Some b -> Budget.tick b | None -> ());
    let p = ugallop_geq ocol !ocur ohi v in
    ocur := p;
    if p >= ohi then dead := true
    else if Column.unsafe_get ocol p = v then begin
      Array.unsafe_set ws.assignment level v;
      emit ()
    end;
    pos := e
  done

(* single participant: every key in range is a candidate and always
   survives (the generic probe loop has no other stream to consult) *)
and enum_gj1 m ws c ~level ~stop base st st' emit =
  let a = Array.unsafe_get m.atom base in
  let col = Array.unsafe_get m.cols base in
  let hi = Array.unsafe_get st ((2 * a) + 1) in
  let pos = ref (Array.unsafe_get st (2 * a)) in
  while !pos < hi do
    let v = Column.unsafe_get col !pos in
    let e = ugallop_gt col !pos hi v in
    c.work <- c.work + 1;
    (match m.bud with Some b -> Budget.tick b | None -> ());
    Array.unsafe_set st' (2 * a) !pos;
    Array.unsafe_set st' ((2 * a) + 1) e;
    Array.unsafe_set ws.assignment level v;
    enum_gj m ws c ~level:(level + 1) ~stop emit;
    pos := e
  done

(* two participants: the leader choice is one comparison and the probe
   loop is a single forward gallop against the other stream *)
and enum_gj2 m ws c ~level ~stop base st st' emit =
  let a0 = Array.unsafe_get m.atom base in
  let a1 = Array.unsafe_get m.atom (base + 1) in
  let s0 = Array.unsafe_get st ((2 * a0) + 1) - Array.unsafe_get st (2 * a0) in
  let s1 = Array.unsafe_get st ((2 * a1) + 1) - Array.unsafe_get st (2 * a1) in
  (* strict less: a tie keeps slot 0 as leader, like the generic scan *)
  let la, oa, lcol, ocol =
    if s1 < s0 then
      (a1, a0, Array.unsafe_get m.cols (base + 1), Array.unsafe_get m.cols base)
    else
      (a0, a1, Array.unsafe_get m.cols base, Array.unsafe_get m.cols (base + 1))
  in
  let lhi = Array.unsafe_get st ((2 * la) + 1) in
  let ohi = Array.unsafe_get st ((2 * oa) + 1) in
  let ocur = ref (Array.unsafe_get st (2 * oa)) in
  let pos = ref (Array.unsafe_get st (2 * la)) in
  let dead = ref false in
  while (not !dead) && !pos < lhi do
    let v = Column.unsafe_get lcol !pos in
    let e = ugallop_gt lcol !pos lhi v in
    c.work <- c.work + 1;
    (match m.bud with Some b -> Budget.tick b | None -> ());
    let p = ugallop_geq ocol !ocur ohi v in
    ocur := p;
    if p >= ohi then dead := true
    else if Column.unsafe_get ocol p = v then begin
      Array.unsafe_set st' (2 * oa) p;
      Array.unsafe_set st' ((2 * oa) + 1) (ugallop_gt ocol p ohi v);
      Array.unsafe_set st' (2 * la) !pos;
      Array.unsafe_set st' ((2 * la) + 1) e;
      Array.unsafe_set ws.assignment level v;
      enum_gj m ws c ~level:(level + 1) ~stop emit
    end;
    pos := e
  done

(* the general shape, any participant count *)
and enum_gjn m ws c ~level ~stop base np st st' emit =
  begin
    let lj = ref 0 and lsize = ref max_int in
    for j = 0 to np - 1 do
      let i = Array.unsafe_get m.atom (base + j) in
      let s =
        Array.unsafe_get st ((2 * i) + 1) - Array.unsafe_get st (2 * i)
      in
      if s < !lsize then begin
        lsize := s;
        lj := j
      end
    done;
    let lj = !lj in
    let leader = Array.unsafe_get m.atom (base + lj) in
    let lcol = Array.unsafe_get m.cols (base + lj) in
    let lhi = Array.unsafe_get st ((2 * leader) + 1) in
    let cur = Array.unsafe_get ws.cursors level in
    for j = 0 to np - 1 do
      Array.unsafe_set cur j
        (Array.unsafe_get st (2 * Array.unsafe_get m.atom (base + j)))
    done;
    let pos = ref (Array.unsafe_get st (2 * leader)) in
    let dead = ref false in
    while (not !dead) && !pos < lhi do
      let v = Column.unsafe_get lcol !pos in
      let e = ugallop_gt lcol !pos lhi v in
      c.work <- c.work + 1;
      (match m.bud with Some b -> Budget.tick b | None -> ());
      let ok = ref true in
      let j = ref 0 in
      while !ok && !j < np do
        if !j <> lj then begin
          let i = Array.unsafe_get m.atom (base + !j) in
          let col = Array.unsafe_get m.cols (base + !j) in
          let hi = Array.unsafe_get st ((2 * i) + 1) in
          let p = ugallop_geq col (Array.unsafe_get cur !j) hi v in
          Array.unsafe_set cur !j p;
          if p >= hi then begin
            ok := false;
            dead := true
          end
          else if Column.unsafe_get col p <> v then ok := false
          else begin
            Array.unsafe_set st' (2 * i) p;
            Array.unsafe_set st' ((2 * i) + 1) (ugallop_gt col p hi v)
          end
        end;
        incr j
      done;
      if !ok then begin
        Array.unsafe_set st' (2 * leader) !pos;
        Array.unsafe_set st' ((2 * leader) + 1) e;
        Array.unsafe_set ws.assignment level v;
        enum_gj m ws c ~level:(level + 1) ~stop emit
      end;
      pos := e
    done
  end

(* --- the Leapfrog loop nest ---

   Mirrors Leapfrog.enumerate: budget tick per agreed key, one
   [c.work] increment and tick per lagging-iterator seek with the
   in-loop [fin] guard. *)

let rec enum_lf m ws c ~level ~stop emit =
  if level >= stop then emit ()
  else begin
    let base = Array.unsafe_get m.off level in
    let np = Array.unsafe_get m.off (level + 1) - base in
    let st = Array.unsafe_get ws.stack level
    and st' = Array.unsafe_get ws.stack (level + 1) in
    if level = stop - 1 && stop = m.nvars && np = 2 then
      leaf_lf2 m ws c ~level base st emit
    else begin
      for i = 0 to (2 * m.natoms) - 1 do
        Array.unsafe_set st' i (Array.unsafe_get st i)
      done;
      if np = 2 then enum_lf2 m ws c ~level ~stop base st st' emit
      else enum_lfn m ws c ~level ~stop base np st st' emit
    end
  end

(* last level, two iterators: stack.(level+1) is never read, so the
   range copy and st' writes vanish; the agreement gallops stay (they
   advance the cursors) and every tick/work unit is replayed exactly *)
and leaf_lf2 m ws c ~level base st emit =
  let a0 = Array.unsafe_get m.atom base in
  let a1 = Array.unsafe_get m.atom (base + 1) in
  let col0 = Array.unsafe_get m.cols base in
  let col1 = Array.unsafe_get m.cols (base + 1) in
  let hi0 = Array.unsafe_get st ((2 * a0) + 1) in
  let hi1 = Array.unsafe_get st ((2 * a1) + 1) in
  let p0 = ref (Array.unsafe_get st (2 * a0)) in
  let p1 = ref (Array.unsafe_get st (2 * a1)) in
  let fin = ref (!p0 >= hi0 || !p1 >= hi1) in
  while not !fin do
    let k0 = Column.unsafe_get col0 !p0 in
    let k1 = Column.unsafe_get col1 !p1 in
    if k0 = k1 then begin
      (match m.bud with Some b -> Budget.tick b | None -> ());
      let e0 = ugallop_gt col0 !p0 hi0 k0 in
      let e1 = ugallop_gt col1 !p1 hi1 k0 in
      Array.unsafe_set ws.assignment level k0;
      emit ();
      p0 := e0;
      p1 := e1;
      if e0 >= hi0 || e1 >= hi1 then fin := true
    end
    else if k0 < k1 then begin
      c.work <- c.work + 1;
      (match m.bud with Some b -> Budget.tick b | None -> ());
      p0 := ugallop_geq col0 !p0 hi0 k1;
      if !p0 >= hi0 then fin := true
    end
    else begin
      c.work <- c.work + 1;
      (match m.bud with Some b -> Budget.tick b | None -> ());
      p1 := ugallop_geq col1 !p1 hi1 k0;
      if !p1 >= hi1 then fin := true
    end
  done

(* two iterators: the agreement test is one comparison, the lagging
   seek a single gallop - the generic loop's tick and work accounting
   (one tick per agreed key, one work unit + tick per lagging seek in
   ascending slot order) is replayed exactly *)
and enum_lf2 m ws c ~level ~stop base st st' emit =
  let a0 = Array.unsafe_get m.atom base in
  let a1 = Array.unsafe_get m.atom (base + 1) in
  let col0 = Array.unsafe_get m.cols base in
  let col1 = Array.unsafe_get m.cols (base + 1) in
  let hi0 = Array.unsafe_get st ((2 * a0) + 1) in
  let hi1 = Array.unsafe_get st ((2 * a1) + 1) in
  let p0 = ref (Array.unsafe_get st (2 * a0)) in
  let p1 = ref (Array.unsafe_get st (2 * a1)) in
  let fin = ref (!p0 >= hi0 || !p1 >= hi1) in
  while not !fin do
    let k0 = Column.unsafe_get col0 !p0 in
    let k1 = Column.unsafe_get col1 !p1 in
    if k0 = k1 then begin
      (match m.bud with Some b -> Budget.tick b | None -> ());
      let e0 = ugallop_gt col0 !p0 hi0 k0 in
      let e1 = ugallop_gt col1 !p1 hi1 k0 in
      Array.unsafe_set st' (2 * a0) !p0;
      Array.unsafe_set st' ((2 * a0) + 1) e0;
      Array.unsafe_set st' (2 * a1) !p1;
      Array.unsafe_set st' ((2 * a1) + 1) e1;
      Array.unsafe_set ws.assignment level k0;
      enum_lf m ws c ~level:(level + 1) ~stop emit;
      p0 := e0;
      p1 := e1;
      if e0 >= hi0 || e1 >= hi1 then fin := true
    end
    else if k0 < k1 then begin
      c.work <- c.work + 1;
      (match m.bud with Some b -> Budget.tick b | None -> ());
      p0 := ugallop_geq col0 !p0 hi0 k1;
      if !p0 >= hi0 then fin := true
    end
    else begin
      c.work <- c.work + 1;
      (match m.bud with Some b -> Budget.tick b | None -> ());
      p1 := ugallop_geq col1 !p1 hi1 k0;
      if !p1 >= hi1 then fin := true
    end
  done

(* the general shape, any iterator count *)
and enum_lfn m ws c ~level ~stop base np st st' emit =
  begin
    let pos = Array.unsafe_get ws.cursors level in
    let fin = ref false in
    for j = 0 to np - 1 do
      let i = Array.unsafe_get m.atom (base + j) in
      Array.unsafe_set pos j (Array.unsafe_get st (2 * i));
      if Array.unsafe_get st (2 * i) >= Array.unsafe_get st ((2 * i) + 1) then
        fin := true
    done;
    while not !fin do
      let k0 =
        Column.unsafe_get (Array.unsafe_get m.cols base) (Array.unsafe_get pos 0)
      in
      let kmax = ref k0 and kmin = ref k0 in
      for j = 1 to np - 1 do
        let k =
          Column.unsafe_get
            (Array.unsafe_get m.cols (base + j))
            (Array.unsafe_get pos j)
        in
        if k > !kmax then kmax := k;
        if k < !kmin then kmin := k
      done;
      if !kmin = !kmax then begin
        let v = !kmin in
        (match m.bud with Some b -> Budget.tick b | None -> ());
        for j = 0 to np - 1 do
          let i = Array.unsafe_get m.atom (base + j) in
          let e =
            ugallop_gt
              (Array.unsafe_get m.cols (base + j))
              (Array.unsafe_get pos j)
              (Array.unsafe_get st ((2 * i) + 1))
              v
          in
          Array.unsafe_set st' (2 * i) (Array.unsafe_get pos j);
          Array.unsafe_set st' ((2 * i) + 1) e
        done;
        Array.unsafe_set ws.assignment level v;
        enum_lf m ws c ~level:(level + 1) ~stop emit;
        for j = 0 to np - 1 do
          let i = Array.unsafe_get m.atom (base + j) in
          Array.unsafe_set pos j (Array.unsafe_get st' ((2 * i) + 1));
          if Array.unsafe_get pos j >= Array.unsafe_get st ((2 * i) + 1) then
            fin := true
        done
      end
      else begin
        let mx = !kmax in
        for j = 0 to np - 1 do
          if
            (not !fin)
            && Column.unsafe_get
                 (Array.unsafe_get m.cols (base + j))
                 (Array.unsafe_get pos j)
               < mx
          then begin
            c.work <- c.work + 1;
            (match m.bud with Some b -> Budget.tick b | None -> ());
            let i = Array.unsafe_get m.atom (base + j) in
            Array.unsafe_set pos j
              (ugallop_geq
                 (Array.unsafe_get m.cols (base + j))
                 (Array.unsafe_get pos j)
                 (Array.unsafe_get st ((2 * i) + 1))
                 mx);
            if Array.unsafe_get pos j >= Array.unsafe_get st ((2 * i) + 1)
            then fin := true
          end
        done
      end
    done
  end

let enum m ws c ~level ~stop emit =
  match m.eng with
  | Generic -> enum_gj m ws c ~level ~stop emit
  | Leapfrog -> enum_lf m ws c ~level ~stop emit

let run_seq m c f =
  if not (has_empty_atom m) then begin
    let ws = make_ws m in
    init_root m ws;
    enum m ws c ~level:0 ~stop:m.nvars (fun () ->
        c.emitted <- c.emitted + 1;
        f ws.assignment)
  end

(* --- Domain-parallel driver ---

   The first variable's candidates are materialized as tasks (heavy
   candidates are split one level deeper to defuse skew), chunks of
   tasks are claimed dynamically by the pool's domains, and per-chunk
   counters and accumulators are merged at the end - so pooled runs
   produce the sequential answers and counter totals.  The budget is
   shared across domains (cooperative, so tick totals may undercount
   under races; exhaustion still fires promptly on every domain). *)

type task = { plen : int; v0 : int; v1 : int; st : int array }

let split_threshold = 64

let push_task ws tasks n plen =
  incr n;
  tasks :=
    {
      plen;
      v0 = ws.assignment.(0);
      v1 = (if plen > 1 then ws.assignment.(1) else 0);
      st = Array.copy ws.stack.(plen);
    }
    :: !tasks

(* Heavy first values (smallest level-1 participant range above the
   threshold) are expanded one level deeper at discovery time, so the
   budget ticks of the level-1 expansion land between the level-0
   candidates in enumeration order. *)
let heavy_at_1 m ws =
  m.nvars >= 2
  &&
  let base = m.off.(1) in
  let np = m.off.(2) - base in
  let st = ws.stack.(1) in
  let w = ref max_int in
  for j = 0 to np - 1 do
    let i = m.atom.(base + j) in
    let s = st.((2 * i) + 1) - st.(2 * i) in
    if s < !w then w := s
  done;
  !w > split_threshold

let gen_tasks m ws c =
  let tasks = ref [] and n = ref 0 in
  enum m ws c ~level:0 ~stop:1 (fun () ->
      if heavy_at_1 m ws then
        enum m ws c ~level:1 ~stop:2 (fun () -> push_task ws tasks n 2)
      else push_task ws tasks n 1);
  (!n, Array.of_list (List.rev !tasks))

let run_task m ws ck t ~consume acc =
  ws.assignment.(0) <- t.v0;
  if t.plen > 1 then ws.assignment.(1) <- t.v1;
  Array.blit t.st 0 ws.stack.(t.plen) 0 (2 * m.natoms);
  enum m ws ck ~level:t.plen ~stop:m.nvars (fun () ->
      ck.emitted <- ck.emitted + 1;
      consume acc ws.assignment)

(* Merge per-chunk counters into [c] once the chunks are done - also
   when a budget cuts the run short, so every chunk's partial work is
   attributed, as in the sequential driver. *)
let merging c ctrs run =
  Fun.protect run ~finally:(fun () ->
      Array.iter
        (fun ck ->
          c.work <- c.work + ck.work;
          c.emitted <- c.emitted + ck.emitted)
        ctrs)

let run_par m pool c ~make_acc ~consume =
  let gws = make_ws m in
  init_root m gws;
  let ntasks, tasks = gen_tasks m gws c in
  let per_chunk = max 1 (ntasks / (Pool.size pool * 8)) in
  let nchunks = (ntasks + per_chunk - 1) / per_chunk in
  let accs = Array.init nchunks (fun _ -> make_acc ()) in
  let ctrs = Array.init nchunks (fun _ -> fresh_counters ()) in
  merging c ctrs (fun () ->
      Pool.run pool ~chunks:nchunks (fun k ->
          let ws = make_ws m in
          let ck = ctrs.(k) and acc = accs.(k) in
          let t1 = min ntasks ((k + 1) * per_chunk) in
          for ti = k * per_chunk to t1 - 1 do
            run_task m ws ck tasks.(ti) ~consume acc
          done));
  accs

let pool_applies m = function
  | Some p when Pool.size p > 1 && m.nvars >= 2 -> Some p
  | _ -> None

(* --- public unsharded entry points --- *)

let count ?counters ?(ctx = Exec.default) ir db q =
  let c = match counters with Some c -> c | None -> fresh_counters () in
  let m = make_mach ctx ir db q in
  with_metrics ir.engine ctx.Exec.metrics c @@ fun () ->
  match pool_applies m ctx.Exec.pool with
  | Some p when not (has_empty_atom m) ->
      let accs =
        run_par m p c ~make_acc:(fun () -> ref 0) ~consume:(fun r _ -> incr r)
      in
      Array.fold_left (fun acc r -> acc + !r) 0 accs
  | _ ->
      let n = ref 0 in
      run_seq m c (fun _ -> incr n);
      !n

let count_bounded ?counters ?ctx ir db q =
  Budget.protect (fun () -> count ?counters ?ctx ir db q)

let answer ?(ctx = Exec.default) ir db q =
  let c = fresh_counters () in
  let m = make_mach ctx ir db q in
  let rows =
    with_metrics ir.engine ctx.Exec.metrics c @@ fun () ->
    match pool_applies m ctx.Exec.pool with
    | Some p when not (has_empty_atom m) ->
        let accs =
          run_par m p c
            ~make_acc:(fun () -> ref [])
            ~consume:(fun r a -> r := Array.copy a :: !r)
        in
        Array.fold_left (fun acc r -> List.rev_append !r acc) [] accs
    | _ ->
        let acc = ref [] in
        run_seq m c (fun a -> acc := Array.copy a :: !acc);
        !acc
  in
  Relation.make ir.order rows

(* --- sharded driver ---

   Execution over a Shard.view: shard [s] sees its own tries for the
   partitioned atoms and a shared trie for the whole ones.  The level-0
   loop cannot run inside any single shard - the leader choice, the
   probe outcomes and the early abort all depend on the full key
   streams - so it is emulated over Shard.Stream views that merge the k
   shard columns of each participant (every level-0 binding has trie
   depth 0, since order.(0) holds the smallest order position).  Every
   surviving candidate x=v is then routed to shard [shard_of v], where
   the subtree under v is content-identical to the unsharded trie's
   (hash partitioning keeps all rows with x=v together and the trie
   sort is deterministic), so per-candidate work and counters replicate
   the unsharded run. *)

(* A distributed participant executes only a subset of the shards:
   [owned s] says whether this process runs (and counts) shard [s]'s
   deep-level work, and exactly one participant is the [lead], which
   accounts the level-0 stream emulation and the logical trie build.
   Summing the counters reported by a full cover of participants (each
   shard owned exactly once, one lead) reproduces the single-process
   sharded totals bit for bit.  [all_shards] is the single-process
   case: own everything, lead. *)
type subset = { owned : int -> bool; lead : bool }

let all_shards = { owned = (fun _ -> true); lead = true }

let make_shard_machs (ex : Exec.t) ~lead ir (view : Shard.view) =
  if lead then Metrics.incr ex.Exec.metrics (trie_builds_name ir.engine);
  let k = view.Shard.k in
  let parts = view.Shard.parts in
  let natoms = Array.length parts in
  let out = Array.init natoms (fun _ -> Array.make k None) in
  let jobs = ref [] in
  Array.iteri
    (fun i p ->
      match p with
      | Shard.Whole _ -> jobs := (i, -1) :: !jobs
      | Shard.Parts _ ->
          for s = k - 1 downto 0 do
            jobs := (i, s) :: !jobs
          done)
    parts;
  let jobs = Array.of_list !jobs in
  let build (i, s) =
    match parts.(i) with
    | Shard.Whole r ->
        let t = Trie.build ~order:ir.order r in
        for s = 0 to k - 1 do
          out.(i).(s) <- Some t
        done
    | Shard.Parts a -> out.(i).(s) <- Some (Trie.build ~order:ir.order a.(s))
  in
  (match ex.Exec.pool with
  | Some p when Pool.size p > 1 && Array.length jobs > 1 ->
      Pool.run p ~chunks:(Array.length jobs) (fun j -> build jobs.(j))
  | _ -> Array.iter build jobs);
  Array.init k (fun s ->
      mach_of_tries ex.Exec.budget ir
        (Array.init natoms (fun i -> Option.get out.(i).(s))))

let sharded_empty machs =
  let k = Array.length machs and n = machs.(0).natoms in
  let e = ref false in
  for i = 0 to n - 1 do
    let tot = ref 0 in
    for s = 0 to k - 1 do
      tot := !tot + Trie.row_count machs.(s).tries.(i)
    done;
    if !tot = 0 then e := true
  done;
  !e

(* Bind candidate v at level 0 of shard s's machine and emit its task,
   expanding heavy candidates one level deeper. *)
let route_candidate machs wss tasks counts c v =
  let k = Array.length machs in
  let s = Shard.shard_of ~k v in
  let m = machs.(s) in
  let ws = wss.(s) in
  ws.assignment.(0) <- v;
  let st0 = ws.stack.(0) and st1 = ws.stack.(1) in
  Array.blit st0 0 st1 0 (2 * m.natoms);
  let base = m.off.(0) in
  for j = 0 to m.off.(1) - base - 1 do
    let i = m.atom.(base + j) in
    match
      Trie.narrow m.tries.(i) ~depth:0 ~lo:st0.(2 * i) ~hi:st0.((2 * i) + 1) v
    with
    | Some (lo, hi) ->
        st1.(2 * i) <- lo;
        st1.((2 * i) + 1) <- hi
    | None -> assert false (* v present in every participant *)
  done;
  let push plen =
    counts.(s) <- counts.(s) + 1;
    tasks.(s) <-
      {
        plen;
        v0 = ws.assignment.(0);
        v1 = (if plen > 1 then ws.assignment.(1) else 0);
        st = Array.copy ws.stack.(plen);
      }
      :: tasks.(s)
  in
  if heavy_at_1 m ws then
    enum m ws c ~level:1 ~stop:2 (fun () -> push 2)
  else push 1

(* Level-0 Generic Join over the merged streams: leader by smallest
   total, one work increment and tick per enumerated leader key.  Only
   the lead counts and ticks level 0 ([c0]); the others replay the
   identical stream walk against a scratch counter, since probe
   outcomes and the early abort decide which candidates exist at all.
   Candidates in shards this participant does not own are left to
   their owner. *)
let gen_sharded_tasks_gj machs c ~sub =
  let c0 = if sub.lead then c else fresh_counters () in
  let bud = if sub.lead then machs.(0).bud else None in
  let k = Array.length machs in
  let m0 = machs.(0) in
  let base = m0.off.(0) in
  let np = m0.off.(1) - base in
  let streams =
    Array.init np (fun j ->
        let i = m0.atom.(base + j) in
        Shard.Stream.make
          (Array.init k (fun s -> Trie.column machs.(s).tries.(i) 0)))
  in
  let lj = ref 0 and lsize = ref max_int in
  Array.iteri
    (fun j st ->
      let s = Shard.Stream.total st in
      if s < !lsize then begin
        lsize := s;
        lj := j
      end)
    streams;
  let lj = !lj in
  let tasks = Array.make k [] in
  let counts = Array.make k 0 in
  let wss = Array.init k (fun s -> make_ws machs.(s)) in
  Array.iteri (fun s ws -> init_root machs.(s) ws) wss;
  let ls = streams.(lj) in
  let dead = ref false in
  while (not !dead) && not (Shard.Stream.exhausted ls) do
    let v = Shard.Stream.cur ls in
    c0.work <- c0.work + 1;
    (match bud with Some b -> Budget.tick b | None -> ());
    let ok = ref true in
    let j = ref 0 in
    while !ok && !j < np do
      if !j <> lj then begin
        let st = streams.(!j) in
        Shard.Stream.seek_geq st v;
        if Shard.Stream.exhausted st then begin
          ok := false;
          dead := true
        end
        else if Shard.Stream.cur st <> v then ok := false
      end;
      incr j
    done;
    if !ok && sub.owned (Shard.shard_of ~k v) then
      route_candidate machs wss tasks counts c v;
    Shard.Stream.advance_gt ls v
  done;
  (Array.map (fun l -> Array.of_list (List.rev l)) tasks, counts)

(* Level-0 leapfrog over the merged streams: tick per agreed key, work
   increment and tick per lagging seek with the in-loop fin guard;
   level-0 accounting belongs to the lead, as in the Generic Join
   walk. *)
let gen_sharded_tasks_lf machs c ~sub =
  let c0 = if sub.lead then c else fresh_counters () in
  let bud = if sub.lead then machs.(0).bud else None in
  let k = Array.length machs in
  let m0 = machs.(0) in
  let base = m0.off.(0) in
  let np = m0.off.(1) - base in
  let streams =
    Array.init np (fun j ->
        let i = m0.atom.(base + j) in
        Shard.Stream.make
          (Array.init k (fun s -> Trie.column machs.(s).tries.(i) 0)))
  in
  let tasks = Array.make k [] in
  let counts = Array.make k 0 in
  let wss = Array.init k (fun s -> make_ws machs.(s)) in
  Array.iteri (fun s ws -> init_root machs.(s) ws) wss;
  let fin = ref false in
  Array.iter
    (fun st -> if Shard.Stream.exhausted st then fin := true)
    streams;
  while not !fin do
    let k0 = Shard.Stream.cur streams.(0) in
    let kmax = ref k0 and kmin = ref k0 in
    for j = 1 to np - 1 do
      let key = Shard.Stream.cur streams.(j) in
      if key > !kmax then kmax := key;
      if key < !kmin then kmin := key
    done;
    if !kmin = !kmax then begin
      let v = !kmin in
      (match bud with Some b -> Budget.tick b | None -> ());
      if sub.owned (Shard.shard_of ~k v) then
        route_candidate machs wss tasks counts c v;
      Array.iter
        (fun st ->
          Shard.Stream.advance_gt st v;
          if Shard.Stream.exhausted st then fin := true)
        streams
    end
    else begin
      let mx = !kmax in
      for j = 0 to np - 1 do
        if (not !fin) && Shard.Stream.cur streams.(j) < mx then begin
          c0.work <- c0.work + 1;
          (match bud with Some b -> Budget.tick b | None -> ());
          Shard.Stream.seek_geq streams.(j) mx;
          if Shard.Stream.exhausted streams.(j) then fin := true
        end
      done
    end
  done;
  (Array.map (fun l -> Array.of_list (List.rev l)) tasks, counts)

let gen_sharded_tasks machs c ~sub =
  match machs.(0).eng with
  | Generic -> gen_sharded_tasks_gj machs c ~sub
  | Leapfrog -> gen_sharded_tasks_lf machs c ~sub

(* Skew fallback: shard task lists exceeding 2x the mean are halved
   recursively into execution units, so one hot shard cannot serialize
   the pool.  Units are ordered by (shard, offset); merging per-unit
   counters in that order keeps totals deterministic. *)
type exec_unit = { shard : int; t0 : int; t1 : int }

let units_of counts =
  let k = Array.length counts in
  let total = Array.fold_left ( + ) 0 counts in
  let mean = max 1 ((total + k - 1) / k) in
  let cap = 2 * mean in
  let out = ref [] in
  let rec split s t0 t1 =
    if t1 - t0 > cap && t1 - t0 > 1 then begin
      let mid = (t0 + t1) / 2 in
      split s t0 mid;
      split s mid t1
    end
    else if t1 > t0 then out := { shard = s; t0; t1 } :: !out
  in
  for s = k - 1 downto 0 do
    split s 0 counts.(s)
  done;
  Array.of_list !out

let run_units machs (tasks : task array array) units pool c ~make_acc ~consume
    =
  let nu = Array.length units in
  let accs = Array.init nu (fun _ -> make_acc ()) in
  let ctrs = Array.init nu (fun _ -> fresh_counters ()) in
  let body u =
    let { shard = s; t0; t1 } = units.(u) in
    let m = machs.(s) in
    let ws = make_ws m in
    let ck = ctrs.(u) and acc = accs.(u) in
    for ti = t0 to t1 - 1 do
      run_task m ws ck tasks.(s).(ti) ~consume acc
    done
  in
  merging c ctrs (fun () ->
      match pool with
      | Some p when Pool.size p > 1 && nu > 1 -> Pool.run p ~chunks:nu body
      | _ ->
          for u = 0 to nu - 1 do
            body u
          done);
  accs

let sharded_drive ?counters ?(ctx = Exec.default) ?(subset = all_shards)
    ~shards ir db q ~make_acc ~consume =
  if shards < 1 then invalid_arg "Compile.run_sharded: shards < 1";
  let c = match counters with Some c -> c | None -> fresh_counters () in
  with_metrics ir.engine ctx.Exec.metrics c @@ fun () ->
  if ir.nvars = 0 then begin
    (* built without the pool: a zero-variable query has no level to
       spread over domains *)
    let m = make_mach { ctx with Exec.pool = None } ir db q in
    let acc = make_acc () in
    run_seq m c (fun a -> consume acc a);
    [| acc |]
  end
  else begin
    let view = Shard.view ~attr:ir.order.(0) ~k:shards db q in
    let machs = make_shard_machs ctx ~lead:subset.lead ir view in
    if sharded_empty machs then [| make_acc () |]
    else begin
      let tasks, counts = gen_sharded_tasks machs c ~sub:subset in
      let units = units_of counts in
      run_units machs tasks units ctx.Exec.pool c ~make_acc ~consume
    end
  end

let count_sharded ?counters ?ctx ?subset ~shards ir db q =
  let accs =
    sharded_drive ?counters ?ctx ?subset ~shards ir db q
      ~make_acc:(fun () -> ref 0)
      ~consume:(fun r _ -> incr r)
  in
  Array.fold_left (fun acc r -> acc + !r) 0 accs

let run_sharded ?counters ?ctx ?subset ~shards ir db q =
  let accs =
    sharded_drive ?counters ?ctx ?subset ~shards ir db q
      ~make_acc:(fun () -> ref [])
      ~consume:(fun r a -> r := Array.copy a :: !r)
  in
  Relation.make ir.order
    (Array.fold_left (fun acc r -> List.rev_append !r acc) [] accs)
