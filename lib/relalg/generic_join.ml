(* Generic Join (Ngo-Porat-Re-Rudra), Theorem 3.3.

   Variables are processed in a global order.  At each variable, the
   candidate values are the intersection of the matching value sets of
   every atom containing that variable, computed by enumerating the
   smallest set and probing the others - the intersection cost is
   proportional to the smallest set, which is the crux of the
   O(N^{rho*}) bound.

   Engine layout (the hot path is deliberately allocation-free):

   - Atoms are columnar tries (Trie).  Which atoms participate at each
     level, and which trie column they expose there, depends only on the
     schema and the variable order, so both are precomputed into [ctx].
   - Per-atom state is just a row range (lo, hi); the ranges live in a
     preallocated stack of flat int arrays, one row per level.
   - The leader's keys are enumerated in ascending order, so every
     non-leader keeps a cursor and probes by galloping search from it:
     total probe cost per level is amortized linear in the ranges
     scanned, and an exhausted cursor aborts the whole level early.

   This engine is sequential: it is the reference the compiled tier
   (Compile) is checked against.  The Domain-parallel and sharded
   drivers live in Compile only. *)

module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics
module Exec = Lb_util.Exec
module Column = Lb_util.Column

type counters = { mutable intersections : int; mutable emitted : int }

let fresh_counters () = { intersections = 0; emitted = 0 }

(* --- precomputed join context --- *)

type ctx = {
  tries : Trie.t array;
  nvars : int;
  natoms : int;
  participants : int array array;
      (* participants.(l): atoms whose schema contains order.(l) *)
  pcols : Column.t array array;
      (* pcols.(l).(j): the trie column of participants.(l).(j) at the
         depth it has reached when level l is processed *)
  bud : Budget.t option; (* ticked once per enumerated leader key *)
}

let make_ctx (ex : Exec.t) ~order db (q : Query.t) =
  (* one logical build per execution, whatever the atom count - the unit
     the server's batch scheduler asserts sharing on *)
  Metrics.incr ex.Exec.metrics "generic_join.trie_builds";
  let tries =
    Array.map (fun a -> Trie.build ~order (Query.bind_atom db a)) (Array.of_list q)
  in
  let natoms = Array.length tries in
  let nvars = Array.length order in
  let participants = Array.make nvars [||] in
  let pcols = Array.make nvars [||] in
  for l = 0 to nvars - 1 do
    let var = order.(l) in
    let ids = ref [] in
    for i = natoms - 1 downto 0 do
      let ats = Trie.attrs tries.(i) in
      for d = 0 to Array.length ats - 1 do
        if ats.(d) = var then ids := (i, d) :: !ids
      done
    done;
    participants.(l) <- Array.of_list (List.map fst !ids);
    pcols.(l) <-
      Array.of_list (List.map (fun (i, d) -> Trie.column tries.(i) d) !ids)
  done;
  { tries; nvars; natoms; participants; pcols; bud = ex.Exec.budget }

let has_empty_atom ctx =
  let e = ref false in
  Array.iter (fun t -> if Trie.row_count t = 0 then e := true) ctx.tries;
  !e

(* --- workspace --- *)

type ws = {
  stack : int array array; (* stack.(level): lo, hi per atom, flat *)
  cursors : int array array; (* cursors.(level): probe cursor per participant *)
  assignment : int array; (* parallel to the variable order *)
}

let make_ws ctx =
  {
    stack =
      Array.init (ctx.nvars + 1) (fun _ -> Array.make (max 1 (2 * ctx.natoms)) 0);
    cursors = Array.init (max 1 ctx.nvars) (fun _ -> Array.make (max 1 ctx.natoms) 0);
    assignment = Array.make (max 1 ctx.nvars) 0;
  }

let init_root ctx ws =
  let st = ws.stack.(0) in
  for i = 0 to ctx.natoms - 1 do
    st.(2 * i) <- 0;
    st.(2 * i + 1) <- Trie.row_count ctx.tries.(i)
  done

(* Enumerate all extensions of the current partial assignment from
   [level]; [on_leaf] fires with [ws] holding a complete assignment.
   [c.intersections] counts enumerated leader keys, as in the textbook
   cost accounting. *)
let rec enumerate ctx ws c ~level on_leaf =
  if level >= ctx.nvars then on_leaf ()
  else begin
    let ps = ctx.participants.(level) in
    let np = Array.length ps in
    if np = 0 then invalid_arg "Generic_join: variable missing from all atoms";
    let cols = ctx.pcols.(level) in
    let st = ws.stack.(level) and st' = ws.stack.(level + 1) in
    Array.blit st 0 st' 0 (2 * ctx.natoms);
    (* leader: the participant with the smallest current range *)
    let lj = ref 0 and lsize = ref max_int in
    for j = 0 to np - 1 do
      let i = ps.(j) in
      let s = st.(2 * i + 1) - st.(2 * i) in
      if s < !lsize then begin
        lsize := s;
        lj := j
      end
    done;
    let lj = !lj in
    let leader = ps.(lj) in
    let lcol = cols.(lj) in
    let lhi = st.(2 * leader + 1) in
    let cur = ws.cursors.(level) in
    for j = 0 to np - 1 do
      cur.(j) <- st.(2 * ps.(j))
    done;
    let pos = ref st.(2 * leader) in
    let dead = ref false in
    while (not !dead) && !pos < lhi do
      let v = Column.unsafe_get lcol !pos in
      let e = Trie.gallop_gt lcol !pos lhi v in
      c.intersections <- c.intersections + 1;
      (match ctx.bud with Some b -> Budget.tick b | None -> ());
      (* probe the other participants, galloping from their cursors;
         leader keys ascend, so cursors only move forward *)
      let ok = ref true in
      let j = ref 0 in
      while !ok && !j < np do
        if !j <> lj then begin
          let i = ps.(!j) in
          let col = cols.(!j) in
          let hi = st.(2 * i + 1) in
          let p = Trie.gallop_geq col cur.(!j) hi v in
          cur.(!j) <- p;
          if p >= hi then begin
            (* this stream is exhausted: no later leader key matches *)
            ok := false;
            dead := true
          end
          else if Column.unsafe_get col p <> v then ok := false
          else begin
            st'.(2 * i) <- p;
            st'.(2 * i + 1) <- Trie.gallop_gt col p hi v
          end
        end;
        incr j
      done;
      if !ok then begin
        st'.(2 * leader) <- !pos;
        st'.(2 * leader + 1) <- e;
        ws.assignment.(level) <- v;
        enumerate ctx ws c ~level:(level + 1) on_leaf
      end;
      pos := e
    done
  end

let run_seq ctx c f =
  if not (has_empty_atom ctx) then begin
    let ws = make_ws ctx in
    init_root ctx ws;
    enumerate ctx ws c ~level:0 (fun () ->
        c.emitted <- c.emitted + 1;
        f ws.assignment)
  end

(* Record the per-call counter deltas into a metrics sink - also when a
   budget cuts the run short, so partial work is still attributed. *)
let with_metrics metrics c f =
  let i0 = c.intersections and e0 = c.emitted in
  Fun.protect
    ~finally:(fun () ->
      Metrics.add metrics "generic_join.intersections" (c.intersections - i0);
      Metrics.add metrics "generic_join.emitted" (c.emitted - e0))
    f

(* Iterate all answers; [f] receives the assignment in global-order
   (parallel to [order]).  The array is reused between calls. *)
let iter ?order ?counters ?(ctx = Exec.default) db (q : Query.t) f =
  let order = match order with Some o -> o | None -> Query.attributes q in
  let c = match counters with Some c -> c | None -> fresh_counters () in
  let cx = make_ctx ctx ~order db q in
  with_metrics ctx.Exec.metrics c (fun () -> run_seq cx c f)

let count ?order ?counters ?ctx db q =
  let n = ref 0 in
  iter ?order ?counters ?ctx db q (fun _ -> incr n);
  !n

let count_bounded ?order ?counters ?ctx db q =
  Budget.protect (fun () -> count ?order ?counters ?ctx db q)

let answer ?order ?ctx db q =
  let order = match order with Some o -> o | None -> Query.attributes q in
  let acc = ref [] in
  iter ~order ?ctx db q (fun a -> acc := Array.copy a :: !acc);
  Relation.make order !acc

exception Found

let exists ?order ?(ctx = Exec.default) db q =
  let order = match order with Some o -> o | None -> Query.attributes q in
  let cx = make_ctx { ctx with Exec.metrics = Metrics.disabled } ~order db q in
  try
    run_seq cx (fresh_counters ()) (fun _ -> raise Found);
    false
  with Found -> true
