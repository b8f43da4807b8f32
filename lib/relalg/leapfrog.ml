(* Leapfrog Triejoin (Veldhuizen 2014), the second worst-case-optimal
   join of Theorem 3.3.

   Same columnar trie view as Generic Join, but the per-variable
   intersection is the leapfrog: iterators over the participants' sorted
   key streams repeatedly seek to the current maximum key until all
   agree, emitting each agreed key.  Seeks are galloping searches seeded
   at the iterator's current position, which is what makes the amortized
   seek cost of LFTJ real.

   The engine shares the design of [Generic_join]: participants and
   their trie columns per level are precomputed from the schema, the
   per-atom row ranges live in a preallocated stack of flat int arrays,
   and nothing allocates on the hot path.  Like Generic_join it is
   sequential: the reference the compiled tier (Compile), which holds
   the Domain-parallel and sharded drivers, is checked against. *)

module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics
module Exec = Lb_util.Exec
module Column = Lb_util.Column

type counters = { mutable seeks : int; mutable emitted : int }

let fresh_counters () = { seeks = 0; emitted = 0 }

type ctx = {
  tries : Trie.t array;
  nvars : int;
  natoms : int;
  participants : int array array;
  pcols : Column.t array array;
  bud : Budget.t option; (* ticked once per agreed key and per seek *)
}

let make_ctx (ex : Exec.t) ~order db (q : Query.t) =
  Metrics.incr ex.Exec.metrics "leapfrog.trie_builds";
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

type ws = {
  stack : int array array;
  cursors : int array array; (* iterator positions per participant *)
  assignment : int array;
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

(* Leapfrog the participants' key streams at [level], recursing to the
   last level; [c.seeks] counts actual seek operations. *)
let rec enumerate ctx ws c ~level on_leaf =
  if level >= ctx.nvars then on_leaf ()
  else begin
    let ps = ctx.participants.(level) in
    let np = Array.length ps in
    if np = 0 then invalid_arg "Leapfrog: variable missing from all atoms";
    let cols = ctx.pcols.(level) in
    let st = ws.stack.(level) and st' = ws.stack.(level + 1) in
    Array.blit st 0 st' 0 (2 * ctx.natoms);
    let pos = ws.cursors.(level) in
    let fin = ref false in
    for j = 0 to np - 1 do
      let i = ps.(j) in
      pos.(j) <- st.(2 * i);
      if st.(2 * i) >= st.(2 * i + 1) then fin := true
    done;
    while not !fin do
      (* current extremes of the key streams *)
      let k0 = Column.unsafe_get cols.(0) pos.(0) in
      let kmax = ref k0 and kmin = ref k0 in
      for j = 1 to np - 1 do
        let k = Column.unsafe_get cols.(j) pos.(j) in
        if k > !kmax then kmax := k;
        if k < !kmin then kmin := k
      done;
      if !kmin = !kmax then begin
        let v = !kmin in
        (match ctx.bud with Some b -> Budget.tick b | None -> ());
        (* all agree: bind v, recurse into the equal-key subranges *)
        for j = 0 to np - 1 do
          let i = ps.(j) in
          let e = Trie.gallop_gt cols.(j) pos.(j) st.(2 * i + 1) v in
          st'.(2 * i) <- pos.(j);
          st'.(2 * i + 1) <- e
        done;
        ws.assignment.(level) <- v;
        enumerate ctx ws c ~level:(level + 1) on_leaf;
        (* advance every iterator past v *)
        for j = 0 to np - 1 do
          let i = ps.(j) in
          pos.(j) <- st'.(2 * i + 1);
          if pos.(j) >= st.(2 * i + 1) then fin := true
        done
      end
      else begin
        (* seek every lagging iterator up to the maximum *)
        let m = !kmax in
        for j = 0 to np - 1 do
          if (not !fin) && Column.unsafe_get cols.(j) pos.(j) < m then begin
            c.seeks <- c.seeks + 1;
            (match ctx.bud with Some b -> Budget.tick b | None -> ());
            let i = ps.(j) in
            pos.(j) <- Trie.gallop_geq cols.(j) pos.(j) st.(2 * i + 1) m;
            if pos.(j) >= st.(2 * i + 1) then fin := true
          end
        done
      end
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

(* Record per-call counter deltas into a metrics sink - also when a
   budget cuts the run short. *)
let with_metrics metrics c f =
  let s0 = c.seeks and e0 = c.emitted in
  Fun.protect
    ~finally:(fun () ->
      Metrics.add metrics "leapfrog.seeks" (c.seeks - s0);
      Metrics.add metrics "leapfrog.emitted" (c.emitted - e0))
    f

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
