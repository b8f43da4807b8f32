(* General CSP backtracking solver with MRV variable selection, forward
   checking on binary constraints, and optional AC-3 preprocessing.

   This is the generic search whose worst-case exponential behaviour the
   lower bounds of Sections 5-7 say cannot be avoided in general; the
   structured algorithms (Freuder, Yannakakis via conversion) beat it
   exactly when the paper says they should. *)

module Bitset = Lb_util.Bitset
module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics

type stats = { mutable nodes : int; mutable prunings : int }

let fresh_stats () = { nodes = 0; prunings = 0 }

(* Index binary constraints for fast compatibility tests:
   pair_allowed.(key of (u,v)) = hashtable of a*D+b. *)
type binary_index = (int * int, (int, unit) Hashtbl.t) Hashtbl.t

(* Multiple constraints on the same ordered pair are intersected; a
   [seen] set distinguishes "no constraint yet" from "a constraint that
   allows nothing". *)
let build_binary_index (csp : Csp.t) : binary_index =
  let d = Csp.domain_size csp in
  let idx : binary_index = Hashtbl.create 64 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (c : Csp.constraint_) ->
      if Array.length c.scope = 2 && c.scope.(0) <> c.scope.(1) then begin
        let u = c.scope.(0) and v = c.scope.(1) in
        let fresh_uv = Hashtbl.create 64 and fresh_vu = Hashtbl.create 64 in
        List.iter
          (fun tup ->
            let a = tup.(0) and b = tup.(1) in
            Hashtbl.replace fresh_uv ((a * d) + b) ();
            Hashtbl.replace fresh_vu ((b * d) + a) ())
          c.allowed;
        let install key fresh =
          if Hashtbl.mem seen key then begin
            let target = Hashtbl.find idx key in
            let keep = Hashtbl.create (Hashtbl.length target) in
            Hashtbl.iter
              (fun k () -> if Hashtbl.mem fresh k then Hashtbl.replace keep k ())
              target;
            Hashtbl.replace idx key keep
          end
          else begin
            Hashtbl.replace seen key ();
            Hashtbl.replace idx key fresh
          end
        in
        install (u, v) fresh_uv;
        install (v, u) fresh_vu
      end)
    (Csp.constraints csp);
  idx

let pair_allowed idx d u a v b =
  match Hashtbl.find_opt idx (u, v) with
  | None -> true
  | Some h -> Hashtbl.mem h ((a * d) + b)

(* AC-3 on the binary index; prunes [domains] in place.  Returns false if
   a domain empties. *)
let ac3 (csp : Csp.t) idx domains =
  let d = Csp.domain_size csp in
  let n = Csp.nvars csp in
  let queue = Queue.create () in
  Hashtbl.iter (fun (u, v) _ -> Queue.add (u, v) queue) idx;
  let alive = ref true in
  while !alive && not (Queue.is_empty queue) do
    let u, v = Queue.pop queue in
    (* revise u against v: remove a from dom(u) lacking support in
       dom(v) *)
    let revised = ref false in
    Bitset.iter
      (fun a ->
        let supported = ref false in
        Bitset.iter
          (fun b -> if pair_allowed idx d u a v b then supported := true)
          domains.(v);
        if not !supported then begin
          Bitset.remove domains.(u) a;
          revised := true
        end)
      domains.(u);
    if !revised then begin
      if Bitset.is_empty domains.(u) then alive := false
      else
        (* re-enqueue arcs (w, u) *)
        for w = 0 to n - 1 do
          if w <> u && w <> v && Hashtbl.mem idx (w, u) then Queue.add (w, u) queue
        done
    end
  done;
  !alive

(* Iterate all solutions via MRV backtracking with forward checking on
   binary constraints; non-binary constraints are checked once fully
   assigned.  [f] gets the assignment (reused array); raise inside [f]
   to stop early. *)
let iter_solutions ?stats ?(ctx = Lb_util.Exec.default) ?(use_ac3 = true)
    (csp : Csp.t) f =
  let budget = ctx.Lb_util.Exec.budget and metrics = ctx.Lb_util.Exec.metrics in
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  (* ticked once per search node and once per value attempt, so a
     deadline fires within a quantum of node expansions *)
  let tick () = match budget with Some b -> Budget.tick b | None -> () in
  let n = Csp.nvars csp in
  let d = Csp.domain_size csp in
  let idx = build_binary_index csp in
  let domains = Array.init n (fun _ ->
      let b = Bitset.create d in
      Bitset.fill b;
      b)
  in
  let nonbinary =
    List.filter
      (fun (c : Csp.constraint_) ->
        Array.length c.scope <> 2 || c.scope.(0) = c.scope.(1))
      (Csp.constraints csp)
  in
  (* node-consistency for unary / degenerate scopes *)
  let unary_ok = ref true in
  List.iter
    (fun (c : Csp.constraint_) ->
      if Array.length c.scope = 1 then begin
        let v = c.scope.(0) in
        let allowed = Bitset.create d in
        List.iter (fun tup -> Bitset.add allowed tup.(0)) c.allowed;
        Bitset.inter_into ~into:domains.(v) allowed;
        if Bitset.is_empty domains.(v) then unary_ok := false
      end)
    (Csp.constraints csp);
  let n0 = stats.nodes and p0 = stats.prunings in
  Fun.protect ~finally:(fun () ->
      Metrics.add metrics "csp_solver.nodes" (stats.nodes - n0);
      Metrics.add metrics "csp_solver.prunings" (stats.prunings - p0))
  @@ fun () ->
  if !unary_ok && ((not use_ac3) || ac3 csp idx domains) && d > 0 then begin
    let assignment = Array.make n (-1) in
    let bump_node () =
      tick ();
      stats.nodes <- stats.nodes + 1
    in
    let bump_prune () = stats.prunings <- stats.prunings + 1 in
    (* neighbors via binary index *)
    let rec go assigned_count =
      if assigned_count = n then begin
        if List.for_all (fun c -> Csp.constraint_satisfied c assignment) nonbinary
        then f assignment
      end
      else begin
        (* MRV: unassigned var with smallest domain *)
        let best = ref (-1) and best_size = ref max_int in
        for v = 0 to n - 1 do
          if assignment.(v) < 0 then begin
            let s = Bitset.cardinal domains.(v) in
            if s < !best_size then begin
              best := v;
              best_size := s
            end
          end
        done;
        let v = !best in
        bump_node ();
        Bitset.iter
          (fun a ->
            tick ();
            assignment.(v) <- a;
            (* forward check: prune each unassigned neighbor *)
            let saved = ref [] in
            let consistent = ref true in
            for u = 0 to n - 1 do
              if !consistent && u <> v && assignment.(u) < 0
                 && Hashtbl.mem idx (v, u)
              then begin
                let removed = ref [] in
                Bitset.iter
                  (fun b ->
                    if not (pair_allowed idx d v a u b) then begin
                      Bitset.remove domains.(u) b;
                      removed := b :: !removed;
                      bump_prune ()
                    end)
                  domains.(u);
                saved := (u, !removed) :: !saved;
                if Bitset.is_empty domains.(u) then consistent := false
              end
            done;
            (* also check already-assigned neighbors (needed when AC is
               off or for constraints between assigned pairs; forward
               checking normally guarantees this, but guard anyway) *)
            if !consistent then
              for u = 0 to n - 1 do
                if !consistent && u <> v && assignment.(u) >= 0 then
                  if not (pair_allowed idx d v a u assignment.(u)) then
                    consistent := false
              done;
            if !consistent then go (assigned_count + 1);
            (* undo *)
            List.iter
              (fun (u, removed) -> List.iter (Bitset.add domains.(u)) removed)
              !saved;
            assignment.(v) <- -1)
          (Bitset.copy domains.(v))
      end
    in
    if n = 0 then f [||] else go 0
  end

exception Found of int array

let solve ?stats ?ctx ?use_ac3 csp =
  try
    iter_solutions ?stats ?ctx ?use_ac3 csp (fun a ->
        raise (Found (Array.copy a)));
    None
  with Found a -> Some a

let count ?stats ?ctx ?use_ac3 csp =
  let c = ref 0 in
  iter_solutions ?stats ?ctx ?use_ac3 csp (fun _ -> incr c);
  !c

let solve_bounded ?stats ?ctx ?use_ac3 csp =
  Budget.protect (fun () -> solve ?stats ?ctx ?use_ac3 csp)

let count_bounded ?stats ?ctx ?use_ac3 csp =
  Budget.protect (fun () -> count ?stats ?ctx ?use_ac3 csp)
