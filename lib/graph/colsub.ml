(* Colorful subgraph isomorphism ColSub(H) - the workload behind
   Marx's ETH lower bound (no n^{o(k/log k)} algorithm even for
   max-degree-3 patterns H).

   An instance colors every host vertex with a pattern vertex; a
   solution picks one host vertex per color so that pattern edges map
   to host edges.  Because the color classes partition the host,
   injectivity is automatic, which is exactly what makes the problem a
   clean binary CSP with primal graph H - and what lets a
   tree-decomposition dynamic program solve it in n^{tw(H)+1} instead
   of the backtracking's n^k.

   Three evaluation routes share this module and must agree
   bit-for-bit (the CSP route lives in [Lb_reductions.Colsub_to_csp],
   since [lb_graph] sits below [lb_csp] in the library stack):
   - backtracking: candidate-intersection search over the classes,
     delegating to [Subgraph_iso] for the decision form;
   - decomposition DP: per-bag tables of locally consistent
     assignments, weights merged bottom-up over a rooted tree
     decomposition of H;
   - CSP: the reduction module's encoding through [Lb_csp.Solver]. *)

module Bitset = Lb_util.Bitset
module Exec = Lb_util.Exec
module Budget = Lb_util.Budget
module Metrics = Lb_util.Metrics
module Td = Tree_decomposition

type t = { pattern : Graph.t; host : Graph.t; colors : int array }

let make ~pattern ~host ~colors =
  let k = Graph.vertex_count pattern in
  if Array.length colors <> Graph.vertex_count host then
    invalid_arg "Colsub.make: one color per host vertex required";
  Array.iter
    (fun c ->
      if c < 0 || c >= k then
        invalid_arg "Colsub.make: color out of pattern range")
    colors;
  { pattern; host; colors = Array.copy colors }

let pattern t = t.pattern
let host t = t.host
let colors t = Array.copy t.colors

let classes t =
  let k = Graph.vertex_count t.pattern in
  let buckets = Array.make k [] in
  for v = Array.length t.colors - 1 downto 0 do
    let c = t.colors.(v) in
    buckets.(c) <- v :: buckets.(c)
  done;
  Array.map Array.of_list buckets

let verify t f =
  Array.length f = Graph.vertex_count t.pattern
  && Array.for_all (fun img -> img >= 0 && img < Array.length t.colors) f
  && (let ok = ref true in
      Array.iteri (fun v img -> if t.colors.(img) <> v then ok := false) f;
      !ok)
  &&
  let ok = ref true in
  Graph.iter_edges
    (fun u v -> if not (Graph.has_edge t.host f.(u) f.(v)) then ok := false)
    t.pattern;
  !ok

(* -------- backtracking route -------- *)

let find_backtracking ?ctx t =
  Subgraph_iso.find ?ctx t.pattern t.host (classes t)

let charge_bt (ex : Exec.t) =
  (match ex.Exec.budget with Some b -> Budget.tick b | None -> ());
  Metrics.incr ex.Exec.metrics "colsub.bt.nodes"

let count_backtracking ?(ctx = Exec.default) t =
  let k = Graph.vertex_count t.pattern in
  if k = 0 then 1
  else begin
    let ng = Graph.vertex_count t.host in
    let class_sets =
      Array.map (fun c -> Bitset.of_list ng (Array.to_list c)) (classes t)
    in
    let order = Homomorphism.connectivity_order t.pattern in
    let image = Array.make k (-1) in
    let total = ref 0 in
    let rec go i =
      if i = k then incr total
      else begin
        let v = order.(i) in
        let cands = Bitset.copy class_sets.(v) in
        Bitset.iter
          (fun u ->
            if image.(u) >= 0 then
              Bitset.inter_into ~into:cands (Graph.neighbors t.host image.(u)))
          (Graph.neighbors t.pattern v);
        Bitset.iter
          (fun c ->
            charge_bt ctx;
            image.(v) <- c;
            go (i + 1);
            image.(v) <- -1)
          cands
      end
    in
    go 0;
    !total
  end

(* -------- tree-decomposition dynamic program -------- *)

let default_decomposition t =
  let _, order, _ = Treewidth.best_effort t.pattern in
  Td.of_elimination_order t.pattern order

(* Per-bag table: the locally consistent assignments (rows, aligned
   with the sorted bag) and, per row, the number of extensions to the
   subtree below (weights).  Children are merged through hash tables
   keyed by the parent/child interface values, so each bag costs
   O(rows-in-bag * children), and the row enumeration is charged one
   budget tick + one [colsub.dp.rows] per candidate - the counter
   whose growth tracks n^{tw(H)+1}. *)
type bag_table = {
  vars : int array;  (* the bag, sorted ascending *)
  rows : int array array;  (* kept rows, weight > 0 *)
  weights : int array;
  groups : (string, int list) Hashtbl.t;
      (* parent-interface key -> row indices (root: single "" key) *)
  iface : int array;  (* positions (in [vars]) of the parent interface *)
}

let iface_key row (iface : int array) =
  String.concat "," (Array.to_list (Array.map (fun i -> string_of_int row.(i)) iface))

let positions_of (vars : int array) (subset : int array) =
  Array.map
    (fun v ->
      let rec search lo hi =
        if lo >= hi then invalid_arg "Colsub: interface var missing"
        else
          let mid = (lo + hi) / 2 in
          if vars.(mid) = v then mid
          else if vars.(mid) < v then search (mid + 1) hi
          else search lo mid
      in
      search 0 (Array.length vars))
    subset

let run_dp ex t td =
  (match Td.verify td t.pattern with
  | Ok () -> ()
  | Error _ ->
      invalid_arg "Colsub: decomposition does not decompose the pattern");
  let bags = Td.bags td in
  let nb = Array.length bags in
  let parent, children, preorder = Td.rooted td in
  let cls = classes t in
  (* In-bag pattern edges, as position pairs of the sorted bag. *)
  let bag_edges =
    Array.map
      (fun bag ->
        let m = Array.length bag in
        let acc = ref [] in
        for i = 0 to m - 1 do
          for j = i + 1 to m - 1 do
            if Graph.has_edge t.pattern bag.(i) bag.(j) then
              acc := (i, j) :: !acc
          done
        done;
        !acc)
      bags
  in
  let tables = Array.make nb None in
  (* children before parents *)
  for idx = nb - 1 downto 0 do
    let b = preorder.(idx) in
    Metrics.incr ex.Exec.metrics "colsub.dp.bags";
    let vars = bags.(b) in
    let m = Array.length vars in
    let edges = bag_edges.(b) in
    let child_tables =
      List.map
        (fun c ->
          match tables.(c) with
          | Some tb ->
              (* child's per-key sums, for the product below *)
              let sums = Hashtbl.create 64 in
              Hashtbl.iter
                (fun key idxs ->
                  let s =
                    List.fold_left (fun acc i -> acc + tb.weights.(i)) 0 idxs
                  in
                  Hashtbl.replace sums key s)
                tb.groups;
              (tb, sums, positions_of vars (Array.map (fun p -> tb.vars.(p)) tb.iface))
          | None -> assert false)
        children.(b)
    in
    let rows = ref [] and weights = ref [] and kept = ref 0 in
    let row = Array.make m (-1) in
    let rec enum pos =
      if pos = m then begin
        (match ex.Exec.budget with Some bu -> Budget.tick bu | None -> ());
        Metrics.incr ex.Exec.metrics "colsub.dp.rows";
        if List.for_all
             (fun (i, j) -> Graph.has_edge t.host row.(i) row.(j))
             edges
        then begin
          let w =
            List.fold_left
              (fun acc (_, sums, parent_iface_pos) ->
                if acc = 0 then 0
                else
                  let key = iface_key row parent_iface_pos in
                  match Hashtbl.find_opt sums key with
                  | Some s -> acc * s
                  | None -> 0)
              1 child_tables
          in
          if w > 0 then begin
            rows := Array.copy row :: !rows;
            weights := w :: !weights;
            incr kept
          end
        end
      end
      else
        Array.iter
          (fun hv ->
            row.(pos) <- hv;
            enum (pos + 1))
          cls.(vars.(pos))
    in
    (* A candidate row assigns every bag variable from its class; the
       whole enumeration is skipped when some class is empty. *)
    enum 0;
    let rows = Array.of_list (List.rev !rows) in
    let weights = Array.of_list (List.rev !weights) in
    let iface =
      if parent.(b) < 0 then [||]
      else
        positions_of vars
          (Array.of_seq
             (Seq.filter (fun v -> Td.bag_contains bags.(parent.(b)) v)
                (Array.to_seq vars)))
    in
    let groups = Hashtbl.create (max 16 !kept) in
    Array.iteri
      (fun i row ->
        let key = iface_key row iface in
        let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
        Hashtbl.replace groups key (i :: prev))
      rows;
    tables.(b) <- Some { vars; rows; weights; groups; iface }
  done;
  (bags, parent, children, preorder, tables)

let count_decomposed ?(ctx = Exec.default) ?decomposition t =
  if Graph.vertex_count t.pattern = 0 then 1
  else begin
    let td =
      match decomposition with Some d -> d | None -> default_decomposition t
    in
    let _, _, _, preorder, tables = run_dp ctx t td in
    let root = preorder.(0) in
    match tables.(root) with
    | Some tb -> Array.fold_left ( + ) 0 tb.weights
    | None -> 0
  end

let find_decomposed ?(ctx = Exec.default) ?decomposition t =
  let k = Graph.vertex_count t.pattern in
  if k = 0 then Some [||]
  else begin
    let td =
      match decomposition with Some d -> d | None -> default_decomposition t
    in
    let _, _, children, preorder, tables = run_dp ctx t td in
    let root = preorder.(0) in
    let tb_of b = match tables.(b) with Some tb -> tb | None -> assert false in
    let image = Array.make k (-1) in
    let assign tb i =
      Array.iteri (fun pos v -> image.(v) <- tb.rows.(i).(pos)) tb.vars
    in
    (* Descend: any stored row has weight > 0, hence extends below. *)
    let rec descend b i =
      let tb = tb_of b in
      assign tb i;
      List.iter
        (fun c ->
          let ctb = tb_of c in
          (* key of the child row under the parent/child interface,
             read off the already-assigned image *)
          let key =
            String.concat ","
              (Array.to_list
                 (Array.map
                    (fun p -> string_of_int image.(ctb.vars.(p)))
                    ctb.iface))
          in
          match Hashtbl.find_opt ctb.groups key with
          | Some (j :: _) -> descend c j
          | Some [] | None -> assert false)
        children.(b)
    in
    let rtb = tb_of root in
    if Array.length rtb.rows = 0 then None
    else begin
      descend root 0;
      Some image
    end
  end
