(* Join evaluation through a (fractional hypertree) decomposition: the
   composition of the paper's Section 3 and Section 4 machinery.

   Given a tree decomposition of the query hypergraph:
   1. materialize each bag with a worst-case-optimal join of the atoms
      intersecting it (each atom projected to the bag).  Theorem 3.1
      bounds bag B by N^{rho*(B)} - the fractional hypertree width
      controls the blowup;
   2. the bags, viewed as fresh relations, form an ACYCLIC query (their
      hypergraph has the decomposition tree as a join tree), so
      Yannakakis finishes in O(bags + output).

   Every atom's scope is a clique of the primal graph and hence inside
   some bag, where its constraint is enforced in full; joining the bag
   relations therefore yields exactly the answer.

   This is how bounded-fhw classes of cyclic queries are evaluated in
   polynomial time - strictly more than bounded treewidth, strictly more
   than acyclicity.  The serve-tier planner routes through [race] when
   fhw beats rho*; [~compile] reuses the compiled loop-nest tier for
   the per-bag WCOJ (bit-identical to the interpreted path).

   [race] is the beyond-worst-case refinement: fhw < rho* is a
   statement about worst-case data, and on ordinary data the flat WCOJ
   usually finishes long before the bags are built.  So the flat loop
   nest runs first under B = sum over the bags of N^{rho*(bag)} ticks -
   the decomposition's own worst-case bag bound - and the bags are
   materialized only when that budget runs out.  Flat work is capped
   at B = O(#bags * N^fhw), so the N^fhw guarantee holds within a
   factor of about 2; ticks are deterministic, so the verdict is too. *)

module Td = Lb_graph.Tree_decomposition
module Exec = Lb_util.Exec
module Metrics = Lb_util.Metrics
module Budget = Lb_util.Budget

type stats = {
  width : int; (* bag size - 1 of the decomposition used *)
  max_bag_tuples : int;
}

(* Decompose the query's primal graph. *)
let default_decomposition (q : Query.t) =
  let g = Query.primal_graph q in
  let _, order, _ = Lb_graph.Treewidth.best_effort g in
  Td.of_elimination_order g order

(* WCOJ on the temporary per-bag database: the compiled loop nest when
   asked (same answers, counters and ticks as interpreted Generic
   Join), the interpreter otherwise.  Lowering cannot refuse a bag
   query: it is lowered against its own attribute order, and every
   attribute comes from one of its atoms. *)
let wcoj ?ctx ~compile db q =
  if compile then
    Compile.answer ?ctx (Compile.lower ~engine:Compile.Generic q) db q
  else Generic_join.answer ?ctx db q

let bag_relation ?ctx ?(compile = false) db (q : Query.t) attrs_of_query bag =
  (* attributes of this bag *)
  let bag_attrs = Array.map (fun v -> attrs_of_query.(v)) bag in
  let in_bag a = Array.exists (( = ) a) bag_attrs in
  (* atoms intersecting the bag, projected to it *)
  let parts =
    List.filter_map
      (fun atom ->
        let bound = Query.bind_atom db atom in
        let keep =
          Array.to_list (Relation.attrs bound) |> List.filter in_bag
        in
        if keep = [] then None
        else Some (Relation.project bound (Array.of_list keep)))
      q
  in
  (* worst-case-optimal join of the parts via Generic Join on a
     temporary database; attributes not covered by any part cannot occur
     (the bag machinery only creates bags from primal cliques, whose
     vertices all lie in atoms) *)
  match parts with
  | [] -> Relation.make bag_attrs [ Array.map (fun _ -> 0) bag_attrs ]
  | _ ->
      let tmp_db, tmp_q, _ =
        List.fold_left
          (fun (db', q', i) rel ->
            let name = Printf.sprintf "__bag%d" i in
            ( Database.add db' name rel,
              Query.atom name (Relation.attrs rel) :: q',
              i + 1 ))
          (Database.empty, [], 0) parts
      in
      wcoj ?ctx ~compile tmp_db (List.rev tmp_q)

(* Materialize every bag, recording the deterministic per-bag counters
   ([decomposed_join.bags] / [decomposed_join.bag_tuples]). *)
let materialize_bags ex ~compile db q attrs bags =
  Array.map
    (fun bag ->
      let rel = bag_relation ~ctx:ex ~compile db q attrs bag in
      Metrics.incr ex.Exec.metrics "decomposed_join.bags";
      Metrics.add ex.Exec.metrics "decomposed_join.bag_tuples"
        (Relation.cardinality rel);
      rel)
    bags

let bag_query bag_rels =
  let bag_db, bag_q, _ =
    Array.fold_left
      (fun (db', q', i) rel ->
        let name = Printf.sprintf "__B%d" i in
        ( Database.add db' name rel,
          Query.atom name (Relation.attrs rel) :: q',
          i + 1 ))
      (Database.empty, [], 0) bag_rels
  in
  (bag_db, List.rev bag_q)

let answer ?(ctx = Exec.default) ?(compile = false) ?decomposition db
    (q : Query.t) =
  match q with
  | [] -> (Relation.make [||] [ [||] ], { width = -1; max_bag_tuples = 1 })
  | _ ->
      let td =
        match decomposition with
        | Some t -> t
        | None -> default_decomposition q
      in
      let attrs = Query.attributes q in
      let bags = Td.bags td in
      let bag_rels = materialize_bags ctx ~compile db q attrs bags in
      let max_bag =
        Array.fold_left (fun acc r -> max acc (Relation.cardinality r)) 0 bag_rels
      in
      (* acyclic query over the bags *)
      let bag_db, bag_q = bag_query bag_rels in
      let result, _ = Yannakakis.answer ~ctx bag_db bag_q in
      (result, { width = Td.width td; max_bag_tuples = max_bag })

(* Boolean variant: bag materialization + the semijoin-only reducer. *)
let boolean_answer ?(ctx = Exec.default) ?(compile = false) ?decomposition db
    (q : Query.t) =
  match q with
  | [] -> true
  | _ ->
      let td =
        match decomposition with
        | Some t -> t
        | None -> default_decomposition q
      in
      let attrs = Query.attributes q in
      let bag_rels = materialize_bags ctx ~compile db q attrs (Td.bags td) in
      let bag_db, bag_q = bag_query bag_rels in
      Yannakakis.boolean_answer ~ctx bag_db bag_q

(* --- the evidence race --- *)

type verdict = Flat | Bags of stats

let race_budget td db (q : Query.t) =
  let n =
    List.fold_left
      (fun acc (a : Query.atom) ->
        max acc (Relation.cardinality (Database.find db a.Query.rel)))
      1 q
  in
  let h = Query.hypergraph q in
  let total =
    Array.fold_left
      (fun acc bag ->
        acc +. (Float.of_int n ** Lb_hypergraph.Fhw.bag_cover h bag))
      0.0 (Td.bags td)
  in
  if total >= Float.of_int max_int then max_int
  else max 1 (Float.to_int (Float.round total))

let race ?(ctx = Exec.default) ?decomposition db (q : Query.t) =
  match q with
  | [] -> (fst (answer db q), Flat)
  | _ ->
      let td =
        match decomposition with
        | Some t -> t
        | None -> default_decomposition q
      in
      let b = race_budget td db q in
      Metrics.add ctx.Exec.metrics "decomposed.race.budget" b;
      (* the flat kernel choice of the planner's flat branch *)
      let engine =
        if
          List.for_all
            (fun (a : Query.atom) -> Array.length a.Query.attrs <= 2)
            q
        then Compile.Leapfrog
        else Compile.Generic
      in
      (* sequential, so the verdict cannot depend on the pool *)
      let child = Budget.child ~ticks:b ctx.Exec.budget in
      let flat_ctx = { ctx with Exec.pool = None; budget = Some child } in
      match Compile.answer ~ctx:flat_ctx (Compile.lower ~engine q) db q with
      | rel ->
          Metrics.incr ctx.Exec.metrics "decomposed.race.flat";
          (rel, Flat)
      | exception Budget.Budget_exhausted _ when Budget.used child >= b ->
          Metrics.incr ctx.Exec.metrics "decomposed.race.bags";
          let rel, stats = answer ~ctx ~compile:true ~decomposition:td db q in
          (rel, Bags stats)
