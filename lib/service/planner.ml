(* The structure-aware planner.  Decision procedure:

     acyclic              -> Yannakakis   (O(input + output), exponent 1)
     cyclic, fhw < rho*   -> Decomposed   (raced: flat WCOJ under the tick
                                           budget B = sum over bags of
                                           N^{rho*(bag)}; only if B runs
                                           out, bag materialization at
                                           N^fhw + Yannakakis over the
                                           join tree)
     cyclic, arity <= 2   -> Leapfrog     (graph-shaped: sorted streams win)
     cyclic, arity  > 2   -> Generic_join (columnar tries at any arity)

   Both flat WCOJ choices run at the AGM exponent rho*; the greedy
   binary plan's max prefix exponent is >= rho* by construction (the
   last prefix is the whole query), so on cyclic queries (every one
   has >= 3 atoms) a WCOJ engine is never predicted to lose.  The decomposition
   route refines this further: a fractional hypertree decomposition
   (computed via the lb_lp simplex per bag) caps every bag at
   N^{rho*(bag)} <= N^{fhw}, so whenever fhw < rho* the decomposition
   strictly beats the flat engines on worst-case data - the
   Fan-Koutris / Ngo upper-bound recipe the paper's Section 3-4
   machinery composes into.  Worst-case data is the exception, so a
   planner-chosen decomposition route is raced on evidence
   ([Lb_relalg.Decomposed_join.race]): the flat loop nest gets the
   bags' own worst-case bound as its tick budget, which keeps the
   N^fhw guarantee within a factor of about 2.  A forced
   ["engine":"decomposed"] always materializes the bags. *)

module Q = Lb_relalg.Query
module Cost = Lb_relalg.Cost
module Fhw = Lb_hypergraph.Fhw
module Td = Lb_graph.Tree_decomposition

type engine = Yannakakis | Generic_join | Leapfrog | Binary_hash | Decomposed

let engine_name = function
  | Yannakakis -> "yannakakis"
  | Generic_join -> "generic_join"
  | Leapfrog -> "leapfrog"
  | Binary_hash -> "binary_hash"
  | Decomposed -> "decomposed"

let all_engines = [ Yannakakis; Generic_join; Leapfrog; Binary_hash; Decomposed ]

let engine_of_name s =
  match
    List.find_opt (fun e -> engine_name e = String.lowercase_ascii s) all_engines
  with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown engine %S (expected one of: %s)" s
           (String.concat ", " (List.map engine_name all_engines)))

type plan = {
  engine : engine;
  forced : bool;
  acyclic : bool;
  rho_star : float option;
  fhw : float option;
  predicted_exponent : float;
  atom_order : int list option;
  decomposition : Td.t option;
  compiled : Lb_relalg.Compile.ir option;
  explanation : string list;
}

let advisor_strategy = function
  | Yannakakis -> Lowerbounds.Advisor.Yannakakis
  | Generic_join | Leapfrog | Decomposed -> Lowerbounds.Advisor.Worst_case_optimal
  | Binary_hash -> Lowerbounds.Advisor.Binary_plan

let max_arity (q : Q.t) =
  List.fold_left (fun acc (a : Q.atom) -> max acc (Array.length a.attrs)) 0 q

(* The AGM statements of the analysis, one-lined, so explanations carry
   the same verdicts `lbt analyze` prints. *)
let bound_statements (q : Q.t) =
  let analysis = Lowerbounds.Bounds.analyze_query q in
  List.map Lowerbounds.Report.statement_to_string
    analysis.Lowerbounds.Bounds.statements

(* The compiled tier's kernel for a WCOJ engine; [None] for the
   engines that do not run a loop nest. *)
let compile_engine = function
  | Generic_join -> Some Lb_relalg.Compile.Generic
  | Leapfrog -> Some Lb_relalg.Compile.Leapfrog
  | Yannakakis | Binary_hash | Decomposed -> None

(* Lower the schema half of a WCOJ plan once, at planning time: the IR
   depends only on the query text and the default variable order, so it
   rides in the plan cache and is re-resolved against fresh tries per
   execution.  [lower] cannot fail on a parsed query: every attribute
   of the default order comes from an atom.  The decomposition route
   compiles per bag at execution time ([Decomposed_join]'s
   [~compile]), so it carries no top-level IR. *)
let lower_ir engine (q : Q.t) =
  Option.map
    (fun ce -> Lb_relalg.Compile.lower ~engine:ce q)
    (compile_engine engine)

let mk ?atom_order ?compiled ?fhw ?decomposition ~forced ~acyclic ~rho ~exponent
    ~why engine q =
  {
    engine;
    forced;
    acyclic;
    rho_star = rho;
    fhw;
    predicted_exponent = exponent;
    atom_order;
    decomposition;
    compiled;
    explanation =
      (Printf.sprintf "strategy: %s [%s]" (engine_name engine)
         (Lowerbounds.Advisor.strategy_name (advisor_strategy engine))
      :: why)
      @ bound_statements q;
  }

let wcoj_exponent_or_atoms (q : Q.t) =
  match Cost.wcoj_exponent q with
  | Some r -> (Some r, r)
  (* rho* undefined only on degenerate hypergraphs; fall back to the
     trivial exponent |atoms| (a full cross product). *)
  | None -> (None, float_of_int (List.length q))

(* fhw and the realizing decomposition, for the shapes where a
   decomposition route could exist (cyclic, >= 3 atoms - anything else
   already has an exponent-1 or single-join plan).  Exact
   elimination-order search up to 8 attributes, greedy beyond; the
   per-bag covers come from the lb_lp simplex. *)
let fhw_info ~acyclic (q : Q.t) =
  if acyclic || List.length q < 3 then None
  else
    match Fhw.decomposition ~max_n:8 (Q.hypergraph q) with
    | w, td when w < infinity -> Some (w, td)
    | _ -> None
    | exception Invalid_argument _ -> None

(* The fhw-vs-rho* route verdict, pinned by the explain golden test.
   Decomposition wins only with a real margin - ties go to the flat
   engines, whose constant factors are lower. *)
let margin = 1e-6

let decomposition_wins ~info ~rho =
  match (info, rho) with
  | Some (w, _), Some r -> w < r -. margin
  | _ -> false

let flat_route_line ~forced ~info ~rho =
  match (info, rho) with
  | Some (w, _), Some r ->
      if w < r -. margin then
        [
          Printf.sprintf
            "route: flat%s; a decomposition would cap bags at N^%.3f (fhw) \
             vs N^%.3f (rho*)"
            (if forced then " (forced engine)" else "")
            w r;
        ]
      else
        [
          Printf.sprintf
            "route: flat (fhw %.3f >= rho* %.3f: a decomposition cannot \
             beat the AGM exponent)"
            w r;
        ]
  | _ -> []

let build ?(compile = true) ?info ~forced engine db (q : Q.t) =
  let acyclic = Lb_relalg.Yannakakis.is_acyclic q in
  let info = match info with Some i -> i | None -> fhw_info ~acyclic q in
  let fhw = Option.map fst info in
  let rho, wcoj_exp = wcoj_exponent_or_atoms q in
  let compiled = if compile then lower_ir engine q else None in
  match engine with
  | Yannakakis ->
      mk ~forced ~acyclic ~rho ?fhw ~exponent:1.0
        ~why:
          [
            "query is alpha-acyclic: semijoin reduction caps every \
             intermediate by the output (O(input + output))";
          ]
        Yannakakis q
  | Generic_join ->
      mk ?compiled ~forced ~acyclic ~rho ?fhw ~exponent:wcoj_exp
        ~why:
          (Printf.sprintf
             "worst-case optimal: Generic Join runs in O(N^%.3f), the AGM \
              bound (Theorem 3.3)"
             wcoj_exp
          :: flat_route_line ~forced ~info ~rho)
        Generic_join q
  | Leapfrog ->
      mk ?compiled ~forced ~acyclic ~rho ?fhw ~exponent:wcoj_exp
        ~why:
          (Printf.sprintf
             "worst-case optimal: Leapfrog Triejoin runs in O(N^%.3f), the \
              AGM bound (Theorem 3.3); all atoms are binary, so sorted-key \
              leapfrogging applies directly"
             wcoj_exp
          :: flat_route_line ~forced ~info ~rho)
        Leapfrog q
  | Binary_hash ->
      let order, exponent =
        match Cost.binary_exponent db q with
        | Some (order, e) -> (Some order, e)
        | None -> (None, wcoj_exp)
      in
      let why =
        if List.length q <= 2 then
          [ "at most two atoms: a single hash join is already optimal" ]
        else
          [
            Printf.sprintf
              "left-deep hash joins in greedy order; intermediates can reach \
               N^%.3f on worst-case data (prefix AGM bound, Theorem 3.2)"
              exponent;
          ]
      in
      mk ?atom_order:order ~forced ~acyclic ~rho ?fhw ~exponent ~why Binary_hash
        q
  | Decomposed ->
      (* Forced on a shape the router skips (acyclic / < 3 atoms):
         compute the decomposition here; it is still correct, just not
         predicted to win. *)
      let w, td =
        match info with
        | Some (w, td) -> (w, td)
        | None -> Fhw.decomposition ~max_n:8 (Q.hypergraph q)
      in
      let rho_str =
        match rho with Some r -> Printf.sprintf "%.3f" r | None -> "undefined"
      in
      let bags_line =
        Printf.sprintf
          "materialize %d bags by worst-case-optimal join, each capped at \
           N^%.3f (Theorem 3.1), then Yannakakis over the join tree"
          (Td.bag_count td) w
      in
      let why =
        if forced then
          [
            Printf.sprintf "route: decomposition (fhw %.3f vs rho* %s): %s" w
              rho_str bags_line;
          ]
        else
          let h = Q.hypergraph q in
          let terms =
            Array.to_list (Td.bags td)
            |> List.map (fun bag ->
                   Printf.sprintf "N^%.3f" (Fhw.bag_cover h bag))
          in
          [
            Printf.sprintf
              "route: decomposition, raced (fhw %.3f vs rho* %s): flat %s \
               first under a tick budget B = sum over the bags of \
               N^{rho*(bag)} = %s, N the largest relation"
              w rho_str
              (if max_arity q <= 2 then "leapfrog" else "generic join")
              (String.concat " + " terms);
            Printf.sprintf
              "fallback when B runs out: %s; total work O(B + N^%.3f)"
              bags_line w;
          ]
      in
      mk ~forced ~acyclic ~rho ~fhw:w ~decomposition:td ~exponent:w ~why
        Decomposed q

let choose_engine ~info ~rho (q : Q.t) =
  if Lb_relalg.Yannakakis.is_acyclic q then Yannakakis
  else if decomposition_wins ~info ~rho then Decomposed
  else if max_arity q <= 2 then Leapfrog
  else Generic_join

let choose ?compile db q =
  let acyclic = Lb_relalg.Yannakakis.is_acyclic q in
  let info = fhw_info ~acyclic q in
  let rho = Cost.wcoj_exponent q in
  build ?compile ~info ~forced:false (choose_engine ~info ~rho q) db q

let plan_for ?compile engine db q =
  if engine = Yannakakis && not (Lb_relalg.Yannakakis.is_acyclic q) then
    Error "yannakakis requires an alpha-acyclic query"
  else if engine = Decomposed && q = [] then
    Error "decomposed requires a non-empty query"
  else Ok (build ?compile ~forced:true engine db q)
