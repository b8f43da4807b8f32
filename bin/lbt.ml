(* lbt - the lower-bounds toolkit CLI.

   Subcommands:
     analyze    structural analysis + bound statements for a query
     worstcase  build the Theorem 3.2 worst-case database and measure it
     evaluate   run the advisor on a random database for a query
     classify   Schaefer-classify a Boolean relation given by tuples
     serve      long-lived query service over a line-delimited JSON protocol

   Exit codes are uniform across subcommands: 0 success, 2 invalid
   input (query/DIMACS parse errors), 3 resource-budget exhaustion,
   1 other failures. *)

open Cmdliner

module Q = Lb_relalg.Query
module Json = Lb_service.Json

(* The one shared encoder behind every subcommand's --json output: one
   JSON object per run on stdout, built from the service's Json layer
   and its plan/analysis/counter encoders, so the CLI and `lbt serve`
   speak the same vocabulary. *)
let json_print fields = print_endline (Json.to_string (Json.Obj fields))

let counters_json metrics =
  Lb_service.Protocol.counters_to_json (Lb_util.Metrics.counters metrics)

let json_flag =
  let doc =
    "Emit one machine-readable JSON object (the service's encoding) \
     instead of the human-readable report."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let query_arg =
  let doc = "Join query, e.g. \"R(a,b), S(b,c), T(a,c)\"." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

(* The one place query parsing and its error handling happen: every
   query-taking subcommand reports parse errors identically and exits
   2 (invalid input). *)
let with_query qtext f =
  match Q.parse qtext with
  | exception Q.Parse_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      2
  | q -> f q

(* --- analyze --- *)

let analyze_cmd =
  let run qtext json =
    with_query qtext (fun q ->
        let analysis = Lowerbounds.Bounds.analyze_query q in
        if json then
          json_print
            [
              ("query", Json.String (Q.to_string q));
              ("analysis", Lb_service.Protocol.analysis_to_json analysis);
            ]
        else begin
          Printf.printf "query: %s\n\n" (Q.to_string q);
          Format.printf "%a@." Lowerbounds.Report.pp_analysis analysis
        end;
        0)
  in
  let doc = "Structural analysis and bound statements for a join query." in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ query_arg $ json_flag)

(* --- worstcase --- *)

let worstcase_cmd =
  let n_arg =
    let doc = "Target relation size N." in
    Arg.(value & opt int 256 & info [ "n" ] ~docv:"N" ~doc)
  in
  let run qtext n =
    with_query qtext (fun q ->
        match Lb_relalg.Agm.rho_star q with
        | None ->
            Printf.eprintf "rho* undefined: some attribute is in no atom\n";
            1
        | Some rho ->
            let db = Lb_relalg.Agm.worst_case_database q ~n in
            let nmax = Lb_relalg.Database.max_cardinality db in
            let answer = Lb_relalg.Generic_join.count db q in
            Printf.printf "rho* = %.4f\n" rho;
            Printf.printf "largest relation: %d tuples (target %d)\n" nmax n;
            Printf.printf "answer size: %d\n" answer;
            Printf.printf "AGM bound N^rho* = %.0f\n"
              (Float.of_int nmax ** rho);
            Printf.printf "measured exponent log_N |answer| = %.4f\n"
              (if nmax > 1 then
                 log (float_of_int (max answer 1)) /. log (float_of_int nmax)
               else 0.0);
            0)
  in
  let doc =
    "Build the Theorem 3.2 worst-case database for a query and measure \
     its answer against the AGM bound."
  in
  Cmd.v (Cmd.info "worstcase" ~doc) Term.(const run $ query_arg $ n_arg)

(* --- evaluate --- *)

let evaluate_cmd =
  let tuples_arg =
    let doc = "Tuples per relation in the random database." in
    Arg.(value & opt int 500 & info [ "tuples" ] ~doc)
  in
  let domain_arg =
    let doc = "Value domain size of the random database." in
    Arg.(value & opt int 50 & info [ "domain" ] ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed." in
    Arg.(value & opt int 1 & info [ "seed" ] ~doc)
  in
  let run qtext tuples domain seed =
    with_query qtext (fun q ->
        let rng = Lb_util.Prng.create seed in
        let rels = Hashtbl.create 8 in
        List.iter
          (fun (a : Q.atom) ->
            if not (Hashtbl.mem rels a.Q.rel) then begin
              let width = Array.length a.Q.attrs in
              let tups =
                List.init tuples (fun _ ->
                    Array.init width (fun _ -> Lb_util.Prng.int rng domain))
              in
              Hashtbl.replace rels a.Q.rel (Lb_relalg.Relation.make a.Q.attrs tups)
            end)
          q;
        let db =
          Hashtbl.fold
            (fun name rel acc -> Lb_relalg.Database.add acc name rel)
            rels Lb_relalg.Database.empty
        in
        let analysis, outcome = Lowerbounds.Advisor.evaluate db q in
        Format.printf "%a@.@.%a@." Lowerbounds.Report.pp_analysis analysis
          Lowerbounds.Report.pp_outcome outcome;
        0)
  in
  let doc = "Evaluate a query on a random database with the advisor." in
  Cmd.v
    (Cmd.info "evaluate" ~doc)
    Term.(const run $ query_arg $ tuples_arg $ domain_arg $ seed_arg)

(* --- classify --- *)

let classify_cmd =
  let rel_arg =
    let doc =
      "Boolean relation as semicolon-separated tuples of 0/1, e.g. \
       \"01;10\" for XOR."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RELATION" ~doc)
  in
  let run text =
    let tuples = String.split_on_char ';' text in
    match tuples with
    | [] ->
        prerr_endline "empty relation";
        1
    | first :: _ ->
        let arity = String.length first in
        if arity = 0 || arity > 20 then begin
          prerr_endline "arity must be between 1 and 20";
          1
        end
        else begin
          let parse t =
            if String.length t <> arity then failwith "ragged tuples";
            let mask = ref 0 in
            String.iteri
              (fun i c ->
                match c with
                | '1' -> mask := !mask lor (1 lsl i)
                | '0' -> ()
                | _ -> failwith "tuples must be 0/1")
              t;
            !mask
          in
          match List.map parse tuples with
          | exception Failure msg ->
              Printf.eprintf "error: %s\n" msg;
              1
          | masks ->
              let r = Lb_sat.Schaefer.relation arity masks in
              let classes = Lb_sat.Schaefer.classify [ r ] in
              if classes = [] then
                print_endline
                  "no Schaefer class applies: CSP({R}) is NP-hard \
                   (Schaefer's dichotomy)"
              else begin
                Printf.printf "Schaefer classes: %s\n"
                  (String.concat ", "
                     (List.map Lb_sat.Schaefer.class_name classes));
                print_endline "CSP({R}) is polynomial-time solvable"
              end;
              0
        end
  in
  let doc = "Schaefer-classify a Boolean relation given by its tuples." in
  Cmd.v (Cmd.info "classify" ~doc) Term.(const run $ rel_arg)

(* --- minimize --- *)

let minimize_cmd =
  let run qtext =
    with_query qtext (fun q ->
        let m = Lb_csp.Cq.minimize q in
        Printf.printf "query:      %s\n" (Q.to_string q);
        Printf.printf "minimized:  %s\n" (Q.to_string m);
        let tw, _, _ = Lb_graph.Treewidth.best_effort (Q.primal_graph q) in
        Printf.printf "treewidth:  %d as written, %d after minimization\n" tw
          (Lb_csp.Cq.core_treewidth q);
        0)
  in
  let doc =
    "Minimize a Boolean conjunctive query (Chandra-Merlin core); the \
     core's treewidth governs evaluation (Thm 5.3)."
  in
  Cmd.v (Cmd.info "minimize" ~doc) Term.(const run $ query_arg)

(* --- fhw --- *)

let fhw_cmd =
  let run qtext =
    with_query qtext (fun q ->
        let h = Q.hypergraph q in
        let n = Lb_hypergraph.Hypergraph.vertex_count h in
        (match Lb_hypergraph.Cover.rho_star h with
        | Some rho -> Printf.printf "rho* (single-bag bound) = %.4f\n" rho
        | None -> print_endline "rho* undefined (uncovered attribute)");
        let w, exact =
          if n <= 9 then (fst (Lb_hypergraph.Fhw.exact h), true)
          else (fst (Lb_hypergraph.Fhw.heuristic_upper_bound h), false)
        in
        Printf.printf "fractional hypertree width %s %.4f\n"
          (if exact then "=" else "<=")
          w;
        Printf.printf
          "=> bags materializable at N^%.2f each; acyclic finish via \
           Yannakakis (Lb_relalg.Decomposed_join)\n"
          w;
        0)
  in
  let doc = "Fractional hypertree width of a query hypergraph." in
  Cmd.v (Cmd.info "fhw" ~doc) Term.(const run $ query_arg)

(* --- colsub: the colorful-subgraph workload --- *)

let colsub_cmd =
  let pattern_arg =
    let doc =
      "Pattern edges as \"u-v,u-v,...\" over vertices 0..k-1 (k inferred \
       from the colors and endpoints, or forced with --k)."
    in
    Arg.(
      required
      & opt (some string) None
      & info [ "pattern" ] ~docv:"EDGES" ~doc)
  in
  let host_arg =
    let doc =
      "Host edges as \"u-v,u-v,...\" over vertices 0..n-1, where n is \
       the number of colors given."
    in
    Arg.(value & opt string "" & info [ "host" ] ~docv:"EDGES" ~doc)
  in
  let colors_arg =
    let doc =
      "Comma-separated colors: position i is the pattern vertex host \
       vertex i may represent."
    in
    Arg.(
      required
      & opt (some string) None
      & info [ "colors" ] ~docv:"C0,C1,..." ~doc)
  in
  let k_arg =
    let doc =
      "Pattern vertex count (for isolated pattern vertices beyond every \
       edge endpoint and color)."
    in
    Arg.(value & opt (some int) None & info [ "k" ] ~docv:"K" ~doc)
  in
  let method_arg =
    let doc =
      "Evaluation route: $(b,backtracking) (candidate-intersection \
       search, ~n^k), $(b,csp) (binary CSP through Lb_csp.Solver), \
       $(b,decomposition) (tree-decomposition DP, ~n^{tw(H)+1}), or \
       $(b,auto) (decomposition)."
    in
    Arg.(
      value
      & opt
          (Arg.enum
             [
               ("auto", `Auto);
               ("backtracking", `Backtracking);
               ("csp", `Csp);
               ("decomposition", `Decomposition);
             ])
          `Auto
      & info [ "method" ] ~docv:"METHOD" ~doc)
  in
  let count_arg =
    let doc = "Count all colorful embeddings instead of finding one." in
    Arg.(value & flag & info [ "count" ] ~doc)
  in
  let timeout_arg =
    let doc = "Wall-clock budget in milliseconds (exit 3 on exhaustion)." in
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let max_ticks_arg =
    let doc = "Deterministic tick budget (exit 3 on exhaustion)." in
    Arg.(value & opt (some int) None & info [ "max-ticks" ] ~docv:"N" ~doc)
  in
  let parse_edges what s =
    let s = String.trim s in
    if s = "" then []
    else
      String.split_on_char ',' s
      |> List.map (fun e ->
             match String.split_on_char '-' (String.trim e) with
             | [ u; v ] -> (
                 match
                   (int_of_string_opt (String.trim u),
                    int_of_string_opt (String.trim v))
                 with
                 | Some u, Some v -> (u, v)
                 | _ ->
                     Printf.ksprintf failwith "%s: bad edge %S (want U-V)"
                       what e
                 )
             | _ ->
                 Printf.ksprintf failwith "%s: bad edge %S (want U-V)" what e)
  in
  let parse_colors s =
    String.split_on_char ',' (String.trim s)
    |> List.map (fun c ->
           match int_of_string_opt (String.trim c) with
           | Some c -> c
           | None -> Printf.ksprintf failwith "colors: bad entry %S" c)
  in
  let run pattern host colors k meth count timeout_ms max_ticks json =
    match
      let pattern_edges = parse_edges "pattern" pattern in
      let host_edges = parse_edges "host" host in
      let colors = parse_colors colors in
      (pattern_edges, host_edges, colors)
    with
    | exception Failure msg ->
        Printf.eprintf "error: %s\n" msg;
        2
    | pattern_edges, host_edges, colors -> (
        let inferred_k =
          List.fold_left
            (fun acc (u, v) -> max acc (max u v + 1))
            (List.fold_left (fun acc c -> max acc (c + 1)) 0 colors)
            pattern_edges
        in
        let k = match k with Some k -> k | None -> inferred_k in
        match
          let pattern = Lb_graph.Graph.of_edges k pattern_edges in
          let host =
            Lb_graph.Graph.of_edges (List.length colors) host_edges
          in
          Lb_graph.Colsub.make ~pattern ~host
            ~colors:(Array.of_list colors)
        with
        | exception Invalid_argument msg ->
            Printf.eprintf "error: %s\n" msg;
            2
        | inst -> (
            let meth =
              match meth with `Auto -> `Decomposition | m -> m
            in
            let method_name =
              match meth with
              | `Backtracking -> "backtracking"
              | `Csp -> "csp"
              | `Decomposition | `Auto -> "decomposition"
            in
            let budget =
              match (max_ticks, timeout_ms) with
              | None, None -> None
              | ticks, ms ->
                  Some
                    (Lb_util.Budget.create ?ticks
                       ?seconds:
                         (Option.map (fun ms -> float_of_int ms /. 1000.) ms)
                       ())
            in
            let metrics = Lb_util.Metrics.create () in
            let ctx = Lb_util.Exec.make ?budget ~metrics () in
            let outcome =
              Lb_util.Budget.protect (fun () ->
                  if count then
                    `Count
                      (match meth with
                      | `Backtracking ->
                          Lb_graph.Colsub.count_backtracking ~ctx inst
                      | `Csp -> Lb_reductions.Colsub_to_csp.count ~ctx inst
                      | `Decomposition | `Auto ->
                          Lb_graph.Colsub.count_decomposed ~ctx inst)
                  else
                    `Witness
                      (match meth with
                      | `Backtracking ->
                          Lb_graph.Colsub.find_backtracking ~ctx inst
                      | `Csp -> Lb_reductions.Colsub_to_csp.find ~ctx inst
                      | `Decomposition | `Auto ->
                          Lb_graph.Colsub.find_decomposed ~ctx inst))
            in
            match outcome with
            | Lb_util.Budget.Exhausted e ->
                if json then
                  json_print
                    [
                      ("status", Json.String "timeout");
                      ("method", Json.String method_name);
                      ( "reason",
                        Json.String (Lb_util.Budget.describe e) );
                      ("counters", counters_json metrics);
                    ]
                else
                  Printf.printf "unknown: %s\n" (Lb_util.Budget.describe e);
                3
            | Lb_util.Budget.Done (`Count n) ->
                if json then
                  json_print
                    [
                      ("status", Json.String "ok");
                      ("method", Json.String method_name);
                      ("count", Json.Int n);
                      ("counters", counters_json metrics);
                    ]
                else Printf.printf "method: %s\ncount: %d\n" method_name n;
                0
            | Lb_util.Budget.Done (`Witness w) ->
                let witness_json =
                  match w with
                  | Some f ->
                      Json.List
                        (List.map (fun v -> Json.Int v) (Array.to_list f))
                  | None -> Json.Null
                in
                if json then
                  json_print
                    [
                      ("status", Json.String "ok");
                      ("method", Json.String method_name);
                      ("found", Json.Bool (w <> None));
                      ("witness", witness_json);
                      ("counters", counters_json metrics);
                    ]
                else begin
                  Printf.printf "method: %s\n" method_name;
                  match w with
                  | Some f ->
                      Printf.printf "found: %s\n"
                        (String.concat " "
                           (Array.to_list (Array.map string_of_int f)))
                  | None -> print_endline "no colorful embedding"
                end;
                0))
  in
  let doc =
    "Solve one ColSub(H) instance - the colorful-subgraph workload of \
     Marx's ETH bound - by backtracking, by CSP reduction, or by the \
     tree-decomposition DP whose exponent tracks tw(H) instead of k."
  in
  Cmd.v
    (Cmd.info "colsub" ~doc)
    Term.(
      const run $ pattern_arg $ host_arg $ colors_arg $ k_arg $ method_arg
      $ count_arg $ timeout_arg $ max_ticks_arg $ json_flag)

(* --- sat: solve a DIMACS file --- *)

let sat_cmd =
  let file_arg =
    let doc = "DIMACS CNF file ('-' for stdin)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let timeout_arg =
    let doc =
      "Wall-clock budget in seconds; when it expires the solver stops \
       cooperatively and the answer is reported as UNKNOWN (exit 3)."
    in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let metrics_arg =
    let doc = "Print run metrics (decisions, propagations, ...) as JSON." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let run file timeout show_metrics json =
    let read_all ic =
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf ic 4096
         done
       with End_of_file -> ());
      Buffer.contents buf
    in
    let text =
      if file = "-" then read_all stdin
      else begin
        let ic = open_in file in
        let s = read_all ic in
        close_in ic;
        s
      end
    in
    match Lb_sat.Cnf.parse_dimacs text with
    | exception Lb_sat.Cnf.Dimacs_error msg ->
        Printf.eprintf "DIMACS error: %s\n" msg;
        2
    | f -> (
        let comment fmt =
          Printf.ksprintf (fun s -> if not json then print_endline ("c " ^ s)) fmt
        in
        let widths =
          List.map Array.length (Lb_sat.Cnf.clauses f)
          |> List.fold_left max 0
        in
        comment "%d variables, %d clauses, max width %d"
          (Lb_sat.Cnf.nvars f)
          (Lb_sat.Cnf.clause_count f)
          widths;
        let budget =
          Option.map (fun s -> Lb_util.Budget.create ~seconds:s ()) timeout
        in
        let metrics =
          if show_metrics || json then Lb_util.Metrics.create ()
          else Lb_util.Metrics.disabled
        in
        let two_sat =
          widths <= 2
          && List.for_all (fun c -> Array.length c >= 1) (Lb_sat.Cnf.clauses f)
        in
        let answer =
          if two_sat then begin
            comment "dispatching to linear-time 2SAT";
            Lb_util.Budget.Done (Lb_sat.Two_sat.solve f)
          end
          else begin
            comment "dispatching to DPLL";
            Lb_util.Budget.protect (fun () ->
                Lb_sat.Dpll.solve
                  ~ctx:(Lb_util.Exec.make ?budget ~metrics ())
                  f)
          end
        in
        let emit_metrics () =
          if show_metrics && not json then
            Printf.printf "c metrics %s\n" (Lb_util.Metrics.to_json metrics)
        in
        let emit_json result fields =
          if json then
            json_print
              ([
                 ("op", Json.String "sat");
                 ("result", Json.String result);
                 ( "solver",
                   Json.String (if two_sat then "two_sat" else "dpll") );
               ]
              @ fields
              @ [ ("counters", counters_json metrics) ])
        in
        match answer with
        | Lb_util.Budget.Done (Some a) ->
            let lits =
              List.init (Array.length a) (fun v ->
                  if a.(v) then v + 1 else -(v + 1))
            in
            if json then
              emit_json "sat"
                [
                  ( "assignment",
                    Json.List (List.map (fun l -> Json.Int l) lits) );
                ]
            else begin
              print_endline "s SATISFIABLE";
              Printf.printf "v %s 0\n"
                (String.concat " " (List.map string_of_int lits))
            end;
            emit_metrics ();
            0
        | Lb_util.Budget.Done None ->
            if json then emit_json "unsat" []
            else print_endline "s UNSATISFIABLE";
            emit_metrics ();
            0
        | Lb_util.Budget.Exhausted e ->
            if json then
              emit_json "unknown"
                [ ("reason", Json.String (Lb_util.Budget.describe e)) ]
            else begin
              Printf.printf "c %s\n" (Lb_util.Budget.describe e);
              print_endline "s UNKNOWN"
            end;
            emit_metrics ();
            3)
  in
  let doc = "Solve a DIMACS CNF file (2SAT fast path, DPLL otherwise)." in
  Cmd.v
    (Cmd.info "sat" ~doc)
    Term.(const run $ file_arg $ timeout_arg $ metrics_arg $ json_flag)

(* --- [--load] replay, shared by query (local and remote) and explain --- *)

(* Replay newline-delimited protocol requests from each file in turn
   ('-' reads stdin) through [send], stopping at the first failing
   line: [send line] is [Ok ()] or [Error detail], reported on stderr
   as "error: FILE:LINE: detail" with exit code 2.  Blank lines are
   skipped but counted.  0 when every line succeeded. *)
let replay_loads send files =
  let replay_file file =
    let ic = if file = "-" then stdin else open_in file in
    Fun.protect ~finally:(fun () -> if file <> "-" then close_in ic)
    @@ fun () ->
    let rec go lineno =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.trim line = "" -> go (lineno + 1)
      | line -> (
          match send line with
          | Ok () -> go (lineno + 1)
          | Error detail ->
              Printf.eprintf "error: %s:%d: %s\n%!" file lineno detail;
              2)
    in
    go 1
  in
  List.fold_left (fun rc f -> if rc <> 0 then rc else replay_file f) 0 files

(* [replay_loads]'s send into an in-process server: the reply's
   message, or its status when it has none, on anything but "ok". *)
let send_local server line =
  let reply = Json.parse (Lb_service.Server.handle_line server line) in
  match Json.string_field "status" reply with
  | Ok "ok" -> Ok ()
  | Ok status -> (
      match Json.string_field "message" reply with
      | Ok m -> Error m
      | Error _ -> Error status)
  | Error _ as e -> e

(* --- query: one-shot evaluation through the in-process service --- *)

let query_cmd =
  let load_arg =
    let doc =
      "File of newline-delimited protocol requests (load/insert lines, \
       as for `lbt serve`) replayed into the catalog before the query; \
       '-' reads them from stdin.  Repeatable."
    in
    Arg.(value & opt_all string [] & info [ "load" ] ~docv:"FILE" ~doc)
  in
  let engine_arg =
    let doc =
      "Force an engine (yannakakis, generic_join, leapfrog, binary_hash); \
       default: the planner's choice."
    in
    Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"ENGINE" ~doc)
  in
  let count_arg =
    let doc = "Report the answer count only; no rows." in
    Arg.(value & flag & info [ "count" ] ~doc)
  in
  let limit_arg =
    let doc = "Cap on rows returned." in
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc = "Wall-clock budget in milliseconds (exit 3 on exhaustion)." in
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let max_ticks_arg =
    let doc = "Deterministic tick budget (exit 3 on exhaustion)." in
    Arg.(value & opt (some int) None & info [ "max-ticks" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc =
      "Shard count for the sharded execution tier (1 = unsharded)."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)
  in
  let pool_arg =
    let doc =
      "Domains for parallel execution (1 = sequential, 0 = one per core)."
    in
    Arg.(value & opt int 1 & info [ "pool" ] ~docv:"N" ~doc)
  in
  let gc_stats_arg =
    let doc =
      "Report the GC cost of the run: Gc.quick_stat deltas (minor/major \
       words, collections) across query execution, after the catalog is \
       loaded.  With --json the delta is a second JSON line."
    in
    Arg.(value & flag & info [ "gc-stats" ] ~doc)
  in
  let remote_arg =
    let doc =
      "Run the query against a running server (HOST:PORT) through the \
       typed protocol client instead of an in-process catalog; --load \
       files are replayed over the same connection first."
    in
    Arg.(
      value & opt (some string) None & info [ "remote" ] ~docv:"HOST:PORT" ~doc)
  in
  let run qtext loads engine count_only limit timeout_ms max_ticks shards
      pool_n gc_stats remote json =
    let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("error: " ^ s)) fmt in
    (* Shared tail: render one query reply and pick the exit code. *)
    let emit_reply reply report_gc =
      if json then begin
        print_endline (Json.to_string reply);
        report_gc ();
        match Json.string_field "status" reply with
        | Ok "ok" | Ok "degraded" -> 0
        | Ok "timeout" -> 3
        | _ -> 2
      end
      else
        match Json.string_field "status" reply with
        | Ok "ok" | Ok "degraded" ->
            (match Json.member "plan" reply with
            | Some plan -> (
                match Json.string_field "engine" plan with
                | Ok e -> Printf.printf "engine: %s\n" e
                | Error _ -> ())
            | None -> ());
            (match Json.int_field "count" reply with
            | Ok n -> Printf.printf "count: %d\n" n
            | Error _ -> ());
            (match Json.member "rows" reply with
            | Some (Json.List rows) ->
                List.iter
                  (function
                    | Json.List cells ->
                        print_endline
                          (String.concat " "
                             (List.map
                                (function
                                  | Json.Int v -> string_of_int v
                                  | _ -> "?")
                                cells))
                    | _ -> ())
                  rows;
                (match Json.member "truncated" reply with
                | Some (Json.Bool true) -> print_endline "(truncated)"
                | _ -> ())
            | _ -> ());
            report_gc ();
            0
        | Ok "timeout" ->
            let reason =
              match Json.string_field "reason" reply with
              | Ok r -> r
              | Error _ -> "budget exhausted"
            in
            fail "timeout (%s)" reason;
            3
        | Ok _ | Error _ ->
            let msg =
              match Json.string_field "message" reply with
              | Ok m -> m
              | Error _ -> "query failed"
            in
            fail "%s" msg;
            2
    in
    if shards < 1 then begin
      fail "--shards must be >= 1";
      2
    end
    else begin
      match
        match engine with
        | None -> Ok None
        | Some name -> Result.map Option.some (Lb_service.Planner.engine_of_name name)
      with
      | Error msg ->
          fail "%s" msg;
          2
      | Ok engine when remote <> None -> (
          (* Remote mode: same requests, over the typed client. *)
          let addr = Option.get remote in
          let parsed =
            match String.rindex_opt addr ':' with
            | Some i -> (
                match
                  int_of_string_opt
                    (String.sub addr (i + 1) (String.length addr - i - 1))
                with
                | Some port -> Ok (String.sub addr 0 i, port)
                | None -> Error (Printf.sprintf "bad port in %S" addr))
            | None -> Error (Printf.sprintf "--remote expects HOST:PORT, got %S" addr)
          in
          match parsed with
          | Error msg ->
              fail "%s" msg;
              2
          | Ok (host, port) -> (
              match Lb_service.Client.connect ~host ~port () with
              | Error msg ->
                  fail "cannot connect to %s: %s" addr msg;
                  2
              | Ok client ->
                  Fun.protect
                    ~finally:(fun () -> Lb_service.Client.close client)
                  @@ fun () ->
                  let send line =
                    match Lb_service.Client.raw_request client line with
                    | Error _ as e -> e
                    | Ok reply when Lb_service.Client.reply_ok reply -> Ok ()
                    | Ok reply ->
                        Error (Lb_service.Client.error_message reply)
                  in
                  let rc = replay_loads send loads in
                  if rc <> 0 then rc
                  else begin
                    let opts =
                      { Lb_service.Protocol.engine; count_only; limit;
                        timeout_ms; max_ticks }
                    in
                    match
                      Lb_service.Client.query ~opts client qtext
                    with
                    | Error msg ->
                        fail "%s" msg;
                        2
                    | Ok reply -> emit_reply reply (fun () -> ())
                  end))
      | Ok engine ->
          let with_pool f =
            if pool_n = 1 then f None
            else
              let pool =
                if pool_n = 0 then Lb_util.Pool.recommended ()
                else Lb_util.Pool.create pool_n
              in
              Fun.protect ~finally:(fun () -> Lb_util.Pool.shutdown pool)
                (fun () -> f (Some pool))
          in
          with_pool @@ fun pool ->
          let config =
            {
              Lb_service.Server.default_config with
              pool;
              shards;
            }
          in
          let server = Lb_service.Server.create ~config () in
          (* Replay the load files through the same request path the
             server uses, stopping at the first failing line. *)
          let rc = replay_loads (send_local server) loads in
          if rc <> 0 then rc
          else begin
            let opts =
              { Lb_service.Protocol.engine; count_only; limit; timeout_ms;
                max_ticks }
            in
            let gc0 = if gc_stats then Some (Gc.quick_stat ()) else None in
            let reply =
              Lb_service.Server.handle server
                (Lb_service.Protocol.Query { text = qtext; opts })
            in
            let report_gc () =
              match gc0 with
              | None -> ()
              | Some g0 ->
                  let g1 = Gc.quick_stat () in
                  let minor = int_of_float (g1.Gc.minor_words -. g0.Gc.minor_words)
                  and major = int_of_float (g1.Gc.major_words -. g0.Gc.major_words)
                  and promoted =
                    int_of_float (g1.Gc.promoted_words -. g0.Gc.promoted_words)
                  in
                  if json then
                    print_endline
                      (Json.to_string
                         (Json.Obj
                            [
                              ( "gc",
                                Json.Obj
                                  [
                                    ("minor_words", Json.Int minor);
                                    ("promoted_words", Json.Int promoted);
                                    ("major_words", Json.Int major);
                                    ( "minor_collections",
                                      Json.Int
                                        (g1.Gc.minor_collections
                                        - g0.Gc.minor_collections) );
                                    ( "major_collections",
                                      Json.Int
                                        (g1.Gc.major_collections
                                        - g0.Gc.major_collections) );
                                    ( "compactions",
                                      Json.Int
                                        (g1.Gc.compactions - g0.Gc.compactions)
                                    );
                                  ] );
                            ]))
                  else
                    Printf.printf
                      "gc: minor_words=%d promoted_words=%d major_words=%d \
                       minor=%d major=%d compactions=%d\n"
                      minor promoted major
                      (g1.Gc.minor_collections - g0.Gc.minor_collections)
                      (g1.Gc.major_collections - g0.Gc.major_collections)
                      (g1.Gc.compactions - g0.Gc.compactions)
            in
            emit_reply reply report_gc
          end
    end
  in
  let doc =
    "Evaluate one join query through the in-process query service: load \
     relations from protocol lines, plan from structural parameters, \
     run (optionally sharded), and print the answer."
  in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(
      const run $ query_arg $ load_arg $ engine_arg $ count_arg $ limit_arg
      $ timeout_arg $ max_ticks_arg $ shards_arg $ pool_arg $ gc_stats_arg $ remote_arg $ json_flag)

(* --- explain: the plan (and its compiled loop nest) without running --- *)

let explain_cmd =
  let load_arg =
    let doc =
      "File of newline-delimited protocol requests replayed into the \
       catalog before planning (statistics-dependent choices see the \
       data); '-' reads from stdin.  Repeatable."
    in
    Arg.(value & opt_all string [] & info [ "load" ] ~docv:"FILE" ~doc)
  in
  let run qtext loads json =
    let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("error: " ^ s)) fmt in
    let server = Lb_service.Server.create () in
    let rc = replay_loads (send_local server) loads in
    if rc <> 0 then rc
    else begin
      let reply =
        Lb_service.Server.handle server
          (Lb_service.Protocol.Explain { text = qtext })
      in
      if json then begin
        print_endline (Json.to_string reply);
        match Json.string_field "status" reply with Ok "ok" -> 0 | _ -> 2
      end
      else
        match Json.string_field "status" reply with
        | Ok "ok" ->
            (match Json.member "plan" reply with
            | Some plan ->
                (match Json.string_field "engine" plan with
                | Ok e -> Printf.printf "engine: %s\n" e
                | Error _ -> ());
                (match Json.member "explanation" plan with
                | Some (Json.List lines) ->
                    List.iter
                      (function
                        | Json.String l -> Printf.printf "  %s\n" l | _ -> ())
                      lines
                | _ -> ())
            | None -> ());
            (match Json.member "ir" reply with
            | Some (Json.List lines) ->
                print_endline "compiled loop nest:";
                List.iter
                  (function
                    | Json.String l -> Printf.printf "  %s\n" l | _ -> ())
                  lines
            | _ -> ());
            0
        | Ok _ | Error _ ->
            let msg =
              match Json.string_field "message" reply with
              | Ok m -> m
              | Error _ -> "explain failed"
            in
            fail "%s" msg;
            2
    end
  in
  let doc =
    "Plan one join query without executing it: print the engine choice \
     with its reasoning and, for WCOJ plans, the compiled loop nest \
     (the `explain` protocol op; --json emits the raw reply)."
  in
  Cmd.v
    (Cmd.info "explain" ~doc)
    Term.(const run $ query_arg $ load_arg $ json_flag)

(* --- serve: the long-lived query service --- *)

let serve_cmd =
  let port_arg =
    let doc =
      "Listen on a TCP port (loopback).  Without it the server speaks \
       the protocol on stdin/stdout."
    in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Address to bind with --port." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let max_pending_arg =
    let doc =
      "Admission-control bound: requests beyond this many in one window \
       are rejected with status \"overloaded\" instead of queued."
    in
    Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N" ~doc)
  in
  let plan_cache_arg =
    let doc = "Plan cache entries (LRU)." in
    Arg.(value & opt int 256 & info [ "plan-cache" ] ~docv:"N" ~doc)
  in
  let result_cache_arg =
    let doc = "Result cache entries (LRU)." in
    Arg.(value & opt int 128 & info [ "result-cache" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc =
      "Default per-request wall-clock budget in milliseconds; exhaustion \
       answers with status \"timeout\" and partial counters."
    in
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let max_ticks_arg =
    let doc = "Default per-request deterministic tick budget." in
    Arg.(value & opt (some int) None & info [ "max-ticks" ] ~docv:"N" ~doc)
  in
  let max_rows_arg =
    let doc = "Cap on rows returned in a single reply." in
    Arg.(value & opt int 10_000 & info [ "max-rows" ] ~docv:"N" ~doc)
  in
  let pool_arg =
    let doc =
      "Domains for parallel execution (1 = sequential, 0 = one per core)."
    in
    Arg.(value & opt int 1 & info [ "pool" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc =
      "Shard count for the sharded execution tier (1 = unsharded); WCOJ \
       queries hash-partition their bound atoms on the first join \
       variable, with answers and counters bit-identical to unsharded \
       runs."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)
  in
  let no_ivm_arg =
    let doc =
      "Invalidate cached results on writes instead of maintaining them \
       incrementally."
    in
    Arg.(value & flag & info [ "no-ivm" ] ~doc)
  in
  let data_dir_arg =
    let doc =
      "Durability root: mutations append to a CRC-framed fsynced WAL and \
       the catalog plus result cache checkpoint there, so a restarted \
       server recovers its state (and warm caches) byte-identically.  \
       Without it the server is in-memory only."
    in
    Arg.(
      value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR" ~doc)
  in
  let snapshot_every_arg =
    let doc =
      "With --data-dir: checkpoint after this many WAL records (bounds \
       replay time and WAL growth)."
    in
    Arg.(value & opt int 64 & info [ "snapshot-every" ] ~docv:"N" ~doc)
  in
  let snapshot_bytes_arg =
    let doc =
      "With --data-dir: also checkpoint whenever the WAL file exceeds \
       this many bytes (size-based trips are counted as \
       serve.wal.snapshot_bytes_trips).  Unset = record-count policy \
       only."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "snapshot-bytes" ] ~docv:"BYTES" ~doc)
  in
  let stats_json_arg =
    let doc =
      "On exit, print the server's final stats (the \"stats\" op's JSON \
       reply) on stderr - stdout stays a pure protocol channel."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let workers_arg =
    let doc =
      "Comma-separated HOST:PORT addresses of `lbt worker` processes.  \
       Turns this server into a coordinator: unbudgeted WCOJ queries \
       scatter across the workers (worker w of W owns shards {i : i mod \
       W = w}) and merge back byte-identical to a single-process \
       --shards K run; mutations fan out with version stamps.  \
       Requires --shards >= 2.  A dead worker's shards are absorbed \
       locally and replies marked status \"degraded\"."
    in
    Arg.(
      value & opt (some string) None & info [ "workers" ] ~docv:"ADDRS" ~doc)
  in
  let run port host max_pending plan_cache result_cache timeout_ms max_ticks
      max_rows pool_n shards no_ivm data_dir snapshot_every
      snapshot_bytes stats_json workers =
    let parse_workers s =
      let parts = String.split_on_char ',' s in
      List.fold_right
        (fun part acc ->
          Result.bind acc (fun acc ->
              match String.rindex_opt part ':' with
              | Some i -> (
                  match
                    int_of_string_opt
                      (String.sub part (i + 1) (String.length part - i - 1))
                  with
                  | Some p -> Ok ((String.sub part 0 i, p) :: acc)
                  | None -> Error (Printf.sprintf "bad port in %S" part))
              | None ->
                  Error (Printf.sprintf "worker %S is not HOST:PORT" part)))
        parts (Ok [])
    in
    let workers =
      match workers with
      | None -> Ok []
      | Some s -> parse_workers s
    in
    match workers with
    | Error msg ->
        prerr_endline ("error: " ^ msg);
        2
    | Ok workers when workers <> [] && shards < 2 ->
        prerr_endline "error: --workers requires --shards >= 2";
        2
    | Ok workers ->
    if shards < 1 then begin
      prerr_endline "error: --shards must be >= 1";
      2
    end
    else begin
      let with_pool f =
        if pool_n = 1 then f None
        else
          let pool =
            if pool_n = 0 then Lb_util.Pool.recommended ()
            else Lb_util.Pool.create pool_n
          in
          Fun.protect ~finally:(fun () -> Lb_util.Pool.shutdown pool)
            (fun () -> f (Some pool))
      in
      with_pool (fun pool ->
          let config =
            {
              Lb_service.Server.max_pending;
              plan_cache_size = plan_cache;
              result_cache_size = result_cache;
              default_timeout_ms = timeout_ms;
              default_max_ticks = max_ticks;
              max_rows;
              pool;
              shards;
              ivm = not no_ivm;
              data_dir;
              snapshot_every;
              snapshot_bytes;
              protocol_max =
                (if workers <> [] then Lb_service.Protocol.max_version
                 else Lb_service.Protocol.version);
            }
          in
          let server = Lb_service.Server.create ~config () in
          let coord =
            match workers with
            | [] -> None
            | ws ->
                Some (Lb_service.Coordinator.attach server ~shards ~workers:ws)
          in
          (match port with
          | Some port -> Lb_service.Server.serve_tcp ~host server ~port
          | None -> Lb_service.Server.serve_pipe server Unix.stdin stdout);
          Option.iter Lb_service.Coordinator.detach coord;
          if stats_json then
            prerr_endline
              (Json.to_string
                 (Lb_service.Server.handle server Lb_service.Protocol.Stats));
          0)
    end
  in
  let doc =
    "Serve join queries over a line-delimited JSON protocol (stdin or \
     TCP), planning each query from its structural parameters and \
     caching plans and results."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ port_arg $ host_arg $ max_pending_arg $ plan_cache_arg
      $ result_cache_arg $ timeout_arg $ max_ticks_arg $ max_rows_arg
      $ pool_arg $ shards_arg $ no_ivm_arg $ data_dir_arg
      $ snapshot_every_arg $ snapshot_bytes_arg $ stats_json_arg
      $ workers_arg)

(* --- worker: one shard process of a distributed serve topology --- *)

let worker_cmd =
  let port_arg =
    let doc = "TCP port to listen on (required)." in
    Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Address to bind." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let pool_arg =
    let doc =
      "Domains for parallel execution (1 = sequential, 0 = one per core)."
    in
    Arg.(value & opt int 1 & info [ "pool" ] ~docv:"N" ~doc)
  in
  let run port host pool_n =
    let with_pool f =
      if pool_n = 1 then f None
      else
        let pool =
          if pool_n = 0 then Lb_util.Pool.recommended ()
          else Lb_util.Pool.create pool_n
        in
        Fun.protect
          ~finally:(fun () -> Lb_util.Pool.shutdown pool)
          (fun () -> f (Some pool))
    in
    with_pool (fun pool ->
        let config = { Lb_service.Server.default_config with pool } in
        Lb_service.Worker.run ~host ~config ~port ();
        0)
  in
  let doc =
    "Run one shard worker of a distributed serve topology: a protocol-v2 \
     server whose catalog replica is seeded and kept in step by an `lbt \
     serve --workers` coordinator, executing the subquery slices it is \
     assigned.  Also answers ordinary v1 requests directly."
  in
  Cmd.v (Cmd.info "worker" ~doc) Term.(const run $ port_arg $ host_arg $ pool_arg)

let () =
  let doc = "lower-bounds toolkit: query analysis per Marx (PODS 2021)" in
  let info = Cmd.info "lbt" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            analyze_cmd;
            worstcase_cmd;
            evaluate_cmd;
            classify_cmd;
            minimize_cmd;
            fhw_cmd;
            colsub_cmd;
            sat_cmd;
            query_cmd;
            explain_cmd;
            serve_cmd;
            worker_cmd;
          ]))
