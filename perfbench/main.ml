(* perfbench: the served-query benchmark.

     perfbench.exe --lbt PATH --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the end-to-end measurement against a live `lbt serve`
   and reports the end-to-end metrics; --trace 1 runs the traced
   replay and reports the per-layer metrics.  A table goes to stdout
   first; the last line is one JSON object
   {"correct","attempted","failed","metrics"}.  --spans FILE (with
   --trace 1) also writes every span of the traced pass as JSON lines. *)

let usage =
  "perfbench.exe --lbt PATH --workload \
   hot-reads|cold-joins|fhw-joins|write-mix --seed N --seconds S --trace 0|1"

let end_to_end ~lbt kind ~seed ~seconds =
  let r = Served.run ~lbt kind ~seed ~seconds in
  Option.iter (Printf.eprintf "first failure: %s\n%!") r.Served.first_error;
  let reads = Printf.sprintf "n=%d" r.Served.n_queries
  and writes = Printf.sprintf "n=%d" r.Served.n_writes in
  Out.print_result ~attempted:r.Served.attempted ~failed:r.Served.failed
    [
      ("setup_s", r.Served.setup_s, "s", Printf.sprintf "median of %d set-ups" Served.setups);
      ("throughput_ops", r.Served.throughput_ops, "1/s", "closed loop, 1 connection");
      ("query_p50_ms", r.Served.query_p50_ms, "ms", reads ^ ", mean of per-second medians");
      ("query_p95_ms", r.Served.query_p95_ms, "ms", reads);
      ("write_p50_ms", r.Served.write_p50_ms, "ms", writes);
      ("write_p95_ms", r.Served.write_p95_ms, "ms", writes);
      ("recovery_s", r.Served.recovery_s, "s", "fastest crash cycle, SIGKILL to first ok reply");
      ("server_rss_mb", r.Served.server_rss_mb, "MiB", "highest VmHWM, read before each SIGKILL");
    ]

let () =
  let lbt = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 and spans = ref "" in
  Arg.parse
    [
      ("--lbt", Arg.Set_string lbt, "PATH the lbt binary to serve with");
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--spans", Arg.Set_string spans, "FILE with --trace 1: write every span as JSON lines");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match Workload.of_name !workload with
  | None ->
      prerr_endline usage;
      exit 2
  | Some kind ->
      if not (Sys.file_exists !lbt) then begin
        prerr_endline ("lbt binary not found: " ^ !lbt);
        exit 2
      end;
      if !trace = 0 then end_to_end ~lbt:!lbt kind ~seed:!seed ~seconds:!seconds
      else
        Traced.report
          ?spans:(if !spans = "" then None else Some !spans)
          ~lbt:!lbt kind ~seed:!seed
