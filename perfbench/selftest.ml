(* Count-repeatability self-test: for every workload, two in-process
   traced passes with the same seed must produce identical counts
   (reply counters, routes, rows sorted, cache / IVM / WAL counters of
   the server's metrics), a different seed must change the request
   stream, and every reply of the pass must match the mirror's
   reference answer.  Short prefixes keep it to a few seconds. *)

let prefix = function
  | Workload.Hot_reads -> 300
  | Workload.Cold_joins -> 12
  | Workload.Fhw_joins -> 6
  | Workload.Write_mix -> 60

let pass kind ~seed =
  let wl = Workload.make kind ~seed in
  let warm, ops = Traced.plan ~probe:40 wl ~seed ~ops:(prefix kind) in
  let counts, _, _ = Traced.inproc wl ~warm ~ops in
  (counts, Array.map Workload.line ops)

let () =
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr failures;
        print_endline ("FAIL " ^ s))
      fmt
  in
  List.iter
    (fun kind ->
      let name = Workload.name kind in
      let a, lines_a = pass kind ~seed:7 in
      let b, _ = pass kind ~seed:7 in
      let _, lines_c = pass kind ~seed:8 in
      if a <> b then begin
        fail "%s: counts differ between two runs of seed 7" name;
        List.iter2
          (fun (k, x) (k', y) ->
            if k <> k' || x <> y then Printf.printf "  %s=%d vs %s=%d\n" k x k' y)
          a.Traced.counters b.Traced.counters
      end;
      if lines_a = lines_c then fail "%s: seeds 7 and 8 gave the same stream" name;
      if a.Traced.bad_replies > 0 then
        fail "%s: %d replies disagreed with the mirror" name a.Traced.bad_replies;
      Printf.printf "%s: %d reads, %d writes, %d counters repeat\n" name
        a.Traced.reads a.Traced.writes
        (List.length a.Traced.counters))
    Workload.all;
  if !failures > 0 then exit 1
