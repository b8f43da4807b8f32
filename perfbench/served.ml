(* The untraced end-to-end run: a real `lbt serve` over TCP, driven by
   one closed-loop connection (the server serves one connection at a
   time and every in-tree client waits for each reply).

   Phases of one run:
   1. set-up, [setups] times: spawn the server on a fresh data dir and
      load the catalog; [setup_s] is the median, the last server stays;
   2. warm-up: the working set (or a few cold texts) once each;
   3. the timed loop for [seconds] seconds; off its clock, read-only
      workloads interleave a write probe to a relation no read touches,
      and every one-second chunk ends in a crash cycle: checkpoint, a fixed
      [wal_tail]-write WAL tail, peak RSS from /proc, SIGKILL, restart
      on the same data dir, time to the first ok reply;
   4. re-read the cached read set and every relation's cardinality;
   5. shut down, then check every reply by value against the mirror. *)

module Client = Lb_service.Client
module Json = Lb_service.Json
module P = Lb_service.Protocol

type session = { server : Proc.server; client : Client.t }

let request s line = Client.raw_request s.client line

let ok_reply = function Ok j -> Client.reply_ok j | Error _ -> false

(* Spawn on a fresh data dir and load every relation; returns the
   session, the wall time from spawn to the last load reply, and how
   many loads failed. *)
let setup ~lbt (wl : Workload.t) =
  let dir = Proc.fresh_dir "serve" in
  let t0 = Stat.now () in
  let server = Proc.spawn ~lbt ~port:(Proc.free_port ()) ~dir in
  let client = Proc.connect server in
  let s = { server; client } in
  let failed =
    List.fold_left
      (fun bad rel ->
        if ok_reply (request s (Workload.load_line rel)) then bad else bad + 1)
      0 wl.Workload.relations
  in
  (s, Stat.now () -. t0, failed)

let stop s =
  Client.close s.client;
  Proc.kill s.server.Proc.pid;
  Proc.drop_dir s.server.Proc.dir

(* Graceful shutdown; falls back to SIGKILL after five seconds. *)
let shutdown s =
  ignore (request s (P.request_to_string P.Shutdown));
  Client.close s.client;
  let deadline = Stat.now () +. 5.0 in
  while Proc.alive s.server.Proc.pid && Stat.now () < deadline do
    Unix.sleepf 0.01
  done;
  Proc.kill s.server.Proc.pid;
  Proc.drop_dir s.server.Proc.dir

(* Texts the warm-up sends: the working set, or for the cold workloads
   a few texts from a stream the timed loop never draws from. *)
let warm_texts (wl : Workload.t) ~seed =
  if Array.length wl.Workload.working_set > 0 then
    Array.to_list wl.Workload.working_set
  else
    let rng = Lb_util.Prng.create (seed lxor 0x5eed) in
    List.init 8 (fun _ -> Workload.random_text rng wl.Workload.kind)

let setups = 5

(* Write-probe requests after each one-second chunk of a read-only
   workload. *)
let probe_per_chunk = 70

let wal_tail = 32

type result = {
  setup_s : float;
  throughput_ops : float;
  query_p50_ms : float;
  query_p95_ms : float;
  write_p50_ms : float;
  write_p95_ms : float;
  n_queries : int;
  n_writes : int;
  recovery_s : float;
  server_rss_mb : float;
  attempted : int;
  failed : int;
  first_error : string option;
}

let run ~lbt kind ~seed ~seconds =
  let wl = Workload.make kind ~seed in
  let setup_times = ref [] and setup_failed = ref 0 in
  let rec set_up k =
    let s, dt, bad = setup ~lbt wl in
    setup_times := dt :: !setup_times;
    setup_failed := !setup_failed + bad;
    if k = 1 then s
    else begin
      stop s;
      set_up (k - 1)
    end
  in
  let s = ref (set_up setups) in
  let log = ref [] in
  let send op =
    let r = request !s (Workload.line op) in
    log := (op, Mirror.digest op r) :: !log
  in
  List.iter (fun text -> send (Workload.Read { text; count_only = true; limit = None }))
    (warm_texts wl ~seed);
  let extra_failed = ref !setup_failed and extra_attempted = ref 0 in
  let expect_ok what r =
    incr extra_attempted;
    if not (ok_reply r) then begin
      incr extra_failed;
      Printf.eprintf "%s failed\n%!" what
    end
  in
  (* One crash cycle: checkpoint, a fixed WAL tail, SIGKILL, restart on
     the same data dir.  Returns the time from the kill to the first ok
     reply, and the dead server's peak RSS. *)
  let crash_cycle () =
    expect_ok "checkpoint" (request !s (P.request_to_string P.Checkpoint));
    for _ = 1 to wal_tail do
      send (wl.Workload.next_write ())
    done;
    let rss = Proc.vm_hwm_mb !s.server.Proc.pid in
    let t0 = Stat.now () in
    Client.close !s.client;
    Proc.kill !s.server.Proc.pid;
    let server = Proc.spawn ~lbt ~port:(Proc.free_port ()) ~dir:!s.server.Proc.dir in
    let client = Proc.connect server in
    s := { server; client };
    let ping = request !s (P.request_to_string P.Ping) in
    let dt = Stat.now () -. t0 in
    expect_ok "ping after restart" ping;
    (dt, rss)
  in
  (* The timed loop runs in one-second chunks.  Off the clock, read-only
     workloads follow each chunk with part of the write probe, and every
     chunk ends in a crash cycle, so write and recovery samples span the
     same stretch of time as the reads. *)
  let reads = Stat.samples () and writes = Stat.samples () in
  let ops = ref 0 and busy = ref 0.0 and cycles = ref [] and window_p50s = ref [] in
  let timed op =
    let line = Workload.line op in
    let t0 = Stat.now () in
    let r = request !s line in
    Stat.push (if Workload.is_write op then writes else reads) ((Stat.now () -. t0) *. 1e3);
    log := (op, Mirror.digest op r) :: !log
  in
  for _ = 1 to max 1 seconds do
    let t_start = Stat.now () and first_read = reads.Stat.n in
    while Stat.now () < t_start +. 1.0 do
      timed (wl.Workload.next ());
      incr ops
    done;
    busy := !busy +. (Stat.now () -. t_start);
    if reads.Stat.n > first_read then begin
      let window = Array.sub reads.Stat.a first_read (reads.Stat.n - first_read) in
      Array.sort Float.compare window;
      window_p50s := Stat.percentile_sorted window 0.5 :: !window_p50s
    end;
    if kind <> Workload.Write_mix then
      for _ = 1 to probe_per_chunk do
        timed (wl.Workload.next_write ())
      done;
    cycles := crash_cycle () :: !cycles
  done;
  let reads = Stat.to_sorted reads and writes = Stat.to_sorted writes in
  (* durability: the cached read set and every cardinality *)
  let reread =
    if Array.length wl.Workload.working_set > 0 then
      Array.to_list wl.Workload.working_set
    else
      List.filteri
        (fun i _ -> i < 16)
        (List.sort_uniq compare
           (List.filter_map
              (function Workload.Read { text; _ }, _ -> Some text | _ -> None)
              !log))
  in
  List.iter (fun text -> send (Workload.Read { text; count_only = false; limit = Some 10 })) reread;
  let stats = request !s (P.request_to_string P.Stats) in
  expect_ok "stats" stats;
  shutdown !s;
  (* value checks, in stream order, outside every timed section *)
  let mirror = Mirror.create () in
  List.iter (Mirror.load mirror) wl.Workload.relations;
  let first_error = ref None in
  let failed = ref !extra_failed in
  let fail msg =
    incr failed;
    if !first_error = None then first_error := Some msg
  in
  let entries = List.rev !log in
  List.iter
    (fun (op, reply) ->
      match Mirror.check mirror op reply with Ok () -> () | Error m -> fail m)
    entries;
  let relations =
    match stats with
    | Ok j -> (
        match Json.member "relations" j with Some (Json.Obj l) -> l | _ -> [])
    | Error _ -> []
  in
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name relations with
      | Some (Json.Int n) when n = Mirror.cardinality mirror name -> ()
      | _ -> fail ("lost writes in " ^ name))
    wl.Workload.relations;
  {
    setup_s = Stat.median_list !setup_times;
    throughput_ops = float_of_int !ops /. !busy;
    query_p50_ms =
      List.fold_left ( +. ) 0.0 !window_p50s /. float_of_int (List.length !window_p50s);
    query_p95_ms = Stat.percentile_sorted reads 0.95;
    write_p50_ms = Stat.percentile_sorted writes 0.5;
    write_p95_ms = Stat.percentile_sorted writes 0.95;
    n_queries = Array.length reads;
    n_writes = Array.length writes;
    recovery_s = List.fold_left (fun m (d, _) -> Float.min m d) infinity !cycles;
    server_rss_mb = List.fold_left (fun m (_, r) -> Float.max m r) 0.0 !cycles;
    attempted =
      List.length entries + List.length wl.Workload.relations + !extra_attempted
      + (setups * List.length wl.Workload.relations);
    failed = !failed;
    first_error = !first_error;
  }
