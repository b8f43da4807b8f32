(* Process harness: spawn `lbt serve` on a free port, pinned away from
   the load generator when taskset exists; kill every child and remove
   every scratch directory on all exit paths. *)

let live : int list ref = ref []

let scratch_dirs : string list ref = ref []

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

(* Scratch dirs live under [scratch_root], inside the working
   directory: the benchmark reads and writes only inside its checkout. *)
let scratch_root = ".perfbench-tmp"

let cleanup () =
  List.iter kill !live;
  List.iter remove_tree !scratch_dirs;
  scratch_dirs := [];
  try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()

let () =
  at_exit cleanup;
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let fresh_dir tag =
  (try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let rec attempt i =
    let d =
      Filename.concat scratch_root (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) i)
    in
    match Unix.mkdir d 0o755 with
    | () ->
        scratch_dirs := d :: !scratch_dirs;
        d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> attempt (i + 1)
  in
  attempt 0

let drop_dir d =
  remove_tree d;
  scratch_dirs := List.filter (( <> ) d) !scratch_dirs;
  (try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())

(* Bind port 0 and let the kernel pick; the port is free again once
   the probe socket closes. *)
let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> failwith "free_port: not an inet socket")

(* --- CPU placement --- *)

let allowed_cpus () =
  let parse_range s =
    match String.split_on_char '-' (String.trim s) with
    | [ a ] -> [ int_of_string a ]
    | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
    | _ -> []
  in
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | l when String.starts_with ~prefix:"Cpus_allowed_list:" l ->
            let v = String.sub l 18 (String.length l - 18) in
            List.concat_map parse_range (String.split_on_char ',' v)
        | _ -> scan ()
        | exception End_of_file -> []
      in
      try scan () with Failure _ -> [])

let taskset =
  lazy
    (List.find_opt Sys.file_exists
       [ "/usr/bin/taskset"; "/bin/taskset"; "/usr/local/bin/taskset" ])

let run_quiet argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process argv.(0) argv null null null in
  Unix.close null;
  match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false

(* Pin this process to the first allowed CPU and return the CPU the
   server gets (the last one), or [None] when pinning is unavailable.
   Prints the placement on stderr. *)
let placement =
  lazy
    (let cpus = allowed_cpus () in
     let n = List.length cpus in
     let server_cpu =
       match (Lazy.force taskset, cpus) with
       | Some ts, first :: _ :: _ ->
           let last = List.nth cpus (n - 1) in
           if
             run_quiet
               [| ts; "-p"; "-c"; string_of_int first; string_of_int (Unix.getpid ()) |]
           then Some (first, last)
           else None
       | _ -> None
     in
     (match server_cpu with
     | Some (c, s) ->
         Printf.eprintf "placement: nproc=%d load-generator cpu %d, server cpu %d\n%!" n c s
     | None -> Printf.eprintf "placement: nproc=%d unpinned\n%!" n);
     Option.map snd server_cpu)

(* --- the server process --- *)

type server = { pid : int; port : int; dir : string }

let spawn ~lbt ~port ~dir =
  let base =
    [ lbt; "serve"; "--port"; string_of_int port; "--data-dir"; dir ]
  in
  let argv =
    match (Lazy.force placement, Lazy.force taskset) with
    | Some cpu, Some ts -> ts :: "-c" :: string_of_int cpu :: base
    | _ -> base
  in
  (* The child gets /dev/null for all three streams, so an orphan can
     never hold the benchmark's stdout open. *)
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv = Array.of_list argv in
  let pid = Unix.create_process argv.(0) argv null null null in
  Unix.close null;
  live := pid :: !live;
  { pid; port; dir }

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ ->
      live := List.filter (( <> ) pid) !live;
      false
  | exception Unix.Unix_error _ -> false

(* Connect once the server listens; fails if it exits first or takes
   longer than [within] seconds. *)
let connect ?(within = 60.0) s =
  let deadline = Unix.gettimeofday () +. within in
  let rec go () =
    match Lb_service.Client.connect ~timeout_ms:120_000 ~port:s.port () with
    | Ok c -> c
    | Error msg ->
        if not (alive s.pid) then failwith ("lbt serve exited: " ^ msg)
        else if Unix.gettimeofday () > deadline then
          failwith ("lbt serve did not come up: " ^ msg)
        else begin
          Unix.sleepf 0.002;
          go ()
        end
  in
  go ()

(* Peak resident set of a live process, from /proc, in MiB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ())
