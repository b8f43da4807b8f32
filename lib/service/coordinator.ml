(* The coordinator side of the distributed tier: plans once (in the
   server), scatters per-shard subqueries to worker replicas, fans
   mutations out with version stamps, and merges ordered per-worker
   streams into byte-identical answers.

   Slice assignment is static and liveness-independent: worker [w] of
   [W] owns shard indices {i : i mod W = w}, and slice 0 carries the
   lead flag (the one participant counting global level-0 work).  A
   dead worker's slice - owned set AND lead flag - is absorbed locally
   through {!Server.exec_subquery}, so every shard is executed exactly
   once and exactly one participant leads regardless of failures:
   summed counters and merged rows stay bit-identical to a
   single-process [--shards K] run, and the reply is merely marked
   "status":"degraded". *)

module Metrics = Lb_util.Metrics
module Relation = Lb_relalg.Relation
module Shard = Lb_relalg.Shard

type slot = {
  w_host : string;
  w_port : int;
  mutable conn : Client.t option;
  mutable synced : int;
      (* catalog version the replica is known to hold; -1 = unknown,
         forcing a reseed before its next subquery *)
}

type t = {
  server : Server.t;
  shards : int;
  timeout_ms : int;
  slots : slot array;
}

let workers t =
  Array.to_list (Array.map (fun s -> (s.w_host, s.w_port)) t.slots)

let drop_conn slot =
  (match slot.conn with Some c -> Client.close c | None -> ());
  slot.conn <- None;
  slot.synced <- -1

let conn_of t slot =
  match slot.conn with
  | Some c -> Ok c
  | None -> (
      match
        Client.connect ~timeout_ms:t.timeout_ms ~host:slot.w_host
          ~port:slot.w_port ()
      with
      | Error _ as e -> e
      | Ok c when Client.version c >= 2 ->
          slot.conn <- Some c;
          slot.synced <- -1;
          Ok c
      | Ok c ->
          Client.close c;
          Error "worker does not speak protocol v2")

let checked_request slot c req =
  match Client.request c req with
  | Error _ as e ->
      drop_conn slot;
      e
  | Ok reply when Client.reply_ok reply -> Ok reply
  | Ok reply ->
      (* A structured reject (e.g. stale_replica) leaves the
         connection usable, but the replica needs a reseed. *)
      slot.synced <- -1;
      Error (Client.error_message reply)

(* Full replica reseed: stream every relation (with its version) and
   commit wholesale at the coordinator's catalog version. *)
let reseed t slot c =
  let cat = Server.catalog t.server in
  let version = Catalog.version cat in
  let rec send_all = function
    | [] -> Ok ()
    | (name, attrs, tuples, rel_version) :: rest -> (
        let req =
          Protocol.Partition_load
            {
              name;
              attrs = Array.to_list attrs;
              tuples = List.map Array.to_list (Array.to_list tuples);
              rel_version;
            }
        in
        match checked_request slot c req with
        | Error _ as e -> e
        | Ok _ -> send_all rest)
  in
  match send_all (Catalog.dump cat) with
  | Error _ as e -> e
  | Ok () -> (
      match
        checked_request slot c (Protocol.Sync { version; shards = t.shards })
      with
      | Error _ as e -> e
      | Ok _ ->
          slot.synced <- version;
          Ok ())

let ensure_synced t slot =
  match conn_of t slot with
  | Error _ as e -> e
  | Ok c ->
      if slot.synced = Catalog.version (Server.catalog t.server) then Ok c
      else Result.map (fun () -> c) (reseed t slot c)

(* --- reply parsing --- *)

let ( let* ) = Result.bind

let list_of_field name reply =
  match Json.member name reply with
  | Some (Json.List l) -> Ok l
  | _ -> Error (Printf.sprintf "reply missing %S" name)

let parse_subquery_reply reply =
  if not (Client.reply_ok reply) then Error (Client.error_message reply)
  else
    let* attrs = list_of_field "attributes" reply in
    let* attrs =
      List.fold_right
        (fun v acc ->
          let* acc = acc in
          match v with
          | Json.String s -> Ok (s :: acc)
          | _ -> Error "non-string attribute")
        attrs (Ok [])
    in
    let* rows = list_of_field "rows" reply in
    let* rows =
      List.fold_right
        (fun r acc ->
          let* acc = acc in
          match r with
          | Json.List cells ->
              let* row =
                List.fold_right
                  (fun c acc ->
                    let* acc = acc in
                    match c with
                    | Json.Int n -> Ok (n :: acc)
                    | _ -> Error "non-integer cell")
                  cells (Ok [])
              in
              Ok (Array.of_list row :: acc)
          | _ -> Error "non-list row")
        rows (Ok [])
    in
    let* counters =
      match Json.member "counters" reply with
      | Some (Json.Obj fields) ->
          List.fold_right
            (fun (k, v) acc ->
              let* acc = acc in
              match v with
              | Json.Int n -> Ok ((k, n) :: acc)
              | _ -> Error "non-integer counter")
            fields (Ok [])
      | _ -> Error "reply missing \"counters\""
    in
    Ok (Array.of_list attrs, Array.of_list rows, counters)

(* --- the dispatcher --- *)

(* One remote slice with a single retry through a fresh
   connection/reseed; the caller absorbs a second failure locally. *)
let remote_subquery t slot req ~expect_version =
  let attempt () =
    match ensure_synced t slot with
    | Error _ as e -> e
    | Ok c -> (
        match checked_request slot c req with
        | Error _ as e -> e
        | Ok reply ->
            if Json.int_field "version" reply = Ok expect_version then Ok reply
            else begin
              slot.synced <- -1;
              Error "replica answered at the wrong version"
            end)
  in
  match attempt () with Ok r -> Ok r | Error _ -> attempt ()

let dispatch_query t ~text ~engine =
  let nw = Array.length t.slots in
  if nw = 0 then Error "no workers attached"
  else begin
    let metrics = Server.metrics t.server in
    Metrics.incr metrics "serve.dist.scatters";
    let expect_version = Catalog.version (Server.catalog t.server) in
    let ename = Planner.engine_name engine in
    let degraded = ref false in
    let slices =
      Array.init nw (fun w ->
          let owned =
            List.filter (fun i -> i mod nw = w) (List.init t.shards Fun.id)
          in
          let lead = w = 0 in
          let req =
            Protocol.Subquery
              { text; engine = ename; shards = t.shards; owned; lead }
          in
          match remote_subquery t t.slots.(w) req ~expect_version with
          | Ok reply -> reply
          | Error _ ->
              (* Absorb the dead worker's slice - same owned set, same
                 lead flag, same reply shape - so the merge below has
                 one path for live and absorbed slices. *)
              degraded := true;
              Metrics.incr metrics "serve.dist.absorbed";
              Server.exec_subquery t.server ~text ~engine:ename
                ~shards:t.shards ~owned ~lead)
    in
    let parsed =
      Array.fold_right
        (fun reply acc ->
          let* acc = acc in
          let* p = parse_subquery_reply reply in
          Ok (p :: acc))
        slices (Ok [])
    in
    (* A slice whose rows are ragged, unsorted or overlap another
       slice's is a malformed reply: an [Error], so the server answers
       locally instead. *)
    let merged =
      let* parsed = parsed in
      match
        Shard.merge_sorted
          (Array.of_list
             (List.map
                (fun (attrs, rows, _) -> Relation.of_sorted_distinct attrs rows)
                parsed))
      with
      | merged -> Ok (parsed, merged)
      | exception Invalid_argument msg -> Error msg
    in
    match merged with
    | Error _ as e -> e
    | Ok (parsed, merged) ->
        let totals = Hashtbl.create 16 in
        List.iter
          (fun (_, _, counters) ->
            List.iter
              (fun (k, v) ->
                Hashtbl.replace totals k
                  (v + Option.value ~default:0 (Hashtbl.find_opt totals k)))
              counters)
          parsed;
        let d_counters =
          List.sort compare
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])
        in
        Ok
          {
            Server.d_attributes = Relation.attrs merged;
            d_rows = Relation.tuples merged;
            d_counters;
            d_degraded = !degraded;
          }
  end

let mutation_of_record = function
  | Wal.Load { name; attrs; tuples } ->
      Protocol.Load
        {
          name;
          attrs = Array.to_list attrs;
          tuples = List.map Array.to_list tuples;
        }
  | Wal.Insert { name; tuples } ->
      Protocol.Insert { name; tuples = List.map Array.to_list tuples }
  | Wal.Delete { name; tuples } ->
      Protocol.Delete { name; tuples = List.map Array.to_list tuples }
  | Wal.Drop { name } -> Protocol.Drop { name }

(* Fan one applied mutation out.  Only replicas exactly one version
   behind can apply it; anything else (dead, stale, fresh connection)
   is left for a lazy reseed at its next subquery. *)
let notify_mutation t ~version record =
  let mutation = mutation_of_record record in
  Array.iter
    (fun slot ->
      if slot.synced = version - 1 then
        match conn_of t slot with
        | Error _ -> ()
        | Ok c -> (
            match
              checked_request slot c (Protocol.Apply { version; mutation })
            with
            | Ok _ -> slot.synced <- version
            | Error _ -> ()))
    t.slots

let attach ?(timeout_ms = 5000) server ~shards ~workers =
  let slots =
    Array.of_list
      (List.map
         (fun (w_host, w_port) -> { w_host; w_port; conn = None; synced = -1 })
         workers)
  in
  let t = { server; shards; timeout_ms; slots } in
  Server.set_dispatcher server
    {
      Server.dispatch_query = (fun ~text ~engine -> dispatch_query t ~text ~engine);
      notify_mutation = (fun ~version record -> notify_mutation t ~version record);
    };
  t

let detach t = Array.iter drop_conn t.slots
