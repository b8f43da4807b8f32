(** The `lbt serve` line protocol: one JSON object per line in each
    direction.

    Requests are typed here with a canonical encoding - optional fields
    are omitted when they hold their defaults, so
    [request_to_string (request_of_string s)] is byte-identical to the
    canonical rendering of [s], which the fuzz tests enforce.
    Responses are built as {!Json.t} directly (the server owns their
    shape); the encoders for plans and analyses live here so the CLI's
    [lbt analyze --json] emits exactly the service's vocabulary.

    {b Versioning.}  Replies to the classic ops carry ["v"]:{!version}
    as their first field.  A request {e may} carry ["v"]; it is decoded
    iff it names a generation this module knows ([1] or
    {!max_version}), so a client built against a future protocol fails
    fast instead of being half-understood.  Unknown request fields are
    ignored - {!request_of_string_ext} reports their names so the
    server can count them ([serve.protocol.ignored_fields]) - which is
    what lets v1 servers accept requests from clients that have grown
    new optional fields.  New capabilities are discovered through the
    [hello] op, whose reply lists the server's shard count,
    batch-scheduling support, engine names, and (since v2) the
    negotiated protocol version.

    {b v2: the distributed tier.}  Version 2 adds the worker-facing
    ops of coordinator/worker serving - [subquery] (execute one
    shard-subset slice of a query), [partition_load] (buffer one
    relation of a replica reseed), [sync] (commit the buffered reseed
    at a catalog version), and [apply] (forward one mutation with its
    post-apply version).  They must be requested with ["v"]:2 (their
    canonical encodings pin it) and are answered with ["v"]:2 replies;
    every classic op keeps its v1 reply shape regardless of transport.
    Whether a given {e server} accepts v2 requests at all is the
    server's [protocol_max] property, enforced at the server layer
    with {!unsupported_version_response} - this module only decodes. *)

(** The baseline protocol version: 1. *)
val version : int

(** The newest generation this module can decode: 2. *)
val max_version : int

type query_opts = {
  engine : Planner.engine option;  (** [None] = planner's choice *)
  count_only : bool;
  limit : int option;  (** cap on rows returned (not on the answer) *)
  timeout_ms : int option;
  max_ticks : int option;  (** deterministic tick budget *)
}

val default_opts : query_opts

(** Evaluation route of the [colsub] op; [Cs_auto] lets the server
    pick (decomposition when the pattern is small enough to decompose,
    backtracking otherwise). *)
type colsub_method = Cs_auto | Cs_backtracking | Cs_csp | Cs_decomposition

(** ["auto"], ["backtracking"], ["csp"], ["decomposition"]. *)
val colsub_method_name : colsub_method -> string

val colsub_method_of_name : string -> (colsub_method, string) result

type colsub_req = {
  k : int;  (** pattern vertex count *)
  pattern_edges : (int * int) list;
  colors : int list;  (** one color in [\[0, k)] per host vertex *)
  host_edges : (int * int) list;
  meth : colsub_method;
  count : bool;  (** count all colorful embeddings, not just find one *)
  cs_timeout_ms : int option;
  cs_max_ticks : int option;
}

type request =
  | Load of { name : string; attrs : string list; tuples : int list list }
      (** create or replace a relation *)
  | Insert of { name : string; tuples : int list list }
  | Delete of { name : string; tuples : int list list }
      (** remove tuples; absent tuples are a no-op, not an error *)
  | Drop of { name : string }
  | Query of { text : string; opts : query_opts }
  | Colsub of colsub_req
      (** colorful subgraph isomorphism ({!Lb_graph.Colsub}) *)
  | Explain of { text : string }
  | Stats
  | Checkpoint
      (** force a durability snapshot (no-op without [--data-dir]) *)
  | Hello  (** capability discovery *)
  | Ping
  | Shutdown
  | Subquery of {
      text : string;
      engine : string;  (** pinned by the coordinator ({!Planner.engine_of_name}) *)
      shards : int;  (** global partition count [K] *)
      owned : int list;  (** shard indices this participant executes *)
      lead : bool;  (** exactly one participant counts level-0 work *)
    }
      (** v2: one scatter slice of a distributed query.  The worker
          replays the full level-0 shard emulation but deep-executes
          (and counts) only its [owned] shards, so summing the
          participants' counters over a cover reproduces the
          single-process totals bit for bit
          ({!Lb_relalg.Compile.subset}). *)
  | Partition_load of {
      name : string;
      attrs : string list;
      tuples : int list list;
      rel_version : int;
    }  (** v2: buffer one relation of a replica reseed *)
  | Sync of { version : int; shards : int }
      (** v2: commit the buffered reseed as the replica state at
          catalog [version], partitioned [shards] ways *)
  | Apply of { version : int; mutation : request }
      (** v2: forward one mutation; [version] is the coordinator's
          catalog version {e after} applying it, so a replica can
          detect staleness ([its version <> version - 1]) and request
          a reseed instead of diverging *)

val encode_request : request -> Json.t

val decode_request : Json.t -> (request, string) result

(** [decode_request] plus the names of ignored unknown fields and the
    version the request asked for (1 when ["v"] is absent). *)
val decode_request_ext :
  Json.t -> (request * string list * int, string) result

(** Canonical line (no trailing newline). *)
val request_to_string : request -> string

(** {!request_to_string} with the protocol version pinned explicitly:
    [request_line ~v:2 Hello] is [{"op":"hello","v":2}] - what a
    client sends to probe a server's generation. *)
val request_line : ?v:int -> request -> string

val request_of_string : string -> (request, string) result

(** [request_of_string] plus the names of ignored unknown fields and
    the requested version. *)
val request_of_string_ext :
  string -> (request * string list * int, string) result

(** {2 Shared encoders} *)

val plan_to_json : Planner.plan -> Json.t

val analysis_to_json : Lowerbounds.Bounds.analysis -> Json.t

val counters_to_json : (string * int) list -> Json.t

(** {2 Response builders} - every reply carries a ["status"] field:
    ["ok"], ["degraded"], ["error"], ["timeout"], or ["overloaded"]. *)

(** v1-shaped reply; [status] defaults to ["ok"] (the coordinator
    passes ["degraded"] when a dead worker's shards were absorbed
    locally - the answer is still complete and byte-identical). *)
val ok_fields : ?status:string -> op:string -> (string * Json.t) list -> Json.t

(** ["v"]:2-shaped ok reply of the v2 worker ops. *)
val ok_fields_v2 : op:string -> (string * Json.t) list -> Json.t

(** [code] is a machine-readable discriminator (e.g.
    ["unsupported_version"]); [fields] appends structured detail. *)
val error_response :
  ?code:string -> ?fields:(string * Json.t) list -> string -> Json.t

(** The server-layer structured reject of a request whose ["v"]
    exceeds the server's [protocol_max]: carries
    ["code"]:"unsupported_version" and ["max_version"] so a client can
    renegotiate, unlike the generic decode failure a [v >=] 3 request
    gets. *)
val unsupported_version_response : got:int -> max_supported:int -> Json.t

val overloaded_response : pending:int -> max_pending:int -> Json.t

val timeout_response :
  plan:Planner.plan ->
  reason:string ->
  ticks:int ->
  elapsed_ms:float ->
  partial:(string * int) list ->
  Json.t

(** Timeout reply of an op that carries no query plan (colsub). *)
val timeout_response_op :
  op:string ->
  reason:string ->
  ticks:int ->
  elapsed_ms:float ->
  partial:(string * int) list ->
  Json.t
