(** A shard worker: an ordinary {!Server} with the v2 worker ops
    ([subquery], [partition_load], [sync], [apply]) enabled, serving
    TCP.  The catalog is a full replica owned by its coordinator -
    seeded with [partition_load]*/[sync], kept in step with [apply] -
    and [subquery] deep-executes only the shard indices the
    coordinator assigns ({!Lb_relalg.Compile.subset}).

    A worker is also a complete standalone server: v1 clients can
    connect and query the replica directly. *)

(** {!Server.create} with [protocol_max] = {!Protocol.max_version};
    all other settings from [config] (default
    {!Server.default_config}). *)
val create : ?config:Server.config -> unit -> Server.t

(** [run ~port ()] creates a worker and serves TCP connections (one at
    a time) until a [shutdown] request arrives. *)
val run : ?host:string -> ?config:Server.config -> port:int -> unit -> unit
