(** Checkpoint files: one CRC-framed canonical-JSON document, written
    atomically (temp file + fsync + rename), so a crash during a
    checkpoint leaves either the previous snapshot or the new one -
    never a torn file.  The document schema is the server's business;
    this module only guarantees all-or-nothing persistence. *)

(** Atomically replace the snapshot at [path]. *)
val write : path:string -> Json.t -> unit

(** [None] when the file is missing, torn, corrupt, or carries trailing
    garbage - recovery then falls back to the WAL alone.  Never
    raises. *)
val read : string -> Json.t option

(** {1 Columnar image}

    The functions below are kept only for perfbench's trace, which
    times an image write per checkpoint; the server neither writes nor
    reads an image, and recovery adopts the JSON document's sorted
    rows directly.  A [snapshot.lbt.cols] file left in a data directory
    by an older version is ignored and can be deleted. *)

(** [cols_path path] is the columnar image sidecar next to the JSON
    snapshot at [path] ([path ^ ".cols"]). *)
val cols_path : string -> string

(** [write_image ~path ~stamp rels] atomically replaces the columnar
    image sidecar of the snapshot at [path].  Each element of [rels] is
    [(name, nrows, cols)]: the relation's row count and its trie-level
    columns (each of length [nrows], lexicographically sorted - exactly
    what {!Lb_relalg.Trie.column} exposes after a build).  [stamp] must
    identify the JSON snapshot the image mirrors (for example a digest
    of the snapshot payload); {!read_image} refuses the image
    under any other stamp.  The raw data region is written through an
    [Unix.map_file] mapping, so columns of any size are blitted without
    heap copies. *)
val write_image :
  path:string -> stamp:string -> (string * int * Lb_util.Column.t array) list -> unit

(** [read_image ~path ~stamp] maps the columnar sidecar of the snapshot
    at [path] and returns zero-copy {!Lb_util.Column} views over the
    mapped data, one [(name, nrows, columns)] per relation in image
    order.  Returns [None] - never raises - when the sidecar is
    missing, torn, shorter than its header promises, or stamped for a
    different snapshot.
    The data region is deliberately not checksummed (the image is a
    cache keyed by the CRC-framed header's stamp); the JSON snapshot
    remains the authority. *)
val read_image :
  path:string -> stamp:string -> (string * int * Lb_util.Column.t array) list option
