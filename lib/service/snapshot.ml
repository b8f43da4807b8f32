(* Checkpoint files: one canonical-JSON document, CRC-framed with the
   WAL's framing (magic + length/payload/CRC), written atomically -
   build a temp file in the same directory, fsync it, rename over the
   target.  A crash during [write] leaves either the old snapshot or
   the new one, never a torn file; a torn or corrupt file reads as
   absent, so recovery falls back to the WAL alone. *)

let magic = "LBTSNP1\n"

let write ~path doc =
  let tmp = path ^ ".tmp" in
  let payload = Json.to_string doc in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let s = magic ^ Wal.frame payload in
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let w = ref 0 in
      while !w < n do
        w := !w + Unix.write fd b !w (n - !w)
      done;
      Unix.fsync fd);
  Sys.rename tmp path

(* --- columnar image sidecar ---

   A raw columnar image of a catalog: per relation, the
   lexicographically sorted columns as native-int words, read back as
   zero-copy {!Lb_util.Column} views over a [Unix.map_file] mapping.
   Kept only for perfbench's trace; the server neither writes nor reads
   it (recovery adopts the JSON document's sorted rows).

   The image is never the authority: its CRC-framed header
   carries a [stamp] (the digest of the JSON snapshot it was built
   from), and [read_image] returns [None] unless the caller's stamp
   matches - any mismatch, torn header, or short file reads as
   absent.  The data region itself is not checksummed; it is trusted
   exactly as far as the stamp ties it to the CRC'd JSON document.

   Layout: magic, one Wal-framed canonical-JSON header
   {stamp; rels: [{name; rows; cols; off}]} (off in words from the
   data region), zero padding to an 8-byte boundary, then the columns
   back to back (host endianness - this file never travels). *)

module Column = Lb_util.Column

let cols_magic = "LBTCOL1\n"

let cols_path path = path ^ ".cols"

let align8 n = (n + 7) land lnot 7

let map_ints fd ~pos ~len shared =
  Column.of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int Bigarray.c_layout
       shared [| len |])

let write_image ~path ~stamp rels =
  let path = cols_path path in
  let tmp = path ^ ".tmp" in
  let off = ref 0 in
  let metas =
    List.map
      (fun (name, nrows, cols) ->
        let o = !off in
        off := !off + (nrows * Array.length cols);
        Json.Obj
          [
            ("name", Json.String name);
            ("rows", Json.Int nrows);
            ("cols", Json.Int (Array.length cols));
            ("off", Json.Int o);
          ])
      rels
  in
  let total = !off in
  let header =
    Json.to_string
      (Json.Obj [ ("stamp", Json.String stamp); ("rels", Json.List metas) ])
  in
  let prefix = cols_magic ^ Wal.frame header in
  let data_off = align8 (String.length prefix) in
  let fd = Unix.openfile tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let b = Bytes.make data_off '\000' in
      Bytes.blit_string prefix 0 b 0 (String.length prefix);
      let n = Bytes.length b in
      let w = ref 0 in
      while !w < n do
        w := !w + Unix.write fd b !w (n - !w)
      done;
      if total > 0 then begin
        let dst = map_ints fd ~pos:data_off ~len:total true in
        let p = ref 0 in
        List.iter
          (fun (_, nrows, cols) ->
            Array.iter
              (fun col ->
                Column.blit ~src:col ~src_pos:0 ~dst ~dst_pos:!p ~len:nrows;
                p := !p + nrows)
              cols)
          rels
      end;
      Unix.fsync fd);
  Sys.rename tmp path

let read_image ~path ~stamp =
  let path = cols_path path in
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let size = (Unix.fstat fd).Unix.st_size in
          let m = String.length cols_magic in
          (* the header is small; read a bounded prefix through the
             normal IO path, then map only the data region *)
          let pre_len = min size (m + 65536) in
          let pre = Bytes.create pre_len in
          let r = ref 0 in
          (try
             while !r < pre_len do
               let k = Unix.read fd pre !r (pre_len - !r) in
               if k = 0 then raise Exit;
               r := !r + k
             done
           with Exit -> ());
          let pre = Bytes.sub_string pre 0 !r in
          if String.length pre < m || String.sub pre 0 m <> cols_magic then None
          else
            match Wal.unframe pre m with
            | None -> None
            | Some (header, next) -> (
                match Json.parse header with
                | exception Json.Parse_error _ -> None
                | doc -> (
                    let data_off = align8 next in
                    match
                      (Json.string_field "stamp" doc, Json.member "rels" doc)
                    with
                    | Ok s, Some (Json.List metas) when s = stamp -> (
                        try
                          let rels =
                            List.map
                              (fun meta ->
                                let req f =
                                  match Json.int_field f meta with
                                  | Ok v when v >= 0 -> v
                                  | _ -> raise Exit
                                in
                                let name =
                                  match Json.string_field "name" meta with
                                  | Ok n -> n
                                  | Error _ -> raise Exit
                                in
                                (name, req "rows", req "cols", req "off"))
                              metas
                          in
                          let total =
                            List.fold_left
                              (fun acc (_, rows, cols, off) ->
                                if off <> acc then raise Exit;
                                acc + (rows * cols))
                              0 rels
                          in
                          if data_off + (8 * total) > size then None
                          else begin
                            let data =
                              if total = 0 then Column.empty
                              else map_ints fd ~pos:data_off ~len:total false
                            in
                            Some
                              (List.map
                                 (fun (name, nrows, ncols, off) ->
                                   ( name,
                                     nrows,
                                     Array.init ncols (fun d ->
                                         Column.sub data
                                           (off + (d * nrows))
                                           nrows) ))
                                 rels)
                          end
                        with Exit -> None)
                    | _ -> None)))

let read path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let m = String.length magic in
      if String.length s < m || String.sub s 0 m <> magic then None
      else
        match Wal.unframe s m with
        | None -> None
        | Some (payload, next) when next = String.length s -> (
            match Json.parse payload with
            | exception Json.Parse_error _ -> None
            | doc -> Some doc)
        | Some _ -> None
