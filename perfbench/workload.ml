(* The four served workloads: a seeded catalog of binary relations plus
   an endless seeded request stream.  The same seed yields the same
   catalog and the same stream in the served run, the traced run and
   the self-test; the server only ever sees the generated lines.

   Every relation is a directed graph over [0, verts) with schema
   (x, y).  Query shapes and the route the planner gives them:
   - triangle   r(a,b), s(b,c), t(a,c)            Leapfrog (compiled)
   - 4-cycle    r(a,b), s(b,c), t(c,d), u(a,d)    Leapfrog (compiled)
   - 3-path     r(a,b), s(b,c), t(c,d), u(d,d)    Yannakakis
     (the path ends on a self-loop atom, so the answer stays small)
   - 5-cycle    r(a,b), ..., v(a,e)               Decomposed
   - tri+pend.  r(a,b), s(b,c), t(a,c), u(c,d)    Decomposed *)

module Prng = Lb_util.Prng
module P = Lb_service.Protocol

type kind = Hot_reads | Cold_joins | Fhw_joins | Write_mix

let all = [ Hot_reads; Cold_joins; Fhw_joins; Write_mix ]

let name = function
  | Hot_reads -> "hot-reads"
  | Cold_joins -> "cold-joins"
  | Fhw_joins -> "fhw-joins"
  | Write_mix -> "write-mix"

let of_name s = List.find_opt (fun k -> name k = s) all

type read = { text : string; count_only : bool; limit : int option }

type op =
  | Read of read
  | Insert of string * int array list
  | Delete of string * int array list

let attrs = [| "x"; "y" |]

(* Relations no read touches: the write probe of the read-only
   workloads goes here, so it measures the write path without IVM
   work. *)
let probe_rel = "probe"

(* Sizes chosen by the sizing probes recorded in README.md. *)
type sizes = {
  nrels : int;
  verts : int;
  edges : int;
  working_set : int; (* hot-reads / write-mix: warm query texts *)
}

let sizes = function
  | Hot_reads -> { nrels = 8; verts = 600; edges = 2000; working_set = 32 }
  | Cold_joins -> { nrels = 24; verts = 600; edges = 2000; working_set = 0 }
  | Fhw_joins -> { nrels = 24; verts = 100; edges = 250; working_set = 0 }
  | Write_mix -> { nrels = 16; verts = 300; edges = 1500; working_set = 12 }

let probe_sizes = (400, 1000)

let rel_name k i =
  Printf.sprintf "%c%d"
    (match k with
    | Hot_reads -> 'h'
    | Cold_joins -> 'c'
    | Fhw_joins -> 'f'
    | Write_mix -> 'w')
    i

(* --- a mutable model of one relation, for sampling rows to delete --- *)

type rows = { set : (int * int, int) Hashtbl.t; mutable arr : (int * int) array; mutable n : int }

let rows_create () = { set = Hashtbl.create 1024; arr = Array.make 1024 (0, 0); n = 0 }

let rows_add r p =
  if not (Hashtbl.mem r.set p) then begin
    if r.n = Array.length r.arr then begin
      let a = Array.make (2 * r.n) (0, 0) in
      Array.blit r.arr 0 a 0 r.n;
      r.arr <- a
    end;
    r.arr.(r.n) <- p;
    Hashtbl.replace r.set p r.n;
    r.n <- r.n + 1
  end

let rows_remove r p =
  match Hashtbl.find_opt r.set p with
  | None -> ()
  | Some i ->
      let last = r.arr.(r.n - 1) in
      r.arr.(i) <- last;
      Hashtbl.replace r.set last i;
      Hashtbl.remove r.set p;
      r.n <- r.n - 1

let random_graph rng ~verts ~edges =
  let r = rows_create () in
  while r.n < edges do
    rows_add r (Prng.int rng verts, Prng.int rng verts)
  done;
  r

let tuples_of r =
  List.init r.n (fun i ->
      let x, y = r.arr.(i) in
      [| x; y |])

(* --- query texts --- *)

let shape_text shape rels =
  let r = Array.of_list rels in
  match shape with
  | `Triangle -> Printf.sprintf "%s(a,b), %s(b,c), %s(a,c)" r.(0) r.(1) r.(2)
  | `Cycle4 ->
      Printf.sprintf "%s(a,b), %s(b,c), %s(c,d), %s(a,d)" r.(0) r.(1) r.(2) r.(3)
  | `Path3 ->
      Printf.sprintf "%s(a,b), %s(b,c), %s(c,d), %s(d,d)" r.(0) r.(1) r.(2) r.(3)
  | `Cycle5 ->
      Printf.sprintf "%s(a,b), %s(b,c), %s(c,d), %s(d,e), %s(a,e)" r.(0) r.(1)
        r.(2) r.(3) r.(4)
  | `Pendant ->
      Printf.sprintf "%s(a,b), %s(b,c), %s(a,c), %s(c,d)" r.(0) r.(1) r.(2) r.(3)

let arity = function
  | `Triangle -> 3
  | `Cycle4 | `Path3 | `Pendant -> 4
  | `Cycle5 -> 5

(* Distinct relations, so no text is a self-join. *)
let pick_rels rng k n =
  let picked = Prng.shuffle rng (Prng.sample rng (sizes k).nrels n) in
  Array.to_list (Array.map (rel_name k) picked)

let flat_shape rng =
  match Prng.int rng 20 with
  | n when n < 9 -> `Triangle
  | n when n < 16 -> `Cycle4
  | _ -> `Path3

(* 85% 5-cycles: the two shapes differ in cost by about 5x, and an
   even mix would put the median on the boundary between them. *)
let fhw_shape rng = if Prng.int rng 20 < 17 then `Cycle5 else `Pendant

let random_text rng k =
  let shape =
    match k with Fhw_joins -> fhw_shape rng | _ -> flat_shape rng
  in
  shape_text shape (pick_rels rng k (arity shape))

(* A warm working set with the flat mix in fixed proportions and every
   relation used about equally often: the seed picks which relations
   go where, but not how much IVM work a write to one of them causes,
   so runs of different seeds do comparable work. *)
let stratified_set rng k n =
  let names = Prng.shuffle rng (Array.init (sizes k).nrels (rel_name k)) in
  let next = ref 0 in
  Array.init n (fun i ->
      let shape =
        match i * 20 / n with
        | f when f < 9 -> `Triangle
        | f when f < 16 -> `Cycle4
        | _ -> `Path3
      in
      let rels =
        List.init (arity shape) (fun j ->
            names.((!next + j) mod Array.length names))
      in
      next := !next + arity shape;
      shape_text shape rels)

(* About 30% of reads return up to 10 rows; the rest are count-only. *)
let read_of rng text =
  if Prng.int rng 10 < 3 then
    Read { text; count_only = false; limit = Some (1 + Prng.int rng 10) }
  else Read { text; count_only = true; limit = None }

(* --- the generator --- *)

type t = {
  kind : kind;
  relations : (string * int array list) list; (* load order *)
  working_set : string array; (* texts warmed before timing *)
  next : unit -> op; (* the timed stream *)
  next_write : unit -> op; (* probe / recovery-tail writes *)
}

(* [batch] rows [r] lacks, added to [r]. *)
let fresh_rows rng r verts batch =
  let fresh = ref [] and picked = Hashtbl.create 16 in
  while List.length !fresh < batch do
    let p = (Prng.int rng verts, Prng.int rng verts) in
    if not (Hashtbl.mem r.set p || Hashtbl.mem picked p) then begin
      Hashtbl.replace picked p ();
      fresh := p :: !fresh
    end
  done;
  List.iter (rows_add r) !fresh;
  List.rev_map (fun (x, y) -> [| x; y |]) !fresh

(* Writes: insert:delete 3:1, batches of 1-16 rows.  Inserts draw rows
   the relation lacks and deletes draw rows it holds, so every row of
   a write is effective.  [model] tracks the generator's own view of
   each relation. *)
let write_gen rng model names verts () =
  let name = names.(Prng.int rng (Array.length names)) in
  let r = Hashtbl.find model name in
  let batch = 1 + Prng.int rng 16 in
  if Prng.int rng 4 < 3 || r.n < batch then Insert (name, fresh_rows rng r verts batch)
  else begin
    let gone = ref [] in
    for _ = 1 to batch do
      let p = r.arr.(Prng.int rng r.n) in
      rows_remove r p;
      gone := p :: !gone
    done;
    Delete (name, List.rev_map (fun (x, y) -> [| x; y |]) !gone)
  end

(* The write probe of the read-only workloads: 1-16 fresh rows inserted
   into [probe_rel], then the same rows deleted.  The relation, and with
   it the cost of each probe write and checkpoint, stays the same however
   long a run lasts. *)
let probe_gen rng model verts =
  let r = Hashtbl.find model probe_rel in
  let pending = ref [] in
  fun () ->
    match !pending with
    | [] ->
        let rows = fresh_rows rng r verts (1 + Prng.int rng 16) in
        pending := rows;
        Insert (probe_rel, rows)
    | rows ->
        pending := [];
        List.iter (fun row -> rows_remove r (row.(0), row.(1))) rows;
        Delete (probe_rel, rows)

let make kind ~seed =
  let rng = Prng.create seed in
  let sz = sizes kind in
  let model = Hashtbl.create 32 in
  let graphs =
    List.init sz.nrels (fun i ->
        let g = random_graph rng ~verts:sz.verts ~edges:sz.edges in
        Hashtbl.replace model (rel_name kind i) g;
        (rel_name kind i, g))
  in
  let pverts, pedges = probe_sizes in
  let probe = random_graph rng ~verts:pverts ~edges:pedges in
  Hashtbl.replace model probe_rel probe;
  let relations =
    List.map (fun (n, g) -> (n, tuples_of g)) (graphs @ [ (probe_rel, probe) ])
  in
  let working_set = stratified_set rng kind sz.working_set in
  let stream_rng = Prng.split rng and write_rng = Prng.split rng in
  let next_write =
    match kind with
    | Write_mix ->
        write_gen write_rng model (Array.of_list (List.map fst graphs)) sz.verts
    | _ -> probe_gen write_rng model pverts
  in
  let next () =
    match kind with
    | Hot_reads ->
        read_of stream_rng
          working_set.(Prng.int stream_rng (Array.length working_set))
    | Cold_joins | Fhw_joins -> read_of stream_rng (random_text stream_rng kind)
    | Write_mix ->
        if Prng.bool stream_rng then next_write ()
        else
          read_of stream_rng
            working_set.(Prng.int stream_rng (Array.length working_set))
  in
  { kind; relations; working_set; next; next_write }

(* --- wire encoding --- *)

let load_line (name, tuples) =
  P.request_to_string
    (P.Load
       { name; attrs = Array.to_list attrs; tuples = List.map Array.to_list tuples })

let line = function
  | Read { text; count_only; limit } ->
      P.request_to_string
        (P.Query { text; opts = { P.default_opts with count_only; limit } })
  | Insert (name, rows) ->
      P.request_to_string (P.Insert { name; tuples = List.map Array.to_list rows })
  | Delete (name, rows) ->
      P.request_to_string (P.Delete { name; tuples = List.map Array.to_list rows })

let is_write = function Read _ -> false | Insert _ | Delete _ -> true
