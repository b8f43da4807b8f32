(* The benchmark's own copy of the catalog.  It replays the same loads
   and writes the server received and computes reference answers with
   Lb_relalg.Query.answer, so every reply is checked by value - outside
   the timed loop, in stream order. *)

module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Json = Lb_service.Json
module Ivm = Lb_service.Ivm

type rel = {
  set : (int * int, unit) Hashtbl.t;
  mutable version : int;
  mutable built : (int * R.t) option; (* relation as of [version] *)
}

type t = {
  rels : (string, rel) Hashtbl.t;
  memo : (string, string list * int list * Ivm.answer) Hashtbl.t;
      (* text -> (its relations, their versions, reference answer) *)
}

let create () = { rels = Hashtbl.create 32; memo = Hashtbl.create 256 }

let load t (name, tuples) =
  let set = Hashtbl.create (List.length tuples) in
  List.iter (fun r -> Hashtbl.replace set (r.(0), r.(1)) ()) tuples;
  let version =
    match Hashtbl.find_opt t.rels name with Some r -> r.version + 1 | None -> 0
  in
  Hashtbl.replace t.rels name { set; version; built = None }

let cardinality t name = Hashtbl.length (Hashtbl.find t.rels name).set

(* Apply a write; returns the relation's cardinality afterwards. *)
let apply t (op : Workload.op) =
  match op with
  | Workload.Read _ -> invalid_arg "Mirror.apply: not a write"
  | Workload.Insert (name, rows) | Workload.Delete (name, rows) ->
      let r = Hashtbl.find t.rels name in
      let insert = match op with Workload.Insert _ -> true | _ -> false in
      List.iter
        (fun row ->
          if insert then Hashtbl.replace r.set (row.(0), row.(1)) ()
          else Hashtbl.remove r.set (row.(0), row.(1)))
        rows;
      r.version <- r.version + 1;
      Hashtbl.length r.set

let relation r =
  match r.built with
  | Some (v, rel) when v = r.version -> rel
  | _ ->
      let rel =
        R.make Workload.attrs
          (Hashtbl.fold (fun (x, y) () acc -> [| x; y |] :: acc) r.set [])
      in
      r.built <- Some (r.version, rel);
      rel

(* Reference canonical answer of [text] on the mirror's current state. *)
let expected t text =
  let versions names = List.map (fun n -> (Hashtbl.find t.rels n).version) names in
  match Hashtbl.find_opt t.memo text with
  | Some (names, vv, ans) when versions names = vv -> ans
  | _ ->
      let q = Q.parse text in
      let names =
        List.sort_uniq compare (List.map (fun (a : Q.atom) -> a.Q.rel) q)
      in
      let db =
        List.fold_left
          (fun db n -> Db.add db n (relation (Hashtbl.find t.rels n)))
          Db.empty names
      in
      let ans = Ivm.canonical q (Q.answer db q) in
      Hashtbl.replace t.memo text (names, versions names, ans);
      ans

(* --- what the timed loop keeps of each reply --- *)

type reply =
  | Answer of {
      attributes : string list;
      count : int;
      rows : int array list option; (* absent for count-only reads *)
    }
  | Written of int (* the relation's cardinality after the write *)
  | Bad of string

let ints = function
  | Json.List l ->
      Array.of_list (List.map (function Json.Int i -> i | _ -> min_int) l)
  | _ -> [||]

let digest (op : Workload.op) reply =
  match reply with
  | Error msg -> Bad msg
  | Ok j -> (
      let field k = Json.member k j in
      match (field "status", op) with
      | Some (Json.String "ok"), Workload.Read _ -> (
          match (field "attributes", field "count") with
          | Some (Json.List a), Some (Json.Int count) ->
              Answer
                {
                  attributes =
                    List.map (function Json.String s -> s | _ -> "") a;
                  count;
                  rows =
                    (match field "rows" with
                    | Some (Json.List rows) -> Some (List.map ints rows)
                    | _ -> None);
                }
          | _ -> Bad "query reply without attributes/count")
      | Some (Json.String "ok"), _ -> (
          match field "rows" with
          | Some (Json.Int n) -> Written n
          | _ -> Bad "write reply without rows")
      | _ -> Bad (Json.to_string j))

(* Check one reply against the mirror, applying writes in stream
   order.  [Error] names what disagreed. *)
let check t (op : Workload.op) reply =
  match (op, reply) with
  | _, Bad msg -> Error msg
  | Workload.Read { text; count_only; limit }, Answer a ->
      let exp = expected t text in
      let count = Array.length exp.Ivm.rows in
      let shown = match limit with Some l -> min l count | None -> count in
      if a.attributes <> Array.to_list exp.Ivm.attributes then
        Error (text ^ ": attributes differ")
      else if a.count <> count then
        Error (Printf.sprintf "%s: count %d, expected %d" text a.count count)
      else if
        (not count_only)
        && a.rows <> Some (List.init shown (fun i -> exp.Ivm.rows.(i)))
      then Error (text ^ ": rows differ")
      else Ok ()
  | (Workload.Insert _ | Workload.Delete _), Written n ->
      let card = apply t op in
      if n = card then Ok ()
      else Error (Printf.sprintf "write: cardinality %d, expected %d" n card)
  | (Workload.Insert _ | Workload.Delete _), Answer _ ->
      ignore (apply t op);
      Error "write answered as a query"
  | Workload.Read _, Written _ -> Error "read answered as a write"
