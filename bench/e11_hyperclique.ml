(* E11 - Section 8 (hyperclique conjecture): for d >= 3, nothing
   substantially better than trying all k-sets is known - matrix
   multiplication does not help, unlike the graph case (E6).

   We time exhaustive k-hyperclique search in random 3-uniform
   hypergraphs at edge density 1/2 and fit the exponent of n; the
   conjecture's shape is that it stays near k (compare E6, where the
   matmul route drops the k=3 exponent towards omega).

   The same search also runs through the worst-case-optimal join engine:
   hyperedges become a ternary relation of ascending triples, and the
   k-hyperclique query joins E(x_i, x_j, x_l) over every 3-subset
   {i < j < l} of the k variables.  Ascending triples make each
   hyperclique count exactly once, and the pooled variant exercises the
   compiled tier's Domain-parallel driver on a non-binary query. *)

module H = Lb_hypergraph.Hypergraph
module Hc = Lb_hypergraph.Hyperclique
module Prng = Lb_util.Prng
module Pool = Lb_util.Pool
module Q = Lb_relalg.Query
module Rel = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Gj = Lb_relalg.Generic_join
module C = Lb_relalg.Compile

let hyperclique_vars k = Array.init k (fun i -> Printf.sprintf "x%d" i)

(* One atom per 3-subset of the k variables, in ascending position
   order; with ascending edge triples this forces x0 < x1 < ... and so
   counts every k-hyperclique exactly once. *)
let hyperclique_query k =
  let vs = hyperclique_vars k in
  let atoms = ref [] in
  for i = k - 1 downto 2 do
    for j = i - 1 downto 1 do
      for l = j - 1 downto 0 do
        atoms := Q.atom "E" [| vs.(l); vs.(j); vs.(i) |] :: !atoms
      done
    done
  done;
  !atoms

let edge_db h =
  let tuples = Array.to_list (H.edges h) in
  Db.of_list [ ("E", Rel.make [| "e0"; "e1"; "e2" |] tuples) ]

let run () =
  let rows = ref [] in
  let fits = ref [] in
  let cliques_total = ref 0 in
  List.iter
    (fun (k, ns) ->
      let q = hyperclique_query k in
      let order = hyperclique_vars k in
      let results =
        List.map
          (fun n ->
            let rng = Harness.rng ((n * 31) + k) in
            let h = H.random_uniform rng n 3 0.5 in
            let found = ref None in
            let t = Harness.median_time 3 (fun () -> found := Hc.find h ~d:3 ~k) in
            let db = edge_db h in
            let cnt = ref 0 in
            let gj_t =
              Harness.median_time 3 (fun () -> cnt := Gj.count ~order db q)
            in
            (* the join engine and the brute-force search must agree *)
            assert (!cnt > 0 = (!found <> None));
            cliques_total := !cliques_total + !cnt;
            let ir = C.lower ~engine:C.Generic ~order q in
            let gj4_t =
              Pool.with_pool 4 (fun pool ->
                  Harness.median_time 3 (fun () ->
                      assert (C.count ~ctx:(Lb_util.Exec.make ~pool ()) ir db q = !cnt)))
            in
            rows :=
              [
                string_of_int k;
                string_of_int n;
                string_of_int (H.edge_count h);
                string_of_bool (!found <> None);
                Harness.secs t;
                string_of_int !cnt;
                Harness.secs gj_t;
                Harness.secs gj4_t;
              ]
              :: !rows;
            (float_of_int n, t))
          ns
      in
      let xs = Array.of_list (List.map fst results) in
      let ys = Array.of_list (List.map snd results) in
      fits := (k, Harness.fit_power xs ys) :: !fits)
    [ (4, Harness.sizes [ 16; 24; 32; 48 ]); (5, Harness.sizes [ 16; 24; 32 ]) ];
  Harness.counter "E11.hypercliques_total" !cliques_total;
  Harness.table
    [ "k"; "n"; "#edges"; "found"; "search time"; "#cliques"; "GJ"; "GJ 4 dom" ]
    (List.rev !rows);
  print_newline ();
  (* the auxiliary-graph product route at k = 6 (t-sets as vertices,
     triangle via Boolean matmul): agrees with brute force on
     existence, but every candidate still needs the tripartite d-subset
     verification - matmul prunes, it cannot decide, which is the
     conjecture's content *)
  let aux_rows = ref [] in
  List.iter
    (fun n ->
      let rng = Harness.rng ((n * 17) + 6) in
      let h = H.random_uniform rng n 3 0.5 in
      let brute = ref None in
      let t_brute = Harness.median_time 3 (fun () -> brute := Hc.find h ~d:3 ~k:6) in
      let aux = ref None in
      let t_aux =
        Harness.median_time 3 (fun () -> aux := Hc.find_matmul h ~d:3 ~k:6)
      in
      assert ((!aux <> None) = (!brute <> None));
      (match !aux with
      | Some vs -> assert (Hc.is_hyperclique h ~d:3 vs)
      | None -> ());
      aux_rows :=
        [
          string_of_int n;
          string_of_bool (!brute <> None);
          Harness.secs t_brute;
          Harness.secs t_aux;
        ]
        :: !aux_rows)
    (Harness.sizes [ 12; 16; 20 ]);
  Printf.printf "auxiliary-graph product route (k = 6, d = 3):\n";
  Harness.table
    [ "n"; "found"; "brute force"; "aux matmul + verify" ]
    (List.rev !aux_rows);
  let msg =
    String.concat "; "
      (List.rev_map
         (fun (k, e) ->
           Printf.sprintf "k=%d: time ~ n^%.2f" k e)
         !fits)
  in
  Harness.verdict true
    (msg
    ^ "; no matmul shortcut exists for d >= 3 (the hyperclique \
       conjecture), in contrast to the graph case of E6")

let experiment =
  {
    Harness.id = "E11";
    title = "k-hyperclique in 3-uniform hypergraphs: brute force only";
    claim =
      "detecting k-hypercliques in d-uniform hypergraphs (d>=3) needs \
       n^{(1-o(1))k}; matmul does not help (Sec 8)";
    run;
  }
