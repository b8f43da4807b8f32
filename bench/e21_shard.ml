(* E21 - the sharded execution tier: hash-partitioned WCOJ runs are
   bit-identical to unsharded runs.

   The triangle query over a random edge relation, evaluated by the
   sequential interpreted Generic Join and Leapfrog (the reference) and
   through the compiled sharded driver at several shard counts
   (sequential and Domain-parallel): the claim of
   the sharding construction is that hash-partitioning on the first
   join variable commutes with the join, so the answer count AND the
   engine work counters (intersections, seeks, emitted) come out
   identical - sharding buys parallelism without touching the
   measurable execution.  The counters recorded here are deterministic
   per seed and survive --counters-only, so BENCH_shard.json sits under
   the same byte-identity determinism gate as the other artifacts. *)

module Gj = Lb_relalg.Generic_join
module Lf = Lb_relalg.Leapfrog
module C = Lb_relalg.Compile
module Rel = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Q = Lb_relalg.Query
module Pool = Lb_util.Pool
module Exec = Lb_util.Exec
module Prng = Lb_util.Prng

let triangle = "E(x,y), E(y,z), E(z,x)"

let random_db rng n =
  let m = 6 * n in
  let edges =
    List.init m (fun _ -> [| Prng.int rng n; Prng.int rng n |])
  in
  Db.of_list [ ("E", Rel.make [| "u"; "v" |] edges) ]

let shard_counts = [ 2; 3; 7 ]

let run () =
  let q = Q.parse triangle in
  let gj_ir = C.lower ~engine:C.Generic q in
  let lf_ir = C.lower ~engine:C.Leapfrog q in
  let rows = ref [] in
  let identical = ref true in
  let last = ref None in
  List.iter
    (fun n ->
      let rng = Harness.rng (21_000 + n) in
      let db = random_db rng n in
      let c0 = Gj.fresh_counters () in
      let count0, t0 = Harness.time (fun () -> Gj.count ~counters:c0 db q) in
      let l0 = Lf.fresh_counters () in
      let lcount0 = Lf.count ~counters:l0 db q in
      if lcount0 <> count0 then identical := false;
      let t_sharded = ref 0.0 in
      List.iter
        (fun k ->
          let ck = C.fresh_counters () in
          let countk, tk =
            Harness.time (fun () ->
                C.count_sharded ~counters:ck ~shards:k gj_ir db q)
          in
          if k = List.hd shard_counts then t_sharded := tk;
          if
            countk <> count0
            || ck.C.work <> c0.Gj.intersections
            || ck.C.emitted <> c0.Gj.emitted
          then identical := false;
          let lk = C.fresh_counters () in
          let lcountk = C.count_sharded ~counters:lk ~shards:k lf_ir db q in
          if
            lcountk <> count0
            || lk.C.work <> l0.Lf.seeks
            || lk.C.emitted <> l0.Lf.emitted
          then identical := false)
        shard_counts;
      (* the Domain-parallel sharded run must not change anything either *)
      Pool.with_pool 2 (fun pool ->
          let cp = C.fresh_counters () in
          let countp =
            C.count_sharded ~counters:cp
              ~ctx:(Exec.make ~pool ())
              ~shards:3 gj_ir db q
          in
          if countp <> count0 || cp.C.work <> c0.Gj.intersections then
            identical := false);
      last := Some (count0, c0, l0);
      rows :=
        [
          string_of_int n;
          string_of_int count0;
          Harness.secs t0;
          Harness.secs !t_sharded;
          string_of_int c0.Gj.intersections;
          string_of_int l0.Lf.seeks;
        ]
        :: !rows;
      Harness.metric (Printf.sprintf "E21.unsharded_secs.n%d" n) t0;
      Harness.metric (Printf.sprintf "E21.sharded_secs.n%d" n) !t_sharded)
    (Harness.sizes [ 48; 96; 192 ]);
  Harness.table
    [ "n"; "triangles"; "unsharded"; "sharded k=2"; "gj intersections";
      "lf seeks" ]
    (List.rev !rows);
  (match !last with
  | None -> ()
  | Some (count0, c0, l0) ->
      Harness.counter "E21.triangles" count0;
      Harness.counter "E21.gj.intersections" c0.Gj.intersections;
      Harness.counter "E21.gj.emitted" c0.Gj.emitted;
      Harness.counter "E21.lf.seeks" l0.Lf.seeks;
      Harness.counter "E21.lf.emitted" l0.Lf.emitted;
      Harness.counter "E21.identical" (if !identical then 1 else 0));
  Harness.verdict !identical
    "compiled sharded Generic Join and Leapfrog (k in {2,3,7}, \
     sequential and pooled) reproduced the sequential interpreted answer \
     counts and work counters bit-for-bit: hash partitioning on the first join variable commutes \
     with the join, so the sharded tier parallelizes without changing \
     what is measured"

let experiment =
  {
    Harness.id = "E21";
    title = "sharded WCOJ execution: bit-identical answers and counters";
    claim =
      "hash-partitioning a worst-case-optimal join on its first variable \
       shards the work across domains while leaving the answer and the \
       per-run work counters exactly unchanged";
    run;
  }
