(* E22 - the plan compilation tier: monomorphic loop nests vs the
   interpreted WCOJ engines.

   The triangle query over a dense random edge relation, evaluated by
   interpreted Generic Join / Leapfrog and by the same plans lowered
   once through Lb_relalg.Compile and re-run from the cached IR.  The
   compiled tier's contract is bit-identity: the answer count AND the
   work counters (intersections, seeks, emitted) must come out exactly
   equal on every driver - sequential, Domain-parallel, sharded, and
   under a mid-run budget exhaustion (partial counters included).  The
   counters recorded here are deterministic per seed and survive
   --counters-only, so BENCH_compile.json sits under the same
   byte-identity determinism gate as the other artifacts; the measured
   interpreted/compiled time ratios are reported as E22.*.speedup
   metrics (timings, excluded from the gate). *)

module Gj = Lb_relalg.Generic_join
module Lf = Lb_relalg.Leapfrog
module C = Lb_relalg.Compile
module Rel = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Q = Lb_relalg.Query
module Pool = Lb_util.Pool
module Exec = Lb_util.Exec
module Budget = Lb_util.Budget
module Prng = Lb_util.Prng

let triangle = "E(x,y), E(y,z), E(z,x)"

(* Dense directed graph (p = 0.6): enumeration work grows much faster
   than the m log m trie build, so the loop-nest difference is what the
   clock sees rather than the shared sort. *)
let random_db rng n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Prng.bernoulli rng 0.6 then edges := [| u; v |] :: !edges
    done
  done;
  Db.of_list [ ("E", Rel.make [| "u"; "v" |] !edges) ]

let run () =
  let q = Q.parse triangle in
  let gj_ir = C.lower ~engine:C.Generic q in
  let lf_ir = C.lower ~engine:C.Leapfrog q in
  let rows = ref [] in
  let identical = ref true in
  let last = ref None in
  let gj_speedup = ref 0.0 and lf_speedup = ref 0.0 in
  let gj_loop = ref 0.0 and lf_loop = ref 0.0 in
  List.iter
    (fun n ->
      let rng = Harness.rng (22_000 + n) in
      let db = random_db rng n in
      (* bit-identity: sequential *)
      let ci = Gj.fresh_counters () in
      let count0 = Gj.count ~counters:ci db q in
      let cc = C.fresh_counters () in
      let countc = C.count ~counters:cc gj_ir db q in
      if
        countc <> count0
        || cc.C.work <> ci.Gj.intersections
        || cc.C.emitted <> ci.Gj.emitted
      then identical := false;
      let li = Lf.fresh_counters () in
      let lcount0 = Lf.count ~counters:li db q in
      let lc = C.fresh_counters () in
      let lcountc = C.count ~counters:lc lf_ir db q in
      if
        lcountc <> lcount0 || lcount0 <> count0
        || lc.C.work <> li.Lf.seeks
        || lc.C.emitted <> li.Lf.emitted
      then identical := false;
      (* bit-identity: compiled sharded and Domain-parallel drivers *)
      let cs = C.fresh_counters () in
      let counts = C.count_sharded ~counters:cs ~shards:3 gj_ir db q in
      if counts <> count0 || cs.C.work <> ci.Gj.intersections then
        identical := false;
      Pool.with_pool 2 (fun pool ->
          let cp = C.fresh_counters () in
          let countp =
            C.count ~counters:cp
              ~ctx:(Exec.make ~pool ())
              gj_ir db q
          in
          if countp <> count0 || cp.C.work <> ci.Gj.intersections then
            identical := false);
      (* bit-identity: partial counters after budget exhaustion *)
      let partial run =
        let c = C.fresh_counters () and gc = Gj.fresh_counters () in
        (match
           Budget.protect (fun () ->
               run (Budget.create ~ticks:64 ()) (`Compiled c))
         with
        | Budget.Done (_ : int) | Budget.Exhausted _ -> ());
        (match
           Budget.protect (fun () ->
               run (Budget.create ~ticks:64 ()) (`Interpreted gc))
         with
        | Budget.Done (_ : int) | Budget.Exhausted _ -> ());
        (c, gc)
      in
      let pc, pg =
        partial (fun budget who ->
            let ctx = Exec.make ~budget () in
            match who with
            | `Compiled c -> C.count ~counters:c ~ctx gj_ir db q
            | `Interpreted gc -> Gj.count ~counters:gc ~ctx db q)
      in
      if pc.C.work <> pg.Gj.intersections || pc.C.emitted <> pg.Gj.emitted
      then identical := false;
      (* timings: interpreted vs compiled over the same inputs.  Both
         sides rebuild tries per call (the compiled tier caches only
         the schema-level IR), so the shared trie-build time is also
         measured on its own and a loop-nest-only ratio reported:
         enumeration is the phase compilation can actually touch. *)
      let t_build =
        Harness.min_time 5 (fun () ->
            List.iter
              (fun a ->
                ignore
                  (Lb_relalg.Trie.build ~order:gj_ir.C.order (Q.bind_atom db a)))
              q)
      in
      let t_gj_i =
        Harness.min_time 5 (fun () -> assert (Gj.count db q = count0))
      in
      let t_gj_c =
        Harness.min_time 5 (fun () -> assert (C.count gj_ir db q = count0))
      in
      let t_lf_i =
        Harness.min_time 5 (fun () -> assert (Lf.count db q = count0))
      in
      let t_lf_c =
        Harness.min_time 5 (fun () -> assert (C.count lf_ir db q = count0))
      in
      let loop ti tc = (ti -. t_build) /. Float.max 1e-9 (tc -. t_build) in
      gj_speedup := t_gj_i /. t_gj_c;
      lf_speedup := t_lf_i /. t_lf_c;
      gj_loop := loop t_gj_i t_gj_c;
      lf_loop := loop t_lf_i t_lf_c;
      last := Some (count0, ci, li);
      rows :=
        [
          string_of_int n;
          string_of_int count0;
          Harness.secs t_build;
          Harness.secs t_gj_i;
          Harness.secs t_gj_c;
          Printf.sprintf "%.2fx" !gj_speedup;
          Printf.sprintf "%.2fx" !gj_loop;
          Harness.secs t_lf_i;
          Harness.secs t_lf_c;
          Printf.sprintf "%.2fx" !lf_speedup;
          Printf.sprintf "%.2fx" !lf_loop;
        ]
        :: !rows;
      Harness.metric (Printf.sprintf "E22.build_secs.n%d" n) t_build;
      Harness.metric (Printf.sprintf "E22.gj_interp_secs.n%d" n) t_gj_i;
      Harness.metric (Printf.sprintf "E22.gj_compiled_secs.n%d" n) t_gj_c;
      Harness.metric (Printf.sprintf "E22.lf_interp_secs.n%d" n) t_lf_i;
      Harness.metric (Printf.sprintf "E22.lf_compiled_secs.n%d" n) t_lf_c)
    (Harness.sizes [ 64; 96; 128 ]);
  Harness.table
    [
      "n"; "triangles"; "build"; "gj interp"; "gj compiled"; "gj e2e";
      "gj loop"; "lf interp"; "lf compiled"; "lf e2e"; "lf loop";
    ]
    (List.rev !rows);
  Harness.metric "E22.gj.speedup" !gj_speedup;
  Harness.metric "E22.lf.speedup" !lf_speedup;
  Harness.metric "E22.gj.loop_speedup" !gj_loop;
  Harness.metric "E22.lf.loop_speedup" !lf_loop;
  (* per-level shape evidence: the loop-nest width at each level of the
     lowered plan - width 1 and 2 levels run the straight-line
     specialized bodies, so for the triangle every level is on the
     specialized path *)
  Array.iteri
    (fun l _ ->
      Harness.counter
        (Printf.sprintf "E22.ir.np.l%d" l)
        (gj_ir.C.lv_off.(l + 1) - gj_ir.C.lv_off.(l)))
    gj_ir.C.order;
  (match !last with
  | None -> ()
  | Some (count0, ci, li) ->
      Harness.counter "E22.triangles" count0;
      Harness.counter "E22.gj.intersections" ci.Gj.intersections;
      Harness.counter "E22.gj.emitted" ci.Gj.emitted;
      Harness.counter "E22.lf.seeks" li.Lf.seeks;
      Harness.counter "E22.lf.emitted" li.Lf.emitted;
      Harness.counter "E22.ir.weight.gj" (C.weight gj_ir);
      Harness.counter "E22.ir.weight.lf" (C.weight lf_ir);
      Harness.counter "E22.identical" (if !identical then 1 else 0));
  Harness.verdict !identical
    (Printf.sprintf
       "compiled Generic Join and Leapfrog loop nests reproduced the \
        interpreted counts, work counters, sharded/pooled runs and \
        budget-exhaustion partials bit-for-bit; at the largest size the \
        end-to-end interpreted/compiled ratios are GJ %.2fx / LF %.2fx \
        and the loop-nest-only ratios (shared trie-build time factored \
        out) GJ %.2fx / LF %.2fx (see E22.*.speedup, \
        E22.*.loop_speedup)"
       !gj_speedup !lf_speedup !gj_loop !lf_loop)

let experiment =
  {
    Harness.id = "E22";
    title = "plan compilation: monomorphic loop nests vs interpreted WCOJ";
    claim =
      "lowering a WCOJ plan once to a monomorphic loop nest over flat int \
       arrays speeds up evaluation without changing a single counted unit \
       of work - answers, counters, and budget ticks stay bit-identical";
    run;
  }
