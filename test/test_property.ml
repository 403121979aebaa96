(* Property-based testing: on randomly generated Cilk programs, the
   detectors must agree exactly with the brute-force dag oracles —
   Theorem 4 for Peer-Set and the §6 correctness claim for SP+ — and the
   runtime must keep reducer results schedule-independent for ostensibly
   deterministic programs. *)

open Rader_runtime
open Rader_core
module G = Rader_testkit.Gen_program

let qtest ?(count = 150) name gen prop =
  QCheck2.Test.make ~name ~count ~print:G.print gen prop

(* Steal specs derived deterministically from a program-independent list,
   so failures reproduce. *)
let specs_for_sp_plus =
  [
    Steal_spec.none;
    Steal_spec.all ();
    Steal_spec.all ~policy:Steal_spec.Reduce_at_sync ();
    Steal_spec.random ~seed:11 ~density:0.4 ();
    Steal_spec.random ~seed:77 ~density:0.8 ();
    Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ 1; 2 ];
    Steal_spec.at_local_indices
      ~policy:(Steal_spec.Reduce_schedule (fun k -> if k = 3 then 1 else 0))
      [ 1; 2; 3 ];
  ]

(* ... plus a generated spec per program, widening schedule coverage: a
   random Bernoulli seed/density with a random reduce policy. *)
let gen_spec =
  let open QCheck2.Gen in
  let* seed = int_bound 10_000 in
  let* density = float_bound_inclusive 1.0 in
  let* policy =
    oneof
      [
        return Steal_spec.Reduce_eagerly;
        return Steal_spec.Reduce_at_sync;
        (let* modulus = int_range 1 3 in
         let* amount = int_range 1 2 in
         return
           (Steal_spec.Reduce_schedule (fun k -> if k mod modulus = 0 then amount else 0)));
      ]
  in
  return (Steal_spec.random ~policy ~seed ~density ())

(* Peer-Set reports exactly the oracle's racy reducers (Theorem 4),
   evaluated on the serial execution. *)
let prop_peer_set_iff_oracle =
  qtest ~count:500 "Peer-Set = oracle (view-read races)"
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      let eng = Engine.create ~record:true () in
      let d = Peer_set.attach eng in
      ignore (Engine.run eng (G.interpret p));
      let detected =
        List.sort_uniq compare
          (List.map (fun r -> r.Report.subject) (Peer_set.races d))
      in
      let truth = Oracle.view_read_races eng in
      if detected <> truth then
        QCheck2.Test.fail_reportf "peer-set %s vs oracle %s"
          (String.concat "," (List.map string_of_int detected))
          (String.concat "," (List.map string_of_int truth))
      else true)

(* SP-bags agrees with the oracle on reducer-free programs under the
   serial schedule (Feng & Leiserson's guarantee). *)
let prop_sp_bags_iff_oracle_no_reducers =
  qtest ~count:300 "SP-bags = oracle (no reducers)"
    (G.gen ~with_reducers:false ~racy:false)
    (fun p ->
      let eng = Engine.create ~record:true () in
      let d = Sp_bags.attach eng in
      ignore (Engine.run eng (G.interpret p));
      let detected =
        List.sort_uniq compare (List.map (fun r -> r.Report.subject) (Sp_bags.races d))
      in
      detected = Oracle.determinacy_races eng)

(* SP-order and offset-span (the related-work baselines) also agree with
   the oracle on reducer-free programs under the serial schedule. *)
let prop_sp_order_iff_oracle_no_reducers =
  qtest ~count:400 "SP-order = oracle (no reducers)"
    (G.gen ~with_reducers:false ~racy:false)
    (fun p ->
      let eng = Engine.create ~record:true () in
      let d = Sp_order.attach eng in
      ignore (Engine.run eng (G.interpret p));
      let detected =
        List.sort_uniq compare (List.map (fun r -> r.Report.subject) (Sp_order.races d))
      in
      let truth = Oracle.determinacy_races eng in
      if detected <> truth then
        QCheck2.Test.fail_reportf "sp-order {%s} vs oracle {%s}"
          (String.concat "," (List.map string_of_int detected))
          (String.concat "," (List.map string_of_int truth))
      else true)

let prop_offset_span_iff_oracle_no_reducers =
  qtest ~count:400 "offset-span = oracle (no reducers)"
    (G.gen ~with_reducers:false ~racy:false)
    (fun p ->
      let eng = Engine.create ~record:true () in
      let d = Offset_span.attach eng in
      ignore (Engine.run eng (G.interpret p));
      let detected =
        List.sort_uniq compare
          (List.map (fun r -> r.Report.subject) (Offset_span.races d))
      in
      let truth = Oracle.determinacy_races eng in
      if detected <> truth then
        QCheck2.Test.fail_reportf "offset-span {%s} vs oracle {%s}"
          (String.concat "," (List.map string_of_int detected))
          (String.concat "," (List.map string_of_int truth))
      else true)

(* On reducer-free programs SP+ and SP-bags are the same algorithm. *)
let prop_sp_plus_equals_sp_bags_no_reducers =
  qtest ~count:200 "SP+ = SP-bags (no reducers)"
    (G.gen ~with_reducers:false ~racy:false)
    (fun p ->
      let run mk =
        let eng = Engine.create () in
        let races = mk eng in
        ignore (Engine.run eng (G.interpret p));
        races ()
      in
      let a =
        run (fun eng ->
            let d = Sp_bags.attach eng in
            fun () -> List.map (fun r -> r.Report.subject) (Sp_bags.races d))
      in
      let b =
        run (fun eng ->
            let d = Sp_plus.attach eng in
            fun () -> List.map (fun r -> r.Report.subject) (Sp_plus.races d))
      in
      List.sort_uniq compare a = List.sort_uniq compare b)

(* The central theorem: for every steal specification, SP+ detects a
   determinacy race on exactly the locations the performance-dag oracle
   says are racy — including races on view-aware strands. *)
let prop_sp_plus_iff_oracle =
  QCheck2.Test.make ~name:"SP+ = oracle under every steal spec" ~count:400
    ~print:(fun (p, _) -> G.print p)
    QCheck2.Gen.(pair (G.gen ~with_reducers:true ~racy:true) gen_spec)
    (fun (p, extra_spec) ->
      List.for_all
        (fun spec ->
          let eng = Engine.create ~spec ~record:true () in
          let d = Sp_plus.attach eng in
          ignore (Engine.run eng (G.interpret p));
          let detected = Sp_plus.racy_locs d in
          let truth = Oracle.determinacy_races eng in
          if detected <> truth then
            QCheck2.Test.fail_reportf "spec %s: sp+ {%s} vs oracle {%s}"
              spec.Steal_spec.name
              (String.concat "," (List.map string_of_int detected))
              (String.concat "," (List.map string_of_int truth))
          else true)
        (extra_spec :: specs_for_sp_plus))

(* A shrunk counterexample to the shadow-update rule of paper Fig. 6,
   which let a reduce strand overwrite a parallel entry of its own view.
   Under this spec reduce frame 9 overwrote the write to r0's view by
   update frame 3, which the root has not yet synced, so the root's
   view-oblivious [get r0] missed its race on that view. *)
let test_reduce_keeps_parallel_entry () =
  let p =
    {
      G.body =
        G.
          [
            Spawn [ Spawn [ Read 0 ]; Update 0 ];
            Pfor (2, [ Update 0 ]);
            Read 0;
            Read 0;
            Get_reducer 0;
          ];
      n_cells = 4;
      reducers = Array.make 2 { G.update_touches = None; reduce_touches = None };
    }
  in
  let spec = Steal_spec.random ~seed:0 ~density:0.03 () in
  List.iter
    (fun reach ->
      let eng = Engine.create ~spec ~record:true () in
      let d = Sp_plus.attach ~reach eng in
      ignore (Engine.run eng (G.interpret p));
      let truth = Oracle.determinacy_races eng in
      Alcotest.(check (list int)) "oracle finds r0's view" [ 4 ] truth;
      Alcotest.(check (list int))
        ("sp+ = oracle under " ^ Rader_reach.Reach.show reach)
        truth (Sp_plus.racy_locs d))
    Rader_reach.Reach.all

(* Peer-Set verdicts are a property of the user dag, so they must not
   depend on the steal specification (auxiliary view-management frames are
   transparent to the algorithm). *)
let prop_peer_set_spec_independent =
  qtest ~count:150 "Peer-Set verdicts independent of the schedule"
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      let verdict spec =
        let eng = Engine.create ~spec () in
        let d = Peer_set.attach eng in
        ignore (Engine.run eng (G.interpret p));
        List.sort_uniq compare (List.map (fun r -> r.Report.subject) (Peer_set.races d))
      in
      let serial = verdict Steal_spec.none in
      List.for_all (fun spec -> verdict spec = serial) specs_for_sp_plus)

(* Lemma 2 / Lemma 4 on real executions: the canonical SP parse tree
   reconstructed from a serial trace must agree with the dag oracles —
   tree all-S paths ⟺ equal peer sets, P-node LCAs ⟺ logical
   parallelism. *)
let prop_sp_tree_of_trace_matches_dag =
  qtest ~count:150 "canonical SP tree of trace = dag oracles"
    (G.gen ~with_reducers:true ~racy:false)
    (fun p ->
      let eng = Engine.create ~record:true () in
      ignore (Engine.run eng (G.interpret p));
      let tr = Trace.of_engine eng in
      let tree = Trace.sp_tree tr in
      let n = Rader_dag.Dag.n_strands (Trace.dag tr) in
      let leaves = List.sort compare (Rader_dag.Sp_tree.leaves tree) in
      if leaves <> List.init n Fun.id then
        QCheck2.Test.fail_reportf "leaves are not exactly the %d strands" n
      else begin
        let ix = Rader_dag.Sp_tree.index tree in
        let reach = Rader_dag.Dag.closure (Trace.dag tr) in
        let peers = Rader_dag.Peers.compute (Trace.dag tr) in
        let ok = ref true in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if u <> v then begin
              if Rader_dag.Sp_tree.parallel ix u v <> Rader_dag.Dag.parallel reach u v
              then ok := false;
              if
                Rader_dag.Sp_tree.all_s_path ix u v
                <> Rader_dag.Peers.equal_peers peers u v
              then ok := false
            end
          done
        done;
        !ok
      end)

(* The index the decoding walk fills, without a boxed tree, on the same
   serial traces: its Hebrew ranks are the boxed tree's, and parallelism
   and all-S paths agree with dag reachability, peer sets and the boxed
   tree's index for every strand pair. *)
let prop_walk_index_matches_dag =
  qtest ~count:150 "walk-built SP index of trace = dag oracles"
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      let eng = Engine.create ~record:true () in
      ignore (Engine.run eng (G.interpret p));
      let tr = Trace.of_engine eng in
      let ix = Trace.index tr in
      let boxed = Rader_dag.Sp_tree.index (Trace.sp_tree tr) in
      let n = Rader_dag.Dag.n_strands (Trace.dag tr) in
      let reach = Rader_dag.Dag.closure (Trace.dag tr) in
      let peers = Rader_dag.Peers.compute (Trace.dag tr) in
      if n <> tr.Trace.n_strands || Array.length ix.Rader_dag.Sp_tree.hebrew <> n then
        QCheck2.Test.fail_reportf "index covers %d strands, the dag has %d"
          (Array.length ix.Rader_dag.Sp_tree.hebrew) n
      else if ix.Rader_dag.Sp_tree.hebrew <> boxed.Rader_dag.Sp_tree.hebrew then
        QCheck2.Test.fail_reportf "Hebrew ranks differ from the boxed tree's"
      else begin
        let bad = ref None in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if u <> v && !bad = None then begin
              let par = Rader_dag.Sp_tree.parallel ix u v in
              let alls = Rader_dag.Sp_tree.all_s_path ix u v in
              if
                par <> Rader_dag.Dag.parallel reach u v
                || alls <> Rader_dag.Peers.equal_peers peers u v
                || par <> Rader_dag.Sp_tree.parallel boxed u v
                || alls <> Rader_dag.Sp_tree.all_s_path boxed u v
              then bad := Some (u, v)
            end
          done
        done;
        match !bad with
        | None -> true
        | Some (u, v) -> QCheck2.Test.fail_reportf "strands %d and %d disagree" u v
      end)

(* Trace round-trips preserve the oracle verdicts on random programs. *)
let prop_trace_roundtrip =
  qtest ~count:100 "trace save/load round-trips"
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      let eng = Engine.create ~spec:(Steal_spec.all ()) ~record:true () in
      ignore (Engine.run eng (G.interpret p));
      let tr = Trace.of_engine eng in
      let path = Filename.temp_file "rader" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Trace.save tr path;
          match Trace.load path with
          | Error _ -> false
          | Ok tr' ->
              Trace.equal tr tr'
              && Oracle.determinacy_races_t tr' = Oracle.determinacy_races eng))

(* Ostensibly deterministic programs (pure reducers, no mid-computation
   reducer reads) produce identical results under every schedule. *)
let prop_deterministic_across_specs =
  qtest ~count:300 "results schedule-independent (ostensibly deterministic)"
    (G.gen ~with_reducers:true ~racy:false)
    (fun p ->
      let expected, _ = Cilk.exec (G.interpret p) in
      List.for_all
        (fun spec ->
          let v, _ = Cilk.exec ~spec (G.interpret p) in
          v = expected)
        specs_for_sp_plus)

(* The engine's bookkeeping is internally consistent on arbitrary
   programs and schedules. *)
let prop_engine_invariants =
  qtest ~count:200 "engine invariants hold under every spec"
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      List.for_all
        (fun spec ->
          let eng = Engine.create ~spec ~record:true () in
          ignore (Engine.run eng (G.interpret p));
          let s = Engine.stats eng in
          let tr = Trace.of_engine eng in
          let dag = Trace.dag tr in
          let ok_counts =
            Rader_dag.Dag.n_strands dag = s.Engine.n_strands
            && s.Engine.n_steals <= s.Engine.n_spawns
            && Array.length tr.Trace.spawn_frame = s.Engine.n_spawns
          in
          (* single sink: the root's final sync strand *)
          let sinks = ref 0 in
          for i = 0 to Rader_dag.Dag.n_strands dag - 1 do
            if Rader_dag.Dag.succs dag i = [] then incr sinks
          done;
          ok_counts && !sinks = 1)
        specs_for_sp_plus)

(* Peer-Set never reports on programs whose reducer-reads all happen at
   quiescent points: wrap every generated body so reads occur only before
   any spawn and after a final sync. *)
let prop_peer_set_quiescent_reads_clean =
  qtest ~count:150 "Peer-Set accepts quiescent reducer usage"
    (G.gen ~with_reducers:true ~racy:false)
    (fun p ->
      let eng = Engine.create () in
      let d = Peer_set.attach eng in
      ignore (Engine.run eng (G.interpret p));
      (* racy:false bodies contain no mid-body reducer reads; the only
         reducer-reads are creation and the final post-sync reads. *)
      not (Peer_set.found d))

(* The engine decides the structural shapes (none, all, local{..},
   depth=d) from [shape] with int tests and builds [cont_info] only for the
   others. The same predicate sent through the closure path, as an [Opaque]
   spec, must give the same run: result, engine stats, tool event stream
   and recorded trace. *)
let structural_specs =
  [
    Steal_spec.none;
    Steal_spec.all ();
    Steal_spec.at_local_indices [ 1 ];
    Steal_spec.at_local_indices [ 1; 2 ];
    Steal_spec.at_depth 0;
    Steal_spec.at_depth 1;
    Steal_spec.at_depth 2;
    Steal_spec.random ~seed:5 ~density:0.5 ();
    Steal_spec.by_spawn_index [ 0; 2; 5 ];
  ]

let observed_run spec p =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.bprintf buf fmt in
  let tool =
    {
      Tool.on_frame_enter =
        (fun ~frame ~parent ~spawned ~kind ->
          add "E%d,%d,%b,%s;" frame parent spawned (Tool.frame_kind_name kind));
      on_frame_return = (fun ~frame ~parent:_ ~spawned:_ ~kind:_ -> add "R%d;" frame);
      on_sync = (fun ~frame -> add "S%d;" frame);
      on_steal = (fun ~frame ~region -> add "T%d,%d;" frame region);
      on_reduce =
        (fun ~frame ~into_region ~from_region ->
          add "M%d,%d,%d;" frame into_region from_region);
      on_read = (fun ~frame ~loc ~view_aware -> add "r%d,%d,%b;" frame loc view_aware);
      on_write = (fun ~frame ~loc ~view_aware -> add "w%d,%d,%b;" frame loc view_aware);
      on_reducer_read = (fun ~frame ~reducer -> add "q%d,%d;" frame reducer);
    }
  in
  let eng = Engine.create ~tool ~spec ~record:true () in
  let result = Engine.run eng (G.interpret p) in
  (result, Engine.stats eng, Buffer.contents buf, Trace.of_engine eng)

let prop_compiled_steal_decisions =
  qtest ~count:200 "structural steal decisions = closure path"
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      List.for_all
        (fun spec ->
          let closure_path =
            Steal_spec.opaque ~policy:spec.Steal_spec.policy
              ~name:spec.Steal_spec.name spec.Steal_spec.steal
          in
          let r1, s1, e1, t1 = observed_run spec p in
          let r2, s2, e2, t2 = observed_run closure_path p in
          r1 = r2 && s1 = s2 && e1 = e2 && Trace.equal t1 t2)
        structural_specs)

let () =
  let suite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_peer_set_iff_oracle;
        prop_sp_bags_iff_oracle_no_reducers;
        prop_sp_order_iff_oracle_no_reducers;
        prop_offset_span_iff_oracle_no_reducers;
        prop_sp_plus_equals_sp_bags_no_reducers;
        prop_sp_plus_iff_oracle;
        prop_peer_set_spec_independent;
        prop_sp_tree_of_trace_matches_dag;
        prop_walk_index_matches_dag;
        prop_trace_roundtrip;
        prop_deterministic_across_specs;
        prop_engine_invariants;
        prop_peer_set_quiescent_reads_clean;
        prop_compiled_steal_decisions;
      ]
  in
  Alcotest.run "property"
    [
      ("detectors-vs-oracles", suite);
      ( "fixed-cases",
        [
          Alcotest.test_case "reduce keeps a parallel entry of its view" `Quick
            test_reduce_keeps_parallel_entry;
        ] );
    ]
