(* Tests for the work-stealing simulator and schedule fuzzing. *)

open Rader_runtime
open Rader_sched

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let fanout_program ctx =
  let r = Rmonoid.new_int_add ctx ~init:0 in
  Cilk.parallel_for ctx ~lo:0 ~hi:32 (fun ctx i -> Rmonoid.add ctx r i);
  Cilk.sync ctx;
  Rmonoid.int_cell_value ctx r

let recorded program =
  let eng = Engine.create ~record:true () in
  let v = Engine.run eng program in
  (v, eng)

let test_sim_executes_everything () =
  let _, eng = recorded fanout_program in
  let res = Wsim.simulate ~workers:4 ~seed:1 eng in
  check "work = strands" (Engine.stats eng).Engine.n_strands res.Wsim.work;
  checkb "makespan <= work" true (res.Wsim.makespan <= res.Wsim.work);
  checkb "makespan >= work / p" true (res.Wsim.makespan * 4 >= res.Wsim.work)

let test_sim_one_worker_serial () =
  let _, eng = recorded fanout_program in
  let res = Wsim.simulate ~workers:1 ~seed:5 eng in
  check "serial makespan = work" res.Wsim.work res.Wsim.makespan;
  check "no steals" 0 res.Wsim.n_steals;
  check "no stolen continuations" 0 (List.length res.Wsim.stolen_continuations)

let test_sim_speedup_with_workers () =
  let _, eng = recorded fanout_program in
  let t1 = (Wsim.simulate ~workers:1 ~seed:2 eng).Wsim.makespan in
  let t8 = (Wsim.simulate ~workers:8 ~seed:2 eng).Wsim.makespan in
  checkb "parallel is faster" true (t8 < t1)

let test_sim_steals_reported () =
  let _, eng = recorded fanout_program in
  let res = Wsim.simulate ~workers:8 ~seed:3 eng in
  checkb "some continuations stolen" true (res.Wsim.stolen_continuations <> []);
  let n_spawns = (Engine.stats eng).Engine.n_spawns in
  checkb "stolen set within spawn indices" true
    (List.for_all (fun i -> i >= 0 && i < n_spawns) res.Wsim.stolen_continuations)

let test_sim_deterministic_given_seed () =
  let _, eng = recorded fanout_program in
  let a = Wsim.simulate ~workers:4 ~seed:9 eng in
  let b = Wsim.simulate ~workers:4 ~seed:9 eng in
  checkb "same seed, same schedule" true
    (a.Wsim.stolen_continuations = b.Wsim.stolen_continuations
    && a.Wsim.makespan = b.Wsim.makespan)

let test_sim_blumofe_leiserson_bound () =
  (* T_p <= T1/p + c·T∞ for work-stealing-style schedulers. Our simulator
     allows one steal attempt per idle worker per step, so allow a
     generous constant. *)
  let _, eng = recorded fanout_program in
  let dag = Rader_core.Trace.(dag (of_engine eng)) in
  let reach = Rader_dag.Dag.closure dag in
  let n = Rader_dag.Dag.n_strands dag in
  (* critical path = longest path, via DP over the topological id order *)
  let depth = Array.make n 1 in
  for v = 0 to n - 1 do
    List.iter
      (fun u -> if depth.(u) + 1 > depth.(v) then depth.(v) <- depth.(u) + 1)
      (Rader_dag.Dag.preds dag v)
  done;
  ignore reach;
  let t_inf = Array.fold_left max 1 depth in
  List.iter
    (fun p ->
      let res = Wsim.simulate ~workers:p ~seed:4 eng in
      let bound = (res.Wsim.work / p) + (10 * t_inf) + 10 in
      checkb
        (Printf.sprintf "T_%d=%d <= T1/p + 10 T_inf = %d" p res.Wsim.makespan bound)
        true
        (res.Wsim.makespan <= bound))
    [ 2; 4; 8 ]

let test_sim_requires_recording () =
  let eng = Engine.create () in
  ignore (Engine.run eng (fun _ -> ()));
  Alcotest.check_raises "unrecorded"
    (Invalid_argument "Wsim.simulate: engine run was not recorded") (fun () ->
      ignore (Wsim.simulate ~workers:2 ~seed:0 eng))

let test_replay_under_simulated_schedule () =
  (* the steal spec derived from the simulation must replay to the same
     result for a correct program *)
  let v0, eng = recorded fanout_program in
  let res = Wsim.simulate ~workers:4 ~seed:13 eng in
  let spec = Wsim.steal_spec res in
  let v1, eng1 = Cilk.exec ~spec fanout_program in
  Alcotest.(check int) "same result" v0 v1;
  check "steals replayed" (List.length res.Wsim.stolen_continuations)
    (Engine.stats eng1).Engine.n_steals

let test_fuzz_clean_program_deterministic () =
  let outs = Schedule_gen.fuzz fanout_program ~workers:4 ~seeds:[ 1; 2; 3; 4; 5 ] in
  check "six runs" 6 (List.length outs);
  checkb "all equal" true (Schedule_gen.deterministic ~equal:( = ) outs)

(* A view-read race makes the observed value schedule-dependent: the value
   read mid-flight differs between the serial schedule (sees all updates so
   far) and schedules that steal the continuations (fresh views). *)
let racy_observer ctx =
  let r = Rmonoid.new_int_add ctx ~init:0 in
  let obs = ref 0 in
  Cilk.call ctx (fun ctx ->
      ignore (Cilk.spawn ctx (fun ctx -> Rmonoid.add ctx r 100));
      ignore (Cilk.spawn ctx (fun ctx -> Rmonoid.add ctx r 10));
      (* racy read before sync *)
      obs := Rmonoid.int_cell_value ctx r;
      Cilk.sync ctx);
  !obs

let test_fuzz_racy_program_nondeterministic () =
  let serial, _ = Cilk.exec racy_observer in
  Alcotest.(check int) "serial sees both updates" 110 serial;
  let stolen, _ = Cilk.exec ~spec:(Steal_spec.all ()) racy_observer in
  checkb "stolen schedule sees a fresh view" true (stolen <> serial);
  Alcotest.(check int) "fresh view is empty" 0 stolen

let test_fuzz_exposes_nondeterminism_via_simulation () =
  let outs =
    Schedule_gen.fuzz racy_observer ~workers:8 ~seeds:(List.init 20 (fun i -> i))
  in
  let values = List.sort_uniq compare (List.map snd outs) in
  (* with 20 random 8-worker schedules, at least one steals one of the two
     continuations before the racy read *)
  checkb "schedule-dependent output observed" true (List.length values > 1)

(* Simulated makespans and steals of the pbfs dag at scale 1, seed 42
   (EXPERIMENTS.md's S3 table): (workers, makespan, steals). The
   simulator and the recording are deterministic, so the table is exact;
   on a mismatch the measured rows are printed in the table's syntax. *)
let pbfs_table =
  [
    (1, 215309, 0);
    (2, 109258, 14);
    (4, 55682, 69);
    (8, 29097, 191);
    (16, 15977, 474);
  ]

let test_pbfs_makespans () =
  let b = Rader_benchsuite.Suite.find ~scale:1.0 "pbfs" in
  let _, eng = recorded b.Rader_benchsuite.Bench_def.cilk in
  let measured =
    List.map
      (fun (workers, _, _) ->
        let res = Wsim.simulate ~workers ~seed:42 eng in
        (workers, res.Wsim.makespan, res.Wsim.n_steals))
      pbfs_table
  in
  if measured <> pbfs_table then begin
    List.iter (fun (w, m, st) -> Printf.printf "    (%d, %d, %d);\n" w m st) measured;
    Alcotest.fail "pbfs makespans differ from the committed table"
  end

let () =
  Alcotest.run "sched"
    [
      ( "wsim",
        [
          Alcotest.test_case "executes everything" `Quick test_sim_executes_everything;
          Alcotest.test_case "one worker serial" `Quick test_sim_one_worker_serial;
          Alcotest.test_case "speedup" `Quick test_sim_speedup_with_workers;
          Alcotest.test_case "steals reported" `Quick test_sim_steals_reported;
          Alcotest.test_case "seed-deterministic" `Quick test_sim_deterministic_given_seed;
          Alcotest.test_case "Blumofe-Leiserson bound" `Quick
            test_sim_blumofe_leiserson_bound;
          Alcotest.test_case "requires recording" `Quick test_sim_requires_recording;
          Alcotest.test_case "replay" `Quick test_replay_under_simulated_schedule;
          Alcotest.test_case "pbfs makespans" `Quick test_pbfs_makespans;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean deterministic" `Quick
            test_fuzz_clean_program_deterministic;
          Alcotest.test_case "racy read schedule-dependent" `Quick
            test_fuzz_racy_program_nondeterministic;
          Alcotest.test_case "simulation exposes nondeterminism" `Quick
            test_fuzz_exposes_nondeterminism_via_simulation;
        ] );
    ]
