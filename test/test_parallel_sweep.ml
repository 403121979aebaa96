(* The parallel §7 sweep must be observationally identical to the serial
   one: for every job count the coverage result — verdicts, report order,
   per-spec locs, the [incomplete] set — is the same, including when spec
   runs crash mid-sweep or blow budgets. Plus the substrate (work queue,
   stop hook, poisoning) and the Engine.reset reuse round-trip. *)

open Rader_runtime
open Rader_core
module Reach = Rader_reach.Reach

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Everything observable about a coverage result, rendered to plain data
   so results from different job counts compare with (=). *)
type fingerprint = {
  fp_prof : int * int * int;
  fp_n_specs : int;
  fp_n_run : int;
  fp_racy_locs : int list;
  fp_reports : string list;
  fp_per_spec : (string * int list) list;
  fp_incomplete : (string * string) list;
  fp_complete : bool;
}

let fingerprint (res : Coverage.result) =
  {
    fp_prof = (res.prof.Coverage.k, res.prof.Coverage.d, res.prof.Coverage.n_spawns);
    fp_n_specs = res.n_specs;
    fp_n_run = res.n_run;
    fp_racy_locs = res.racy_locs;
    fp_reports = List.map Report.to_string res.reports;
    fp_per_spec =
      List.map (fun ((s : Steal_spec.t), locs) -> (s.Steal_spec.name, locs)) res.per_spec;
    fp_incomplete = List.map (fun (n, f) -> (n, Diag.class_name f)) res.incomplete;
    fp_complete = res.complete;
  }

let fp_equal what a b = checkb (what ^ ": parallel = serial") true (a = b)

(* The serial dset sweep is the single reference; every other
   (backend, jobs) combination — including depa at jobs=1 — must produce
   the identical fingerprint, which covers both "parallel = serial" and
   "verdicts are precedence-backend-independent" in one sweep. *)
let check_all_jobs ?max_specs ?max_events what program =
  let serial = fingerprint (Coverage.exhaustive_check ?max_specs ?max_events ~jobs:1 program) in
  List.iter
    (fun reach ->
      List.iter
        (fun jobs ->
          if not (reach = Reach.Dset && jobs = 1) then
            let par =
              fingerprint
                (Coverage.exhaustive_check ?max_specs ?max_events ~jobs ~reach
                   program)
            in
            fp_equal
              (Printf.sprintf "%s, jobs=%d, reach=%s" what jobs (Reach.show reach))
              serial par)
        [ 1; 2; 4; 0 (* 0 = one per core *) ])
    Reach.all;
  serial

(* --- workloads ------------------------------------------------------- *)

(* Racy: the reducer's Reduce writes a shared cell read in parallel, so
   only specs that elicit a reduce strand see the race (test_coverage's
   planted race, K=7-ish via the parallel_for). *)
let planted_reduce_race ctx =
  let shared = Cell.make_in ctx ~label:"witness" 0 in
  let monoid =
    {
      Reducer.name = "touchy";
      identity = (fun c -> Cell.make_in c 0);
      reduce =
        (fun c l r ->
          Cell.write c shared 1;
          Cell.write c l (Cell.read c l + Cell.read c r);
          l);
    }
  in
  let red = Reducer.create ctx monoid ~init:(Cell.make_in ctx 0) in
  let reader = Cilk.spawn ctx (fun ctx -> Cell.read ctx shared) in
  Cilk.call ctx (fun ctx ->
      Cilk.parallel_for ctx ~lo:0 ~hi:6 (fun ctx _ ->
          Reducer.update ctx red (fun c v ->
              Cell.write c v (Cell.read c v + 1);
              v)));
  Cilk.sync ctx;
  ignore (Cilk.get ctx reader)

(* Crashy: the reduce callback raises (test_injection's Reduce_raises), so
   every spec that elicits a reduce crashes mid-run and lands in
   [incomplete] as User_program_exn, while no-reduce specs complete. *)
let crashy_reduce ctx =
  let monoid =
    {
      Reducer.name = "sum";
      identity = (fun c -> Cell.make_in c 0);
      reduce = (fun _ _ _ -> failwith "injected reduce crash");
    }
  in
  let sum = Reducer.create ctx monoid ~init:(Cell.make_in ctx 0) in
  let watcher = Cilk.spawn ctx (fun _ -> ()) in
  Cilk.call ctx (fun ctx ->
      Cilk.parallel_for ctx ~lo:1 ~hi:10 (fun ctx i ->
          Reducer.update ctx sum (fun c v ->
              Cell.write c v (Cell.read c v + i);
              v)));
  Cilk.sync ctx;
  ignore (Cilk.get ctx watcher);
  ignore (Reducer.get_value ctx sum)

let clean ctx =
  let r = Rmonoid.new_int_add ctx ~init:0 in
  Cilk.parallel_for ctx ~lo:0 ~hi:8 (fun ctx i -> Rmonoid.add ctx r i);
  Cilk.sync ctx;
  ignore (Rmonoid.int_cell_value ctx r)

(* --- parallel = serial ------------------------------------------------ *)

let test_racy_program_all_jobs () =
  let fp = check_all_jobs "planted race" planted_reduce_race in
  checkb "race found" true (fp.fp_racy_locs <> []);
  checkb "complete" true fp.fp_complete

let test_crashing_program_all_jobs () =
  let fp = check_all_jobs "crashing reduce" crashy_reduce in
  checkb "some specs crashed" true (fp.fp_incomplete <> []);
  checkb "crashes are contained user exns" true
    (List.for_all (fun (_, c) -> c = "user-program-exn") fp.fp_incomplete);
  checkb "explicitly partial" false fp.fp_complete;
  (* crashed runs were still attempted *)
  check "all specs attempted" fp.fp_n_specs fp.fp_n_run

let test_budgets_all_jobs () =
  (* per-run event budget: deterministic per spec, so identical across job
     counts; max_specs drops a deterministic suffix *)
  let fp = check_all_jobs ~max_events:40 "max_events budget" planted_reduce_race in
  checkb "some spec blew the event budget" true
    (List.exists (fun (_, c) -> c = "budget-exceeded") fp.fp_incomplete);
  let fp = check_all_jobs ~max_specs:5 "max_specs budget" planted_reduce_race in
  check "only 5 run" 5 fp.fp_n_run;
  checkb "rest charged to max_specs" true
    (List.length fp.fp_incomplete = fp.fp_n_specs - 5)

let test_clean_program_all_jobs () =
  let fp = check_all_jobs "clean program" clean in
  check "no races anywhere" 0 (List.length fp.fp_racy_locs);
  checkb "complete" true fp.fp_complete

(* --- the substrate ---------------------------------------------------- *)

let test_map_basics () =
  List.iter
    (fun jobs ->
      let results, stats =
        Parallel_sweep.map ~jobs
          ~init:(fun wid -> wid)
          ~task:(fun _ i -> i * i)
          ~skipped:(fun _ -> -1)
          100
      in
      check "n_tasks" 100 stats.Parallel_sweep.n_tasks;
      check "n_skipped" 0 stats.Parallel_sweep.n_skipped;
      checkb "results in index order" true
        (Array.to_list results = List.init 100 (fun i -> i * i)))
    [ 1; 2; 4 ]

let test_map_stop_skips_everything () =
  List.iter
    (fun jobs ->
      let results, stats =
        Parallel_sweep.map ~jobs
          ~stop:(fun () -> true)
          ~init:(fun _ -> ())
          ~task:(fun () _ -> Alcotest.fail "task ran despite stop")
          ~skipped:(fun i -> -i)
          10
      in
      check "all skipped" 10 stats.Parallel_sweep.n_skipped;
      checkb "skipped results recorded" true
        (Array.to_list results = List.init 10 (fun i -> -i)))
    [ 1; 3 ]

let test_map_task_exception_propagates () =
  List.iter
    (fun jobs ->
      match
        Parallel_sweep.map ~jobs
          ~init:(fun _ -> ())
          ~task:(fun () i -> if i = 5 then failwith "boom" else i)
          ~skipped:(fun _ -> -1)
          20
      with
      | _ -> Alcotest.fail "expected the task exception to re-raise"
      | exception Failure msg -> Alcotest.(check string) "poisoned" "boom" msg)
    [ 1; 2; 4 ]

(* RADER_FORCE_DOMAINS pins default_jobs regardless of the probed core
   count, so the jobs<=0 path genuinely spawns domains on single-core CI
   runners. The sweep under the forced default must still match the
   serial reference. *)
let test_force_domains_env () =
  let prior = Sys.getenv_opt "RADER_FORCE_DOMAINS" in
  let restore () =
    Unix.putenv "RADER_FORCE_DOMAINS" (Option.value prior ~default:"")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "RADER_FORCE_DOMAINS" "3";
      check "default_jobs honors the override" 3 (Parallel_sweep.default_jobs ());
      let results, stats =
        Parallel_sweep.map ~jobs:0
          ~init:(fun wid -> wid)
          ~task:(fun _ i -> i + 1)
          ~skipped:(fun _ -> -1)
          32
      in
      check "forced worker count used" 3 stats.Parallel_sweep.jobs;
      checkb "results in index order under forced domains" true
        (Array.to_list results = List.init 32 (fun i -> i + 1));
      let serial = fingerprint (Coverage.exhaustive_check ~jobs:1 planted_reduce_race) in
      let forced = fingerprint (Coverage.exhaustive_check ~jobs:0 planted_reduce_race) in
      fp_equal "forced-domain sweep" serial forced;
      (* junk values fall back to the probed count instead of exploding *)
      Unix.putenv "RADER_FORCE_DOMAINS" "zero";
      checkb "junk override ignored" true (Parallel_sweep.default_jobs () >= 1);
      Unix.putenv "RADER_FORCE_DOMAINS" "-2";
      checkb "non-positive override ignored" true
        (Parallel_sweep.default_jobs () >= 1))

(* --- Engine.reset reuse round-trip ------------------------------------ *)

let run_stats_and_races eng det program =
  let outcome = Engine.run_result eng program in
  let st = Engine.stats eng in
  ( (match outcome with Ok _ -> "ok" | Error f -> Diag.class_name f),
    (st.Engine.n_spawns, st.Engine.n_steals),
    List.map Report.to_string (Sp_plus.races det) )

let test_reset_round_trip () =
  let spec = Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ 2; 4 ] in
  (* reference: fresh engine+detector per run *)
  let fresh program =
    let eng = Engine.create ~spec () in
    let det = Sp_plus.attach eng in
    run_stats_and_races eng det program
  in
  (* one pair recycled through every program, crashes included *)
  let eng = Engine.create () in
  let det = Sp_plus.attach eng in
  let reused program =
    Engine.reset ~tool:(Sp_plus.tool det) ~spec eng;
    Sp_plus.reset det;
    run_stats_and_races eng det program
  in
  List.iter
    (fun (name, program) ->
      checkb (name ^ ": reset-reuse = fresh") true (fresh program = reused program))
    [
      ("racy", planted_reduce_race);
      ("crashy", crashy_reduce);  (* reset after a crashed run must fully recover *)
      ("clean", clean);
      ("racy again", planted_reduce_race);
    ]

let test_reset_rejects_running_engine () =
  let eng = Engine.create () in
  ignore
    (Engine.run_result eng (fun ctx ->
         ignore (Cilk.spawn ctx (fun _ -> ()));
         Cilk.sync ctx;
         (* mid-run reset must be refused, not corrupt the engine *)
         checkb "reset while running rejected" true
           (match Engine.reset eng with
           | () -> false
           | exception _ -> true)))

let () =
  Alcotest.run "parallel_sweep"
    [
      ( "parallel = serial",
        [
          Alcotest.test_case "planted race" `Quick test_racy_program_all_jobs;
          Alcotest.test_case "crashing reduce" `Quick test_crashing_program_all_jobs;
          Alcotest.test_case "budgets" `Quick test_budgets_all_jobs;
          Alcotest.test_case "clean program" `Quick test_clean_program_all_jobs;
        ] );
      ( "substrate",
        [
          Alcotest.test_case "index-ordered results" `Quick test_map_basics;
          Alcotest.test_case "stop skips" `Quick test_map_stop_skips_everything;
          Alcotest.test_case "exception poisons" `Quick test_map_task_exception_propagates;
          Alcotest.test_case "forced domains env hatch" `Quick test_force_domains_env;
        ] );
      ( "engine reuse",
        [
          Alcotest.test_case "reset round-trip" `Quick test_reset_round_trip;
          Alcotest.test_case "reset rejects running engine" `Quick
            test_reset_rejects_running_engine;
        ] );
    ]
