(* The observability layer must never change what it observes: counters
   merged from a sharded sweep are byte-identical to the serial sweep's
   for every job count (racy, crashing and budget-limited programs
   included), enabling obs does not change verdicts, engine reuse via
   [Engine.reset] yields identical per-run deltas, and the counter
   arithmetic (snapshot/since/diff/add) is conservative. *)

open Rader_runtime
open Rader_core
module Obs = Rader_obs.Obs

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- workloads (mirror test_parallel_sweep's) ------------------------- *)

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

(* --- merged counters: parallel = serial, byte for byte ---------------- *)

let obs_of res =
  match res.Coverage.obs with
  | Some o -> o
  | None -> Alcotest.fail "with_obs:true returned no obs summary"

let counters_conserved ?max_specs ?max_events what program =
  let serial =
    Coverage.exhaustive_check ?max_specs ?max_events ~jobs:1 ~with_obs:true
      program
  in
  let so = obs_of serial in
  checkb (what ^ ": serial counters nonzero") false (Obs.is_zero so.Coverage.obs_counters);
  List.iter
    (fun jobs ->
      let par =
        Coverage.exhaustive_check ?max_specs ?max_events ~jobs ~with_obs:true
          program
      in
      let po = obs_of par in
      checkb
        (Printf.sprintf "%s: merged counters jobs=%d = serial" what jobs)
        true
        (Obs.to_assoc po.Coverage.obs_counters = Obs.to_assoc so.Coverage.obs_counters);
      (* one span per replay that ran, in spec order, regardless of sharding *)
      check
        (Printf.sprintf "%s: one span per replay, jobs=%d" what jobs)
        par.Coverage.n_run
        (List.length po.Coverage.obs_spans);
      checkb
        (Printf.sprintf "%s: span spec order fixed, jobs=%d" what jobs)
        true
        (List.map (fun s -> s.Coverage.span_spec) po.Coverage.obs_spans
        = List.map (fun s -> s.Coverage.span_spec) so.Coverage.obs_spans))
    [ 2; 4; 0 ];
  serial

let test_conservation_racy () =
  let res = counters_conserved "planted race" planted_reduce_race in
  let o = obs_of res in
  (* every replay plus the profiling run flushed exactly once *)
  check "engine runs = replays + profile" (res.Coverage.n_run + 1)
    o.Coverage.obs_counters.Obs.engine_runs

let test_conservation_crashing () =
  let res = counters_conserved "crashing reduce" crashy_reduce in
  let o = obs_of res in
  checkb "sweep explicitly partial" false res.Coverage.complete;
  (* contained unwinds flush too: still exactly one flush per attempt *)
  check "engine runs = replays + profile" (res.Coverage.n_run + 1)
    o.Coverage.obs_counters.Obs.engine_runs

let test_conservation_budgeted () =
  (* per-run event budgets abort replays deterministically, so the merged
     counters still agree across job counts *)
  ignore (counters_conserved ~max_events:40 "event budget" planted_reduce_race);
  ignore (counters_conserved ~max_specs:5 "spec budget" planted_reduce_race)

let test_phases_reported () =
  let res = Coverage.exhaustive_check ~jobs:1 ~with_obs:true clean in
  let o = obs_of res in
  Alcotest.(check (list string))
    "phase names" [ "profile"; "replay"; "merge" ]
    (List.map fst o.Coverage.obs_phases);
  checkb "phase times nonnegative" true
    (List.for_all (fun (_, s) -> s >= 0.0) o.Coverage.obs_phases)

(* --- counters under forced domains ------------------------------------ *)

(* The RADER_FORCE_DOMAINS hatch makes the default-jobs sweep spawn
   domains even on a single-core runner; the merged counters must still
   be byte-identical to the serial reference (per-domain DLS deltas
   folded in spec order). *)
let test_conservation_forced_domains () =
  let prior = Sys.getenv_opt "RADER_FORCE_DOMAINS" in
  let restore () =
    Unix.putenv "RADER_FORCE_DOMAINS" (Option.value prior ~default:"")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "RADER_FORCE_DOMAINS" "2";
      let serial =
        Coverage.exhaustive_check ~jobs:1 ~with_obs:true planted_reduce_race
      in
      let forced =
        Coverage.exhaustive_check ~jobs:0 ~with_obs:true planted_reduce_race
      in
      checkb "forced-domain merged counters = serial" true
        (Obs.to_assoc (obs_of forced).Coverage.obs_counters
        = Obs.to_assoc (obs_of serial).Coverage.obs_counters))

(* --- enabling obs does not change verdicts ---------------------------- *)

let test_obs_does_not_change_verdicts () =
  let fp res =
    ( res.Coverage.racy_locs,
      List.map Report.to_string res.Coverage.reports,
      List.map fst res.Coverage.incomplete,
      res.Coverage.complete )
  in
  List.iter
    (fun (what, program) ->
      let plain = Coverage.exhaustive_check ~jobs:1 program in
      checkb (what ^ ": no obs unless asked") true (plain.Coverage.obs = None);
      let obs = Coverage.exhaustive_check ~jobs:1 ~with_obs:true program in
      checkb (what ^ ": verdicts unchanged under obs") true (fp plain = fp obs))
    [ ("racy", planted_reduce_race); ("crashy", crashy_reduce); ("clean", clean) ]

(* --- off means off ----------------------------------------------------- *)

let test_disabled_counts_nothing () =
  checkb "obs off by default" false (Obs.enabled ());
  let snap = Obs.snapshot () in
  let eng = Engine.create () in
  let det = Sp_plus.attach eng in
  ignore (Engine.run_result eng planted_reduce_race);
  ignore (Sp_plus.races det);
  checkb "nothing counted while disabled" true (Obs.is_zero (Obs.since snap))

let test_with_enabled_restores_flag () =
  checkb "off before" false (Obs.enabled ());
  let (), delta = Obs.with_enabled (fun () ->
      checkb "on inside" true (Obs.enabled ());
      let eng = Engine.create () in
      ignore (Engine.run_result eng clean))
  in
  checkb "off after" false (Obs.enabled ());
  checkb "delta saw the run" false (Obs.is_zero delta);
  check "one engine run" 1 delta.Obs.engine_runs;
  (* exceptions restore the flag too *)
  (match Obs.with_enabled (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the exception to escape"
  | exception Failure _ -> ());
  checkb "off after exception" false (Obs.enabled ())

(* --- Engine.reset: recycled runs count exactly like fresh ones --------- *)

let test_reset_same_delta () =
  let spec = Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ 2; 4 ] in
  let delta_fresh program =
    snd
      (Obs.with_enabled (fun () ->
           let eng = Engine.create ~spec () in
           let det = Sp_plus.attach eng in
           ignore (Engine.run_result eng program);
           ignore (Sp_plus.races det)))
  in
  let eng = Engine.create () in
  let det = Sp_plus.attach eng in
  let delta_reused program =
    snd
      (Obs.with_enabled (fun () ->
           Engine.reset ~tool:(Sp_plus.tool det) ~spec eng;
           Sp_plus.reset det;
           ignore (Engine.run_result eng program);
           ignore (Sp_plus.races det)))
  in
  List.iter
    (fun (what, program) ->
      checkb (what ^ ": reset delta = fresh delta") true
        (Obs.to_assoc (delta_fresh program) = Obs.to_assoc (delta_reused program)))
    [
      ("racy", planted_reduce_race);
      ("crashy", crashy_reduce);
      ("clean", clean);
      ("racy again", planted_reduce_race);
    ]

(* --- counter arithmetic ------------------------------------------------ *)

let test_arithmetic () =
  let z = Obs.zero () in
  checkb "zero is zero" true (Obs.is_zero z);
  let _, a = Obs.with_enabled (fun () ->
      let eng = Engine.create () in
      ignore (Engine.run_result eng clean))
  in
  let _, b = Obs.with_enabled (fun () ->
      let eng = Engine.create ~spec:(Steal_spec.all ()) () in
      ignore (Engine.run_result eng planted_reduce_race))
  in
  let sum = Obs.copy a in
  Obs.add ~into:sum b;
  checkb "add then diff round-trips" true (Obs.equal (Obs.diff sum b) a);
  checkb "diff self is zero" true (Obs.is_zero (Obs.diff a a));
  checkb "copy is equal" true (Obs.equal (Obs.copy a) a);
  checkb "distinct runs differ" false (Obs.equal a b);
  (* to_assoc is the schema: one entry per field, stable order *)
  let keys = List.map fst (Obs.to_assoc a) in
  checkb "keys stable across records" true (keys = List.map fst (Obs.to_assoc b));
  checkb "keys unique" true
    (List.length keys = List.length (List.sort_uniq compare keys));
  check "assoc sums field-wise"
    (List.fold_left (fun t (_, v) -> t + v) 0 (Obs.to_assoc a)
    + List.fold_left (fun t (_, v) -> t + v) 0 (Obs.to_assoc b))
    (List.fold_left (fun t (_, v) -> t + v) 0 (Obs.to_assoc sum))

let test_json_rendering () =
  let _, c = Obs.with_enabled (fun () ->
      let eng = Engine.create () in
      ignore (Engine.run_result eng clean))
  in
  let s = Obs.to_json_string c in
  List.iter
    (fun (k, v) ->
      let needle = Printf.sprintf "\"%s\":%d" k v in
      let found =
        let nl = String.length needle and sl = String.length s in
        let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
        go 0
      in
      checkb (Printf.sprintf "json contains %s" needle) true found)
    (Obs.to_assoc c)

let () =
  Alcotest.run "obs"
    [
      ( "conservation",
        [
          Alcotest.test_case "racy program" `Quick test_conservation_racy;
          Alcotest.test_case "crashing program" `Quick test_conservation_crashing;
          Alcotest.test_case "budgeted sweeps" `Quick test_conservation_budgeted;
          Alcotest.test_case "phases reported" `Quick test_phases_reported;
          Alcotest.test_case "forced domains" `Quick
            test_conservation_forced_domains;
          Alcotest.test_case "verdicts unchanged" `Quick
            test_obs_does_not_change_verdicts;
        ] );
      ( "gating",
        [
          Alcotest.test_case "disabled counts nothing" `Quick
            test_disabled_counts_nothing;
          Alcotest.test_case "with_enabled restores" `Quick
            test_with_enabled_restores_flag;
        ] );
      ( "engine reuse",
        [ Alcotest.test_case "reset delta = fresh" `Quick test_reset_same_delta ] );
      ( "arithmetic",
        [
          Alcotest.test_case "add/diff/zero/equal" `Quick test_arithmetic;
          Alcotest.test_case "json rendering" `Quick test_json_rendering;
        ] );
    ]
