(* Tests for rader verify — symbolic whole-spec-space verification with
   replayable witness certificates (Rader_analysis.Symbolic / Witness).

   - parity: [Witness.verify]'s racy-location set must be byte-identical
     to the enumerated §7 sweep ([Coverage.exhaustive_check]) on 200
     generated reducer programs (racy and clean generators), under both
     reach backends;
   - witnesses: every reported race's witness spec, parsed back and
     replayed through the serial SP+ detector, must elicit a race on
     exactly that location (no unconfirmed claims ever surface as races);
   - certificates: a reducer-free read-only program verifies with zero
     replays (empty residual + clean scan); a truncated scan falls back
     to replaying the no-steal spec and stays sound;
   - R006: a spec-independent race is flagged both by
     [Symbolic.always_racy_locs] and by the lint rule when fed the
     verification result;
   - golden: rendered verify table/JSON for one clean and one racy demo,
     a truncated scan and a reducer-free program with hundreds of
     locations are pinned as fixtures (regen:
     RADER_GOLDEN_REGEN=$PWD/test/golden dune runtest). *)

open Rader_runtime
open Rader_core
open Rader_analysis
module G = Rader_testkit.Gen_program
module Demos = Rader_benchsuite.Demos
module Reach = Rader_reach.Reach

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let ints l = String.concat ";" (List.map string_of_int l)

let demo name =
  match Demos.resolve ~scale:0.25 name with
  | Ok p -> p
  | Error m -> Alcotest.fail m

let verify_ok ?reach ?max_pairs ~name prog =
  match Witness.verify ?reach ?max_pairs ~name prog with
  | Ok w -> w
  | Error f -> Alcotest.failf "%s: verify crashed: %s" name (Diag.to_string f)

(* Replay [spec] through the serial SP+ detector and return its racy
   locations — the confirmation step every witness must survive. *)
let replay_racy_locs ?reach prog spec =
  let eng = Engine.create ~spec () in
  let sp = Sp_plus.attach ?reach eng in
  ignore (Engine.run_result eng (fun ctx -> ignore (prog ctx)));
  Sp_plus.racy_locs sp

(* The named witness of every racy row must be the sweep's recorded
   witness spec for that location, and an independent serial replay of
   that spec must elicit the race. *)
let witness_spec_of ~tag (w : Witness.t) loc name =
  match Coverage.witness_spec w.Witness.res loc with
  | None -> Alcotest.failf "%s: no recorded witness spec for loc %d" tag loc
  | Some sp ->
      if sp.Steal_spec.name <> name then
        Alcotest.failf "%s: row witness %S ≠ recorded witness %S" tag name
          sp.Steal_spec.name;
      sp

let assert_witnesses_confirmed ?reach ~tag prog (w : Witness.t) =
  List.iter
    (fun row ->
      match row.Witness.r_verdict with
      | Witness.Racy { witness; _ } ->
          let spec = witness_spec_of ~tag w row.Witness.r_loc witness in
          let racy = replay_racy_locs ?reach prog spec in
          if not (List.mem row.Witness.r_loc racy) then
            Alcotest.failf
              "%s: witness %S does not elicit loc %d (replay racy=[%s])" tag
              witness row.Witness.r_loc (ints racy)
      | Witness.Clean _ -> ())
    w.Witness.rows

(* ---------- parity with the enumerated sweep ---------- *)

let prop_parity ~racy ~reach ~count =
  let rname = match reach with Reach.Dset -> "dset" | Reach.Depa -> "depa" in
  QCheck2.Test.make
    ~name:(Printf.sprintf "verify ≡ enumerated sweep (racy=%b reach=%s)" racy rname)
    ~count ~print:G.print
    (G.gen ~with_reducers:true ~racy)
    (fun p ->
      QCheck2.assume (G.max_local_spawns p <= 4);
      let prog = G.interpret p in
      let truth = Coverage.exhaustive_check ~reach ~max_events:200_000 prog in
      QCheck2.assume truth.Coverage.complete;
      match Witness.verify ~reach ~max_events:200_000 ~name:"gen" prog with
      | Error f ->
          QCheck2.Test.fail_reportf
            "sweep completed but verify crashed: %s" (Diag.class_name f)
      | Ok w ->
          if w.Witness.racy_locs <> truth.Coverage.racy_locs then
            QCheck2.Test.fail_reportf
              "verify racy=[%s] ≠ enumerated racy=[%s]"
              (ints w.Witness.racy_locs)
              (ints truth.Coverage.racy_locs)
          else begin
            (* every race claim must be backed by a confirmed witness *)
            List.iter
              (fun row ->
                match row.Witness.r_verdict with
                | Witness.Racy { witness; _ } ->
                    let spec =
                      witness_spec_of ~tag:"gen" w row.Witness.r_loc witness
                    in
                    let racy = replay_racy_locs ~reach prog spec in
                    if not (List.mem row.Witness.r_loc racy) then
                      QCheck2.Test.fail_reportf
                        "witness %S does not elicit loc %d" witness
                        row.Witness.r_loc
                | Witness.Clean _ -> ())
              w.Witness.rows;
            true
          end)

(* ---------- witness confirmation on demos ---------- *)

let test_demo_witnesses () =
  List.iter
    (fun name ->
      let prog = demo name in
      let w = verify_ok ~name prog in
      checkb (name ^ ": complete") true w.Witness.complete;
      checkb (name ^ ": racy") true (w.Witness.racy_locs <> []);
      checkb
        (name ^ ": a report per racy loc")
        true
        (List.length w.Witness.reports = List.length w.Witness.racy_locs);
      assert_witnesses_confirmed ~tag:name prog w)
    [ "fig1-buggy"; "racy-read"; "fib-racy" ]

(* ---------- zero-replay certification ---------- *)

(* Reducer-free, read-only parallelism: the scan certifies every location
   and the residual set is empty, so the whole family is proved race-free
   without a single replay. *)
let read_only_prog ctx =
  let c = Cell.make_in ctx ~label:"shared" 42 in
  let a = Cilk.spawn ctx (fun ctx -> Cell.read ctx c) in
  let b = Cilk.spawn ctx (fun ctx -> Cell.read ctx c) in
  let d = Cilk.spawn ctx (fun ctx -> Cell.read ctx c) in
  Cilk.sync ctx;
  Cilk.get ctx a + Cilk.get ctx b + Cilk.get ctx d

let test_zero_replays () =
  let w = verify_ok ~name:"read-only" read_only_prog in
  checkb "complete" true w.Witness.complete;
  check "racy locs" 0 (List.length w.Witness.racy_locs);
  check "replays" 0 w.Witness.n_replays;
  check "residual" 0 w.Witness.n_residual;
  checkb "whole family skipped" true (w.Witness.n_skipped = w.Witness.n_specs);
  checkb "family nonempty" true (w.Witness.n_specs > 0);
  checkb "not truncated" false w.Witness.truncated

(* The front end executes the program once: the recording that the IR,
   the scan and the profile are all built from. A certified family adds
   no replay. *)
let test_one_execution () =
  let runs = ref 0 in
  let w =
    verify_ok ~name:"read-only" (fun ctx ->
        incr runs;
        read_only_prog ctx)
  in
  check "replays" 0 w.Witness.n_replays;
  check "program executions" 1 !runs

(* Each replay executes the program once more, and nothing else does. *)
let test_executions_per_replay () =
  List.iter
    (fun name ->
      let prog = demo name in
      let runs = ref 0 in
      let w =
        verify_ok ~name (fun ctx ->
            incr runs;
            prog ctx)
      in
      checkb (name ^ ": replays ran") true (w.Witness.n_replays > 0);
      check (name ^ ": 1 + replays executions") (1 + w.Witness.n_replays) !runs)
    [ "fig1-buggy"; "racy-read"; "fib-racy" ]

(* The recording honours the event budget: a 300k-iteration loop under
   [~max_events:1000] stops after at most a thousand iterations with the
   contained budget diagnostic, instead of being recorded in full. *)
let test_recording_budget () =
  let iterations = ref 0 in
  let loop ctx =
    let c = Cell.make_in ctx ~label:"acc" 0 in
    for i = 1 to 300_000 do
      incr iterations;
      Cell.write ctx c i
    done;
    Cell.read ctx c
  in
  (match Witness.verify ~max_events:1000 ~name:"loop" loop with
  | Error (Diag.Budget_exceeded (Diag.Max_events 1000)) -> ()
  | Error f -> Alcotest.failf "unexpected failure: %s" (Diag.to_string f)
  | Ok _ -> Alcotest.fail "verify ignored the event budget");
  checkb
    (Printf.sprintf "iterations bounded (ran %d)" !iterations)
    true (!iterations <= 1000);
  (* a deadline that expired before entry cancels the recording before
     the loop starts *)
  iterations := 0;
  (match Witness.verify ~deadline:(-1.0) ~name:"loop" loop with
  | Error (Diag.Budget_exceeded (Diag.Deadline _)) -> ()
  | Error f -> Alcotest.failf "unexpected failure: %s" (Diag.to_string f)
  | Ok _ -> Alcotest.fail "verify ignored the deadline");
  check "no iteration past the deadline" 0 !iterations

let test_truncated_fallback () =
  (* a 1-pair budget truncates the scan; soundness demands the no-steal
     replay be kept and the verdict stay correct *)
  let w = verify_ok ~max_pairs:1 ~name:"read-only" read_only_prog in
  checkb "truncated" true w.Witness.truncated;
  checkb "still race-free" true (w.Witness.racy_locs = []);
  checkb "fell back to replaying" true (w.Witness.n_replays >= 1);
  let wb = verify_ok ~max_pairs:1 ~name:"fig1-buggy" (demo "fig1-buggy") in
  checkb "truncated racy program still racy" true (wb.Witness.racy_locs <> [])

(* ---------- R006: spec-independent races ---------- *)

let test_spec_independent () =
  let prog = demo "fib-racy" in
  let w = verify_ok ~name:"fib-racy" prog in
  checkb "spec-independent set nonempty" true (w.Witness.spec_independent <> []);
  checkb "spec-independent ⊆ racy" true
    (List.for_all
       (fun l -> List.mem l w.Witness.racy_locs)
       w.Witness.spec_independent);
  let ir =
    match Ir.of_program prog with
    | Ok ir -> ir
    | Error f -> Alcotest.fail (Diag.to_string f)
  in
  let findings = Lint.run ~program:prog ~verify:w ir in
  checkb "R006 fires" true
    (List.exists (fun f -> f.Lint.rule = "R006") findings);
  (* and stays silent when the program has no spec-independent race *)
  let clean = demo "fig1-fixed" in
  let wc = verify_ok ~name:"fig1-fixed" clean in
  check "clean program: no spec-independent locs" 0
    (List.length wc.Witness.spec_independent);
  let irc =
    match Ir.of_program clean with
    | Ok ir -> ir
    | Error f -> Alcotest.fail (Diag.to_string f)
  in
  let fc = Lint.run ~program:clean ~verify:wc irc in
  checkb "R006 silent on fig1-fixed" false
    (List.exists (fun f -> f.Lint.rule = "R006") fc)

(* ---------- golden fixtures ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  body

let golden_case name render () =
  let rendered = render () in
  let fname = Printf.sprintf "%s.golden" name in
  match Sys.getenv_opt "RADER_GOLDEN_REGEN" with
  | Some dir ->
      let oc = open_out_bin (Filename.concat dir fname) in
      output_string oc rendered;
      close_out oc
  | None ->
      let path = Filename.concat "golden" fname in
      if not (Sys.file_exists path) then
        Alcotest.failf
          "missing golden file %s — generate with \
           RADER_GOLDEN_REGEN=$PWD/test/golden dune runtest"
          fname;
      let expected = read_file path in
      if expected <> rendered then begin
        Printf.printf "--- expected (%s)\n%s--- got\n%s" fname expected rendered;
        Alcotest.failf
          "%s: verify output drifted — if intentional, re-baseline with \
           RADER_GOLDEN_REGEN (see test_verify.ml)"
          fname
      end

let verify_table ?max_pairs name () =
  Witness.to_table (verify_ok ?max_pairs ~name (demo name))

let verify_json ?max_pairs name () =
  Witness.to_json (verify_ok ?max_pairs ~name (demo name))

(* A reducer-free program with 320 locations: every row comes from the
   scan's certificates, none from a replay. *)
let small_stencil =
  (Rader_benchsuite.Bm_oblivious.stencil ~seed:1 ~n:160 ~rounds:2 ~grain:16)
    .Rader_benchsuite.Bench_def.cilk

let stencil_render render () =
  render (verify_ok ~name:"stencil" small_stencil)

let goldens =
  [
    ("verify_fig1-fixed__table", verify_table "fig1-fixed");
    ("verify_fig1-fixed__json", verify_json "fig1-fixed");
    ("verify_fig1-buggy__table", verify_table "fig1-buggy");
    ("verify_fig1-buggy__json", verify_json "fig1-buggy");
    (* a truncated scan: the racy row's endpoints come from the replay's
       report, not from the scan *)
    ("verify_racy-read_max-pairs-7__table", verify_table ~max_pairs:7 "racy-read");
    ("verify_racy-read_max-pairs-7__json", verify_json ~max_pairs:7 "racy-read");
    ("verify_stencil-160__table", stencil_render Witness.to_table);
    ("verify_stencil-160__json", stencil_render Witness.to_json);
  ]

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_parity ~racy:true ~reach:Reach.Dset ~count:50;
      prop_parity ~racy:true ~reach:Reach.Depa ~count:50;
      prop_parity ~racy:false ~reach:Reach.Dset ~count:50;
      prop_parity ~racy:false ~reach:Reach.Depa ~count:50;
    ]

let () =
  Alcotest.run "verify"
    [
      ("parity", properties);
      ( "witnesses",
        [
          Alcotest.test_case "demo witnesses replay-confirmed" `Quick
            test_demo_witnesses;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "zero replays on certified family" `Quick
            test_zero_replays;
          Alcotest.test_case "truncated scan falls back" `Quick
            test_truncated_fallback;
        ] );
      ( "front end",
        [
          Alcotest.test_case "one recording, no profiling run" `Quick
            test_one_execution;
          Alcotest.test_case "1 + replays executions" `Quick
            test_executions_per_replay;
          Alcotest.test_case "recording honours budgets" `Quick
            test_recording_budget;
        ] );
      ( "r006",
        [ Alcotest.test_case "spec-independent races" `Quick test_spec_independent ] );
      ( "golden",
        List.map
          (fun (name, render) ->
            Alcotest.test_case name `Quick (golden_case name render))
          goldens );
    ]
