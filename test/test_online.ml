(* Tests for online runs (Rader_sched.Online): structural steal sets
   judged by the serial detectors.

   - soundness: on generated programs, every run's verdict equals an SP+
     replay under the run's own steals plus a no-steal Peer-Set run,
     both written out here, and the §7 exhaustive sweep (ground truth
     over all schedules) covers each of its racy locations, by label;
     [Steal_trace.structural]'s spawn indices equal those a path-hashing
     reference finds for its entries; the frames the judge observes
     ([Steal_trace.observe]) equal the decoder's;
   - the seeded demo races are found;
   - budgets: each serial run contains an exhausted event budget or
     deadline, and a density outside [0, 1] is rejected;
   - a golden table pins each demo program's steal counts, values, racy
     subjects and steal-trace digests at four seeds. *)

open Rader_runtime
open Rader_core
module O = Rader_sched.Online
module G = Rader_testkit.Gen_program
module Demos = Rader_benchsuite.Demos

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let kind_subjects races kind =
  List.filter_map
    (fun r -> if r.Report.kind = kind then Some r.Report.subject else None)
    races
  |> List.sort_uniq compare

let ints l = String.concat ";" (List.map string_of_int l)

(* A verdict's racy subjects on one line, e.g.
   ["determinacy=[3;7] view-read=[0]"]. *)
let race_summary races =
  Printf.sprintf "determinacy=[%s] view-read=[%s]"
    (ints (kind_subjects races Report.Determinacy_race))
    (ints (kind_subjects races Report.View_read_race))

let resolve ~scale name =
  match Demos.resolve ~scale name with
  | Ok p -> p
  | Error m -> Alcotest.fail m

let demo = resolve ~scale:0.25

let value_string = function
  | Ok v -> Printf.sprintf "ok:%d" v
  | Error f -> "contained:" ^ Diag.class_name f

(* The races of a completed run, from a judge of its own. *)
let races_of prog ~seed =
  let run = O.run (O.judge prog) ~seed ~density:0.5 in
  match run.O.value with
  | Ok _ -> run.O.races
  | Error f -> Alcotest.failf "run contained: %s" (Diag.to_string f)

(* ---------- steal sets: the reference algorithm ---------- *)

(* The path-hashing reference: every user frame's path from the root in
   a table keyed by frame, every (path, per-frame ordinal) in a table
   keyed by the path itself. [None] if an entry has no spawn. *)
let reference_indices (nosteal : Steal_trace.frames) (t : Steal_trace.t) =
  let paths = Hashtbl.create 64 and next_ord = Hashtbl.create 64 in
  Array.iteri
    (fun fid parent ->
      if nosteal.Steal_trace.frame_kind.(fid) = Tool.User_fn then
        if parent = -1 then Hashtbl.replace paths fid []
        else
          match Hashtbl.find_opt paths parent with
          | None -> ()
          | Some pp ->
              let ord =
                Option.value ~default:0 (Hashtbl.find_opt next_ord parent)
              in
              Hashtbl.replace next_ord parent (ord + 1);
              Hashtbl.replace paths fid (pp @ [ ord ]))
    nosteal.Steal_trace.frame_parent;
  let spawn_ord = Hashtbl.create 64 and index = Hashtbl.create 64 in
  Array.iteri
    (fun sp_index sp_frame ->
      let ord = Option.value ~default:0 (Hashtbl.find_opt spawn_ord sp_frame) in
      Hashtbl.replace spawn_ord sp_frame (ord + 1);
      match Hashtbl.find_opt paths sp_frame with
      | None -> ()
      | Some p -> Hashtbl.replace index (p, ord) sp_index)
    nosteal.Steal_trace.spawn_frame;
  let found =
    List.map
      (fun e -> Hashtbl.find_opt index (e.Steal_trace.e_path, e.Steal_trace.e_ord))
      t.Steal_trace.entries
  in
  if List.mem None found then None else Some (List.filter_map Fun.id found)

(* The frames of [prog]'s no-steal run, by the decoder and by the
   observer the judge installs. *)
let nosteal_frames prog =
  let eng = Engine.create ~record:true () in
  let tool, observed = Steal_trace.observe Tool.null in
  Engine.set_tool eng tool;
  match Engine.run_result eng (fun ctx -> ignore (prog ctx)) with
  | Ok () ->
      let tr = Trace.of_engine eng in
      ( {
          Steal_trace.frame_parent = tr.Trace.frame_parent;
          frame_kind = tr.Trace.frame_kind;
          spawn_frame = tr.Trace.spawn_frame;
        },
        observed () )
  | Error f -> Alcotest.failf "no-steal recording: %s" (Diag.to_string f)

let record_nosteal prog = fst (nosteal_frames prog)

let prop_observed_frames =
  QCheck2.Test.make ~name:"observed frames = decoded frames on generated programs"
    ~count:100 ~print:G.print
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      let decoded, observed = nosteal_frames (G.interpret p) in
      decoded = observed
      || QCheck2.Test.fail_reportf "frames %d/%d, spawns %d/%d"
           (Array.length decoded.Steal_trace.frame_parent)
           (Array.length observed.Steal_trace.frame_parent)
           (Array.length decoded.Steal_trace.spawn_frame)
           (Array.length observed.Steal_trace.spawn_frame))

let prop_structural_reference =
  QCheck2.Test.make ~name:"structural indices = reference on generated programs"
    ~count:40 ~print:G.print
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      let nosteal = record_nosteal (G.interpret p) in
      List.for_all
        (fun seed ->
          let spec, trace = Steal_trace.structural ~seed ~density:0.5 nosteal in
          let indices =
            match spec.Steal_spec.shape with
            | Steal_spec.Spawn_indices idxs -> idxs
            | _ -> Alcotest.fail "structural: not a spawn-index spec"
          in
          Some indices = reference_indices nosteal trace
          || QCheck2.Test.fail_reportf "seed=%d: indices differ from the reference"
               seed)
        [ 1; 2; 3 ])

(* ---------- soundness on generated programs ---------- *)

(* Run [prog] on [eng] under the detector [attach] installs; a contained
   failure fails the test. *)
let run_on eng prog attach =
  let d = attach eng in
  match Engine.run_result eng (fun ctx -> ignore (prog ctx)) with
  | Ok () -> d
  | Error f -> Alcotest.failf "replay contained: %s" (Diag.to_string f)

(* The verdict written out: SP+ on a fresh engine under the run's steals,
   mapped to spawn indices by the reference algorithm, plus Peer-Set on
   a fresh no-steal engine. *)
let replay prog (trace : Steal_trace.t) =
  match reference_indices (record_nosteal prog) trace with
  | None -> Alcotest.fail "the run's trace has no serial counterpart"
  | Some idxs ->
      let spec =
        Steal_spec.by_spawn_index ~policy:Steal_spec.Reduce_at_sync idxs
      in
      let sp = run_on (Engine.create ~spec ()) prog Sp_plus.attach in
      let pe = run_on (Engine.create ()) prog Peer_set.attach in
      List.sort
        (fun a b ->
          compare (a.Report.kind, a.Report.subject) (b.Report.kind, b.Report.subject))
        (Sp_plus.races sp @ Peer_set.races pe)

(* Racy locations are compared across specs by label, not by id. An id
   is a position in one run's allocation order, and the cells that
   identity views and [set_value] create draw from the same counter as
   the rest, so under different specs one id can name different cells.
   A shared cell ["cell<j>"] and a reducer's initial view ["r<i>.view0"]
   exist under every schedule: the sweep must report the same label. A
   view that some schedules create (["r<i>.view"]) or that [set_value]
   installs (["r<i>.reset"]) is matched by a race on any view of
   reducer [i]: one race falls on an identity view under the run's
   steals and on the initial view in the sweep (the second pinned case
   below). *)
let racy_labels races =
  List.filter_map
    (fun r ->
      if r.Report.kind = Report.Determinacy_race then Some r.Report.subject_label
      else None)
    races
  |> List.sort_uniq compare

let reducer_of label =
  Option.map (fun i -> String.sub label 0 i) (String.index_opt label '.')

(* Whether the sweep's racy labels [sweep] account for a race on
   [label]. *)
let covered sweep label =
  List.mem label sweep
  ||
  match reducer_of label with
  | Some r when not (String.ends_with ~suffix:".view0" label) ->
      List.exists (fun l -> reducer_of l = Some r) sweep
  | _ -> false

let max_events = 200_000

(* The §7 sweep's racy labels. The sweep keeps one report per location
   id, so each spec that found a race is replayed, under the sweep's
   budget, for its own reports. *)
let sweep_labels prog (truth : Coverage.result) =
  List.concat_map
    (fun (spec, locs) ->
      if locs = [] then []
      else
        let eng = Engine.create ~spec ~max_events () in
        let sp = Sp_plus.attach eng in
        ignore (Engine.run_result eng (fun ctx -> ignore (prog ctx)));
        racy_labels (Sp_plus.races sp))
    truth.Coverage.per_spec
  |> List.sort_uniq compare

(* One online run of [prog]: its verdict must equal the replay, and the
   sweep must cover each of its racy locations. *)
let check_run prog judge det_truth seed =
  let run =
    O.run ~max_events ~deadline:(Unix.gettimeofday () +. 30.) judge ~seed
      ~density:0.5
  in
  let races =
    match run.O.value with
    | Ok _ -> run.O.races
    | Error f ->
        QCheck2.Test.fail_reportf "seed=%d: run contained: %s" seed
          (Diag.to_string f)
  in
  let expected = replay prog run.O.trace in
  let o_det = racy_labels races in
  if races <> expected then
    QCheck2.Test.fail_reportf "seed=%d: verdict %s <> replay %s" seed
      (race_summary races) (race_summary expected)
  else if not (List.for_all (covered det_truth) o_det) then
    QCheck2.Test.fail_reportf "seed=%d: online determinacy [%s] ⊄ exhaustive [%s]"
      seed (String.concat ";" o_det) (String.concat ";" det_truth)
  else true

let check_program p seeds =
  let prog = G.interpret p in
  let truth = Coverage.exhaustive_check ~max_events prog in
  let det_truth = sweep_labels prog truth in
  let judge = O.judge prog in
  List.for_all (check_run prog judge det_truth) seeds

let prop_verdict_is_replay ~racy ~count =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "online verdict = replay, ⊆ exhaustive (racy=%b)" racy)
    ~count ~print:G.print
    (G.gen ~with_reducers:true ~racy)
    (fun p ->
      QCheck2.assume (G.max_local_spawns p <= 4);
      check_program p [ 1; 2; 3 ])

(* Two runs whose racy views have different ids online and in the sweep,
   so only [covered] relates them. [call { read c0 }; pfor 4 { get r1;
   update r1 }], seed 1: an identity view of r1 is id 6 in the run and
   id 7 in the sweep. [spawn { read c0 }; pfor 4 { get r0; read c0 };
   read c0], seed 2: a reduce's write races with a read of the view it
   writes, an identity view of r0 in the run (id 6) and r0's initial
   view in the sweep (id 4). *)
let touch_free = { G.update_touches = None; reduce_touches = None }

let pinned_sweep_cases =
  [
    ( {
        G.body =
          [
            G.Call [ G.Read 0 ];
            G.Pfor (4, [ G.Get_reducer 1; G.Update 1 ]);
          ];
        n_cells = 4;
        reducers = [| touch_free; touch_free |];
      },
      1 );
    ( {
        G.body =
          [
            G.Spawn [ G.Read 0 ];
            G.Pfor (4, [ G.Get_reducer 0; G.Read 0 ]);
            G.Read 0;
          ];
        n_cells = 4;
        reducers = [| touch_free; touch_free |];
      },
      2 );
  ]

let test_pinned_sweep_cases () =
  List.iter
    (fun (p, seed) ->
      match check_program p [ seed ] with
      | true -> ()
      | false -> Alcotest.failf "pinned case failed:\n%s" (G.print p)
      | exception QCheck2.Test.Test_fail (_, msgs) ->
          Alcotest.failf "%s\n%s" (G.print p) (String.concat "\n" msgs))
    pinned_sweep_cases

(* ---------- online finds the seeded demo races ---------- *)

let test_demo_races_found () =
  (* fib-racy: a structural determinacy race, found on every schedule *)
  checkb "fib-racy: determinacy race found" true
    (kind_subjects (races_of (demo "fib-racy") ~seed:1) Report.Determinacy_race
    <> []);
  (* racy-read: the view-read race Peer-Set exists to catch *)
  checkb "racy-read: view-read race found" true
    (kind_subjects (races_of (demo "racy-read") ~seed:1) Report.View_read_race
    <> [])

(* ---------- budgets ---------- *)

(* Each serial run honours the budgets, contained: first the no-steal
   Peer-Set run (a judge that has run nothing yet), which leaves the run
   without steals, then, once an unbudgeted run has made it, the SP+
   replay, whose steals are known. *)
let test_verdict_budgets () =
  let prog = demo "fib-racy" in
  let judge = O.judge prog in
  let run ?max_events ?deadline () =
    O.run ?max_events ?deadline judge ~seed:1 ~density:0.5
  in
  let expect what want ~steals (r : O.run) =
    (match r.O.value with
    | Error (Fault.Budget_exceeded b) when want b -> ()
    | Error f -> Alcotest.failf "%s: wrong failure: %s" what (Diag.to_string f)
    | Ok _ -> Alcotest.failf "%s: the run ignored its budget" what);
    checkb (what ^ ": no races") true (r.O.races = []);
    checkb (what ^ ": steals known") steals (Steal_trace.n_steals r.O.trace > 0)
  in
  expect "expired deadline"
    (function Fault.Deadline _ -> true | _ -> false)
    ~steals:false (run ~deadline:1.0 ());
  expect "small max_events"
    (( = ) (Fault.Max_events 64))
    ~steals:false (run ~max_events:64 ());
  let r = run () in
  checkb "unbudgeted run finds the race" true (Result.is_ok r.O.value && r.O.races <> []);
  expect "small max_events, SP+ replay"
    (( = ) (Fault.Max_events 64))
    ~steals:true (run ~max_events:64 ());
  List.iter
    (fun density ->
      Alcotest.check_raises
        (Printf.sprintf "density %g rejected" density)
        (Invalid_argument "Online.run: density must be in [0, 1]")
        (fun () -> ignore (O.run judge ~seed:1 ~density)))
    [ -0.1; 1.5; Float.nan ]

(* ---------- golden table ---------- *)

(* A trace's text without its header line. *)
let entry_lines tr =
  let s = Steal_trace.to_string tr in
  let i = String.index s '\n' + 1 in
  String.sub s i (String.length s - i)

(* One row per demo program at scale 0.05 and seeds 1-4: the steal
   count, the value, the racy subjects and a digest of the trace's entry
   lines. Re-baseline with
     RADER_GOLDEN_REGEN=$PWD/test/golden dune runtest   (from the repo root) *)
let golden_file = "online__demos.golden"

let golden_rows () =
  List.concat_map
    (fun name ->
      let judge = O.judge (resolve ~scale:0.05 name) in
      List.map
        (fun seed ->
          let run = O.run judge ~seed ~density:0.5 in
          Printf.sprintf "%s seed=%d steals=%d value=%s %s entries=%s\n" name seed
            (Steal_trace.n_steals run.O.trace)
            (value_string run.O.value) (race_summary run.O.races)
            (Digest.to_hex (Digest.string (entry_lines run.O.trace))))
        [ 1; 2; 3; 4 ])
    (Demos.names ())

let test_golden_table () =
  let rendered = String.concat "" (golden_rows ()) in
  match Sys.getenv_opt "RADER_GOLDEN_REGEN" with
  | Some dir ->
      Out_channel.with_open_bin (Filename.concat dir golden_file) (fun oc ->
          output_string oc rendered)
  | None ->
      let path = Filename.concat "golden" golden_file in
      if not (Sys.file_exists path) then
        Alcotest.failf
          "missing golden file %s — generate with \
           RADER_GOLDEN_REGEN=$PWD/test/golden dune runtest"
          golden_file;
      checks (golden_file ^ ": rows drifted")
        (In_channel.with_open_bin path In_channel.input_all)
        rendered

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_verdict_is_replay ~racy:true ~count:25;
      prop_verdict_is_replay ~racy:false ~count:25;
      prop_structural_reference;
      prop_observed_frames;
    ]

let () =
  Alcotest.run "online"
    [
      ( "soundness",
        properties
        @ [
            Alcotest.test_case "pinned ⊆-sweep cases" `Quick
              test_pinned_sweep_cases;
          ] );
      ( "races",
        [ Alcotest.test_case "demo races found" `Quick test_demo_races_found ] );
      ( "budgets",
        [ Alcotest.test_case "verdict honours budgets" `Quick test_verdict_budgets ]
      );
      ("golden", [ Alcotest.test_case "golden table" `Quick test_golden_table ]);
    ]
