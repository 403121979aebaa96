(* Tests for the online work-stealing runtime (Rader_sched.Online) and its
   verdicts.

   - soundness: on generated programs, every run's verdict equals an SP+
     replay under the run's own steal trace plus a no-steal Peer-Set run,
     both written out here, and the §7 exhaustive sweep (ground truth
     over all schedules) covers each of its racy locations, by label;
     [Steal_trace.to_spec] maps traces to the spawn indices of its first,
     path-hashing algorithm, kept here as the reference;
   - determinism: same (program, seed, density) ⇒ identical steal trace,
     verdict and result, for every worker count;
   - integrity: race-free demos compute the same value online as the
     serial engine (reducer views survive being split across regions);
   - budgets: the runtime and the verdict each contain an exhausted event
     budget or deadline;
   - soak: 256 randomized-seed runs over racy / crashing / budgeted
     programs at workers ∈ {1,2,4,8}, each deadline-guarded, must all end
     in a verdict or a contained failure. *)

open Rader_runtime
open Rader_core
module O = Rader_sched.Online
module G = Rader_testkit.Gen_program
module Demos = Rader_benchsuite.Demos

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let cfg ?(workers = 2) ?(seed = 1) ?max_events ?deadline () =
  { O.workers; seed; density = 0.5; max_events; deadline; clock = None }

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

let demo name =
  match Demos.resolve ~scale:0.25 name with
  | Ok p -> p
  | Error m -> Alcotest.fail m

let value_string = function
  | Ok v -> Printf.sprintf "ok:%d" v
  | Error f -> "contained:" ^ Diag.class_name f

(* The verdict on a completed run, from a judge of its own. *)
let verdict_of prog (out : O.outcome) =
  match out.O.value with
  | Error f -> Alcotest.failf "run contained: %s" (Diag.to_string f)
  | Ok _ -> (
      match O.verdict (O.judge prog) out.O.trace with
      | Ok races -> races
      | Error f -> Alcotest.failf "verdict contained: %s" (Diag.to_string f))

(* ---------- trace -> spec: the reference algorithm ---------- *)

(* [Steal_trace.to_spec]'s first algorithm: every user frame's path from
   the root in a table keyed by frame, every (path, per-frame ordinal) in
   a table keyed by the path itself. [None] if an entry has no spawn. *)
let reference_indices (nosteal : Trace.t) (t : Steal_trace.t) =
  let paths = Hashtbl.create 64 and next_ord = Hashtbl.create 64 in
  List.iter
    (fun (fid, parent, _spawned, kind) ->
      if kind = Tool.User_fn then
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
    nosteal.Trace.frames;
  let spawn_ord = Hashtbl.create 64 and index = Hashtbl.create 64 in
  List.iter
    (fun { Trace.sp_index; sp_frame; _ } ->
      let ord = Option.value ~default:0 (Hashtbl.find_opt spawn_ord sp_frame) in
      Hashtbl.replace spawn_ord sp_frame (ord + 1);
      match Hashtbl.find_opt paths sp_frame with
      | None -> ()
      | Some p -> Hashtbl.replace index (p, ord) sp_index)
    nosteal.Trace.spawns;
  let found =
    List.map
      (fun e -> Hashtbl.find_opt index (e.Steal_trace.e_path, e.Steal_trace.e_ord))
      t.Steal_trace.entries
  in
  if List.mem None found then None else Some (List.filter_map Fun.id found)

let record_nosteal prog =
  let eng = Engine.create ~record:true () in
  match Engine.run_result eng (fun ctx -> ignore (prog ctx)) with
  | Ok () -> Trace.of_engine eng
  | Error f -> Alcotest.failf "no-steal recording: %s" (Diag.to_string f)

let spec_indices nosteal trace =
  match Steal_trace.to_spec nosteal trace with
  | Error _ -> None
  | Ok spec -> (
      match spec.Steal_spec.shape with
      | Steal_spec.Spawn_indices idxs -> Some idxs
      | _ -> Alcotest.fail "to_spec: not a spawn-index spec")

let prop_to_spec_reference =
  QCheck2.Test.make ~name:"to_spec = reference on generated programs" ~count:40
    ~print:(fun (p, _) -> G.print p)
    QCheck2.Gen.(
      pair
        (G.gen ~with_reducers:true ~racy:true)
        (G.gen ~with_reducers:true ~racy:false))
    (fun (p, q) ->
      let prog = G.interpret p in
      let own = record_nosteal prog
      and other = record_nosteal (G.interpret q)
      and spawn_free = record_nosteal (fun _ -> 0) in
      List.for_all
        (fun (seed, workers) ->
          let out = O.run (cfg ~workers ~seed ()) prog in
          let agree nosteal =
            spec_indices nosteal out.O.trace = reference_indices nosteal out.O.trace
          in
          if not (agree own) then
            QCheck2.Test.fail_reportf "seed=%d: indices differ from the reference"
              seed
          else if not (agree other) then
            QCheck2.Test.fail_reportf
              "seed=%d: another program's recording resolves differently" seed
          else if
            out.O.trace.Steal_trace.entries <> []
            && spec_indices spawn_free out.O.trace <> None
          then
            QCheck2.Test.fail_reportf
              "seed=%d: a spawn-free program resolved a steal" seed
          else true)
        [ (1, 1); (2, 2); (3, 2) ])

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
let replay prog (out : O.outcome) =
  match reference_indices (record_nosteal prog) out.O.trace with
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
let check_run prog judge det_truth (seed, workers) =
  let out =
    O.run
      (cfg ~workers ~seed ~max_events ~deadline:(Unix.gettimeofday () +. 30.) ())
      prog
  in
  let races =
    match out.O.value with
    | Error f ->
        QCheck2.Test.fail_reportf "seed=%d workers=%d: run contained: %s" seed
          workers (Diag.to_string f)
    | Ok _ -> (
        match O.verdict ~max_events judge out.O.trace with
        | Ok races -> races
        | Error f ->
            QCheck2.Test.fail_reportf "seed=%d workers=%d: verdict contained: %s"
              seed workers (Diag.to_string f))
  in
  let expected = replay prog out in
  let o_det = racy_labels races in
  if races <> expected then
    QCheck2.Test.fail_reportf "seed=%d workers=%d: verdict %s <> replay %s" seed
      workers (race_summary races) (race_summary expected)
  else if not (List.for_all (covered det_truth) o_det) then
    QCheck2.Test.fail_reportf
      "seed=%d workers=%d: online determinacy [%s] ⊄ exhaustive [%s]" seed
      workers (String.concat ";" o_det) (String.concat ";" det_truth)
  else true

let check_program p runs =
  let prog = G.interpret p in
  let truth = Coverage.exhaustive_check ~max_events prog in
  let det_truth = sweep_labels prog truth in
  let judge = O.judge prog in
  List.for_all (check_run prog judge det_truth) runs

let prop_verdict_is_replay ~racy ~count =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "online verdict = replay, ⊆ exhaustive (racy=%b)" racy)
    ~count ~print:G.print
    (G.gen ~with_reducers:true ~racy)
    (fun p ->
      QCheck2.assume (G.max_local_spawns p <= 4);
      check_program p [ (1, 1); (2, 2); (3, 2) ])

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
      (1, 1) );
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
      (2, 2) );
  ]

let test_pinned_sweep_cases () =
  List.iter
    (fun (p, run) ->
      match check_program p [ run ] with
      | true -> ()
      | false -> Alcotest.failf "pinned case failed:\n%s" (G.print p)
      | exception QCheck2.Test.Test_fail (_, msgs) ->
          Alcotest.failf "%s\n%s" (G.print p) (String.concat "\n" msgs))
    pinned_sweep_cases

(* Locations and reducers created in parallel code get serial ids, not
   worker-arrival ids: the pfor iterations below create identity-view
   cells in stolen regions on both workers. Every rerun's verdict must
   name the same subjects as the one-worker run (which executes in
   serial order). *)
let pinned_alloc_race =
  {
    G.body =
      [
        G.Spawn [ G.Read 1; G.Update 0 ];
        G.Pfor (4, [ G.Get_reducer 1; G.Update 1; G.Write 0 ]);
      ];
    n_cells = 4;
    reducers =
      [|
        { G.update_touches = None; reduce_touches = Some 0 };
        { G.update_touches = None; reduce_touches = Some 1 };
      |];
  }

let test_parallel_alloc_ids () =
  let prog = G.interpret pinned_alloc_race in
  let serial = verdict_of prog (O.run (cfg ~workers:1 ~seed:2 ()) prog) in
  checkb "the pinned program races" true (serial <> []);
  for i = 1 to 10 do
    let out = O.run (cfg ~workers:2 ~seed:2 ()) prog in
    checks
      (Printf.sprintf "rerun %d: subjects = one-worker run" i)
      (race_summary serial)
      (race_summary (verdict_of prog out))
  done

(* ---------- determinism ---------- *)

let entries_string tr =
  String.concat "|"
    (List.map
       (fun e ->
         Printf.sprintf "%s:%d"
           (String.concat "." (List.map string_of_int e.Steal_trace.e_path))
           e.Steal_trace.e_ord)
       tr.Steal_trace.entries)

let test_determinism () =
  List.iter
    (fun name ->
      let prog = demo name in
      let summary out = race_summary (verdict_of prog out) in
      (* same seed twice at the same worker count: bit-identical *)
      let a = O.run (cfg ~workers:2 ~seed:5 ()) prog in
      let b = O.run (cfg ~workers:2 ~seed:5 ()) prog in
      checks (name ^ ": trace stable across reruns")
        (Steal_trace.to_string a.O.trace)
        (Steal_trace.to_string b.O.trace);
      checks (name ^ ": verdict stable across reruns") (summary a) (summary b);
      checks (name ^ ": value stable across reruns") (value_string a.O.value)
        (value_string b.O.value);
      (* the steal set, verdict and value are worker-count independent *)
      List.iter
        (fun workers ->
          let c = O.run (cfg ~workers ~seed:5 ()) prog in
          checks
            (Printf.sprintf "%s: steal set identical at %d workers" name
               workers)
            (entries_string a.O.trace) (entries_string c.O.trace);
          checks
            (Printf.sprintf "%s: verdict identical at %d workers" name workers)
            (summary a) (summary c);
          checks
            (Printf.sprintf "%s: value identical at %d workers" name workers)
            (value_string a.O.value) (value_string c.O.value))
        [ 1; 4 ];
      (* a different seed picks a different steal set on programs with
         enough spawns — sanity that the seed actually reaches it *)
      if name = "fib-racy" then begin
        let d = O.run (cfg ~workers:2 ~seed:6 ()) prog in
        checkb (name ^ ": different seed, different steal set") false
          (entries_string a.O.trace = entries_string d.O.trace)
      end)
    [ "fib-racy"; "fig1-buggy"; "racy-read"; "wordcount" ]

(* ---------- reducer-view integrity on race-free programs ---------- *)

let test_value_integrity () =
  List.iter
    (fun name ->
      let prog = demo name in
      let serial =
        let eng = Engine.create () in
        match Engine.run_result eng prog with
        | Ok v -> v
        | Error f -> Alcotest.fail (name ^ " serial: " ^ Diag.to_string f)
      in
      let judge = O.judge prog in
      List.iter
        (fun (workers, seed) ->
          let out = O.run (cfg ~workers ~seed ()) prog in
          check
            (Printf.sprintf "%s: online(workers=%d,seed=%d) = serial" name
               workers seed)
            serial
            (match out.O.value with
            | Ok v -> v
            | Error f ->
                Alcotest.fail (name ^ " online: " ^ Diag.to_string f));
          match O.verdict judge out.O.trace with
          | Ok races -> check (name ^ ": race-free online") 0 (List.length races)
          | Error f -> Alcotest.failf "%s verdict: %s" name (Diag.to_string f))
        [ (1, 1); (2, 1); (2, 9); (4, 3) ])
    [ "fig1-fixed"; "wordcount"; "minimax"; "nqueens" ]

(* ---------- online finds the seeded demo races ---------- *)

let test_demo_races_found () =
  (* fib-racy: a structural determinacy race, found on every schedule *)
  let prog = demo "fib-racy" in
  let races = verdict_of prog (O.run (cfg ~workers:2 ~seed:1 ()) prog) in
  checkb "fib-racy: determinacy race found" true
    (kind_subjects races Report.Determinacy_race <> []);
  (* racy-read: the view-read race Peer-Set exists to catch *)
  let prog = demo "racy-read" in
  let races = verdict_of prog (O.run (cfg ~workers:2 ~seed:1 ()) prog) in
  checkb "racy-read: view-read race found" true
    (kind_subjects races Report.View_read_race <> [])

(* ---------- 256-run randomized soak ---------- *)

(* A fib tree with a crashing leaf: the exception must come back as a
   contained User_program_exn whichever worker hits it. *)
let crashing ctx =
  let rec go ctx k =
    if k = 0 then failwith "soak-crash"
    else begin
      let a = Cilk.spawn ctx (fun ctx -> go ctx (k - 1)) in
      let b = if k > 1 then go ctx (k - 2) else 0 in
      Cilk.sync ctx;
      Cilk.get ctx a + b
    end
  in
  go ctx 6

let test_soak () =
  let corpus =
    Array.map
      (fun (name, prog, max_events, expect) ->
        (name, prog, O.judge prog, max_events, expect))
      [|
        ("fib-racy", demo "fib-racy", None, `Races);
        ("fig1-buggy", demo "fig1-buggy", None, `Maybe_races);
        ("racy-read", demo "racy-read", None, `Races);
        ("crashing", crashing, None, `Contained "user-program-exn");
        ("budgeted", demo "fib-racy", Some 64, `Contained "budget-exceeded");
      |]
  in
  let workers_of = [| 1; 2; 4; 8 |] in
  let n_ok = ref 0 and n_contained = ref 0 and n_racy = ref 0 in
  for i = 0 to 255 do
    let name, prog, judge, max_events, expect =
      corpus.(i mod Array.length corpus)
    in
    let workers = workers_of.(i mod Array.length workers_of) in
    let seed = 1000 + i in
    let deadline = Unix.gettimeofday () +. 30. in
    let out = O.run (cfg ~workers ~seed ?max_events ~deadline ()) prog in
    let tag = Printf.sprintf "soak %d (%s workers=%d seed=%d)" i name workers seed in
    let races =
      match out.O.value with
      | Ok _ -> (
          incr n_ok;
          (match expect with
          | `Contained cls ->
              Alcotest.failf "%s: expected contained %s, got Ok" tag cls
          | _ -> ());
          match O.verdict ?max_events ~deadline judge out.O.trace with
          | Ok races -> races
          | Error f -> Alcotest.failf "%s: verdict contained: %s" tag (Diag.to_string f))
      | Error f -> (
          incr n_contained;
          match expect with
          | `Contained cls ->
              checks (tag ^ ": failure class") cls (Diag.class_name f);
              []
          | _ -> Alcotest.failf "%s: unexpected failure %s" tag (Diag.to_string f))
    in
    if races <> [] then incr n_racy;
    match expect with
    | `Races -> checkb (tag ^ ": races detected") true (races <> [])
    | _ -> ()
  done;
  checkb "soak: both clean and contained outcomes exercised" true
    (!n_ok > 0 && !n_contained > 0 && !n_racy > 0)

(* ---------- budget and deadline containment ---------- *)

let test_budget_containment () =
  let out = O.run (cfg ~workers:2 ~seed:1 ~max_events:64 ()) (demo "fib-racy") in
  (match out.O.value with
  | Error (Fault.Budget_exceeded (Fault.Max_events 64)) -> ()
  | Error f -> Alcotest.failf "wrong failure: %s" (Diag.to_string f)
  | Ok _ -> Alcotest.fail "event budget did not stop the run");
  let out =
    O.run
      (cfg ~workers:2 ~seed:1 ~deadline:1.0 ())
      (demo "fib-racy")
  in
  match out.O.value with
  | Error (Fault.Budget_exceeded (Fault.Deadline _)) -> ()
  | Error f -> Alcotest.failf "wrong failure: %s" (Diag.to_string f)
  | Ok _ -> Alcotest.fail "expired deadline did not stop the run"

(* The verdict's serial runs honour the same budgets, contained: first
   the no-steal recording (a judge that has recorded nothing yet), then,
   once an unbudgeted verdict has made the recording, the SP+ replay. A
   trace of another program gets no verdict. *)
let test_verdict_budgets () =
  let prog = demo "fib-racy" in
  let trace = (O.run (cfg ~workers:2 ~seed:1 ()) prog).O.trace in
  let expect what want = function
    | Error (Fault.Budget_exceeded b) when want b -> ()
    | Error f -> Alcotest.failf "%s: wrong failure: %s" what (Diag.to_string f)
    | Ok _ -> Alcotest.failf "%s: the verdict ignored its budget" what
  in
  let judge = O.judge prog in
  expect "expired deadline"
    (function Fault.Deadline _ -> true | _ -> false)
    (O.verdict ~deadline:1.0 judge trace);
  expect "small max_events"
    (( = ) (Fault.Max_events 64))
    (O.verdict ~max_events:64 judge trace);
  (match O.verdict judge trace with
  | Ok races -> checkb "unbudgeted verdict finds the race" true (races <> [])
  | Error f -> Alcotest.failf "unbudgeted verdict: %s" (Diag.to_string f));
  expect "small max_events, SP+ replay"
    (( = ) (Fault.Max_events 64))
    (O.verdict ~max_events:64 judge trace);
  let foreign =
    Steal_trace.make ~workers:1 ~seed:0 ~density:0.5
      [ { Steal_trace.e_path = [ 99; 99 ]; e_ord = 0 } ]
  in
  match O.verdict judge foreign with
  | Error (Fault.Invalid_steal_spec _) -> ()
  | Error f -> Alcotest.failf "foreign trace: wrong failure: %s" (Diag.to_string f)
  | Ok _ -> Alcotest.fail "a trace of another program got a verdict"

let test_config_validation () =
  let prog = demo "fib-racy" in
  Alcotest.check_raises "workers < 1 rejected"
    (Invalid_argument "Online.run: workers must be >= 1") (fun () ->
      ignore (O.run (cfg ~workers:0 ()) prog))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_verdict_is_replay ~racy:true ~count:25;
      prop_verdict_is_replay ~racy:false ~count:25;
      prop_to_spec_reference;
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
      ( "determinism",
        [ Alcotest.test_case "trace/verdict/value" `Quick test_determinism ] );
      ( "integrity",
        [
          Alcotest.test_case "race-free values" `Quick test_value_integrity;
          Alcotest.test_case "demo races found" `Quick test_demo_races_found;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "parallel allocations get serial ids" `Quick
            test_parallel_alloc_ids;
        ] );
      ( "soak",
        [
          Alcotest.test_case "256 randomized runs" `Slow test_soak;
          Alcotest.test_case "budgets contained" `Quick test_budget_containment;
          Alcotest.test_case "verdict honours budgets" `Quick
            test_verdict_budgets;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
    ]
