(* Tests for the online work-stealing runtime (Rader_sched.Online).

   - soundness: the online verdict (determinacy locs and view-read
     reducers) over several seeded runs must be a subset of the serial
     ground truth — §7 exhaustive coverage for determinacy, one serial
     Peer-Set run for view-reads (its verdict is schedule-independent) —
     on generated programs, and every racy run's steal trace must convert
     to a spec under which the serial detectors confirm the verdict;
   - determinism: same (program, seed, density) ⇒ identical steal trace,
     race summary and result, for every worker count;
   - integrity: race-free demos compute the same value online as the
     serial engine (reducer views survive being split across regions);
   - soak: 256 randomized-seed runs over racy / crashing / budgeted
     programs at workers ∈ {1,2,4}, each deadline-guarded, must all end
     in a structured verdict or a contained failure. *)

open Rader_runtime
open Rader_core
module O = Rader_sched.Online
module G = Rader_testkit.Gen_program
module Demos = Rader_benchsuite.Demos

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let cfg ?(workers = 2) ?(seed = 1) ?stripes ?max_events ?deadline () =
  {
    O.workers;
    seed;
    density = 0.5;
    stripes;
    max_events;
    deadline;
    clock = None;
  }

let kind_subjects races kind =
  List.filter_map
    (fun r -> if r.Report.kind = kind then Some r.Report.subject else None)
    races
  |> List.sort_uniq compare

let subset a b = List.for_all (fun x -> List.mem x b) a

let ints l = String.concat ";" (List.map string_of_int l)

let demo name =
  match Demos.resolve ~scale:0.25 name with
  | Ok p -> p
  | Error m -> Alcotest.fail m

(* ---------- soundness on generated programs ---------- *)

(* Serial view-read ground truth: one Peer-Set run (the verdict is
   defined on the user dag, independent of the steal spec). *)
let serial_view_subjects prog =
  let eng = Engine.create () in
  let pe = Peer_set.attach eng in
  ignore (Engine.run_result eng (fun ctx -> ignore (prog ctx)));
  kind_subjects (Peer_set.races pe) Report.View_read_race

(* Serial re-check of one online run under its own realized schedule. *)
let replay_confirms prog (out : O.outcome) =
  match Steal_trace.to_spec out.O.trace prog with
  | Error msg -> Error ("trace->spec failed: " ^ msg)
  | Ok spec ->
      let eng = Engine.create ~spec () in
      let sp = Sp_plus.attach eng in
      ignore (Engine.run_result eng (fun ctx -> ignore (prog ctx)));
      let eng2 = Engine.create ~spec () in
      let pe = Peer_set.attach eng2 in
      ignore (Engine.run_result eng2 (fun ctx -> ignore (prog ctx)));
      let o_det = kind_subjects out.O.races Report.Determinacy_race in
      let o_view = kind_subjects out.O.races Report.View_read_race in
      let s_det = Sp_plus.racy_locs sp in
      let s_view = kind_subjects (Peer_set.races pe) Report.View_read_race in
      if subset o_det s_det && subset o_view s_view then Ok ()
      else
        Error
          (Printf.sprintf
             "online det=[%s] view=[%s] not confirmed by replay det=[%s] \
              view=[%s]"
             (ints o_det) (ints o_view) (ints s_det) (ints s_view))

let prop_online_subset_of_exhaustive ~racy ~count =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "online ⊆ exhaustive + serial Peer-Set (racy=%b)" racy)
    ~count ~print:G.print
    (G.gen ~with_reducers:true ~racy)
    (fun p ->
      QCheck2.assume (G.max_local_spawns p <= 4);
      let prog = G.interpret p in
      let truth =
        Coverage.exhaustive_check ~max_events:200_000 prog
      in
      let det_truth = truth.Coverage.racy_locs in
      let view_truth = serial_view_subjects prog in
      List.for_all
        (fun (seed, workers) ->
          let out =
            O.run
              (cfg ~workers ~seed ~max_events:200_000
                 ~deadline:(Unix.gettimeofday () +. 30.)
                 ())
              prog
          in
          let o_det = kind_subjects out.O.races Report.Determinacy_race in
          let o_view = kind_subjects out.O.races Report.View_read_race in
          if not (subset o_det det_truth) then
            QCheck2.Test.fail_reportf
              "seed=%d workers=%d: online determinacy [%s] ⊄ exhaustive [%s]"
              seed workers (ints o_det) (ints det_truth)
          else if not (subset o_view view_truth) then
            QCheck2.Test.fail_reportf
              "seed=%d workers=%d: online view-read [%s] ⊄ serial [%s]" seed
              workers (ints o_view) (ints view_truth)
          else if out.O.races <> [] then (
            match replay_confirms prog out with
            | Ok () -> true
            | Error msg ->
                QCheck2.Test.fail_reportf "seed=%d workers=%d: %s" seed
                  workers msg)
          else true)
        [ (1, 1); (2, 2); (3, 2) ])

(* Locations and reducers created in parallel code get serial ids, not
   worker-arrival ids: the pfor iterations below create identity-view
   cells in stolen regions on both workers. Every rerun must report the
   same subjects as the one-worker run (which executes in serial order),
   and those must be racy in the serial replay of the run's own steal
   trace. (Online skips accesses inside [Reduce] callbacks, so the
   replay may name more.) *)
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
  let serial = O.run (cfg ~workers:1 ~seed:2 ()) prog in
  for i = 1 to 10 do
    let out = O.run (cfg ~workers:2 ~seed:2 ()) prog in
    checks
      (Printf.sprintf "rerun %d: subjects = one-worker run" i)
      (O.race_summary serial.O.races) (O.race_summary out.O.races)
  done;
  match replay_confirms prog serial with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* ---------- determinism ---------- *)

let entries_string tr =
  String.concat "|"
    (List.map
       (fun e ->
         Printf.sprintf "%s:%d"
           (String.concat "." (List.map string_of_int e.Steal_trace.e_path))
           e.Steal_trace.e_ord)
       tr.Steal_trace.entries)

let value_string = function
  | Ok v -> Printf.sprintf "ok:%d" v
  | Error f -> "contained:" ^ Diag.class_name f

let test_determinism () =
  List.iter
    (fun name ->
      let prog = demo name in
      (* same seed twice at the same worker count: bit-identical *)
      let a = O.run (cfg ~workers:2 ~seed:5 ()) prog in
      let b = O.run (cfg ~workers:2 ~seed:5 ()) prog in
      checks (name ^ ": trace stable across reruns")
        (Steal_trace.to_string a.O.trace)
        (Steal_trace.to_string b.O.trace);
      checks (name ^ ": verdict stable across reruns")
        (O.race_summary a.O.races) (O.race_summary b.O.races);
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
            (O.race_summary a.O.races) (O.race_summary c.O.races);
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
          check (name ^ ": race-free online") 0 (List.length out.O.races))
        [ (1, 1); (2, 1); (2, 9); (4, 3) ])
    [ "fig1-fixed"; "wordcount"; "minimax"; "nqueens" ]

(* ---------- online finds the seeded demo races ---------- *)

let test_demo_races_found () =
  (* fib-racy: a structural determinacy race, found on every schedule *)
  let out = O.run (cfg ~workers:2 ~seed:1 ()) (demo "fib-racy") in
  checkb "fib-racy: determinacy race found online" true
    (kind_subjects out.O.races Report.Determinacy_race <> []);
  (match replay_confirms (demo "fib-racy") out with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("fib-racy replay: " ^ msg));
  (* racy-read: the view-read race Peer-Set exists to catch *)
  let out = O.run (cfg ~workers:2 ~seed:1 ()) (demo "racy-read") in
  checkb "racy-read: view-read race found online" true
    (kind_subjects out.O.races Report.View_read_race <> [])

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
    let name, prog, max_events, expect = corpus.(i mod Array.length corpus) in
    let workers = workers_of.(i mod Array.length workers_of) in
    let seed = 1000 + i in
    let out =
      O.run
        (cfg ~workers ~seed ?max_events
           ~deadline:(Unix.gettimeofday () +. 30.)
           ())
        prog
    in
    let tag = Printf.sprintf "soak %d (%s workers=%d seed=%d)" i name workers seed in
    (match out.O.value with
    | Ok _ ->
        incr n_ok;
        (match expect with
        | `Contained cls ->
            Alcotest.failf "%s: expected contained %s, got Ok" tag cls
        | _ -> ())
    | Error f -> (
        incr n_contained;
        match expect with
        | `Contained cls -> checks (tag ^ ": failure class") cls (Diag.class_name f)
        | _ -> Alcotest.failf "%s: unexpected failure %s" tag (Diag.to_string f)));
    if out.O.races <> [] then incr n_racy;
    (match expect with
    | `Races ->
        checkb (tag ^ ": races detected") true (out.O.races <> [])
    | _ -> ())
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

(* ---------- endpoint attribution ---------- *)

(* Online reports must carry the frame/strand ids of a serial replay of
   the recorded steal trace: each endpoint must name a recorded access
   (or reducer-read) of the subject at exactly those ids in the replay. *)
let test_endpoint_attribution () =
  let checked = ref 0 in
  List.iter
    (fun (name, seed) ->
      let prog = demo name in
      let out = O.run (cfg ~workers:2 ~seed ()) prog in
      let spec =
        match Steal_trace.to_spec out.O.trace prog with
        | Ok s -> s
        | Error m -> Alcotest.failf "%s: trace->spec: %s" name m
      in
      let eng = Engine.create ~spec ~record:true () in
      ignore (Engine.run_result eng (fun ctx -> ignore (prog ctx)));
      let tr = Trace.of_engine eng in
      let stats = Engine.stats eng in
      List.iter
        (fun r ->
          incr checked;
          let tag =
            Printf.sprintf "%s seed=%d subject=%d" name seed r.Report.subject
          in
          checkb (tag ^ ": endpoints attributed") true
            (r.Report.first_frame >= 0
            && r.Report.second_frame >= 0
            && r.Report.second_strand >= 0);
          match r.Report.kind with
          | Report.Determinacy_race ->
              checkb (tag ^ ": first endpoint is a recorded access") true
                (List.exists
                   (fun a ->
                     a.Trace.a_loc = r.Report.subject
                     && a.Trace.a_frame = r.Report.first_frame
                     && a.Trace.a_is_write
                        = (r.Report.first_access = Report.Write))
                   tr.Trace.accesses);
              checkb (tag ^ ": second endpoint is a recorded access") true
                (List.exists
                   (fun a ->
                     a.Trace.a_loc = r.Report.subject
                     && a.Trace.a_frame = r.Report.second_frame
                     && a.Trace.a_strand = r.Report.second_strand
                     && a.Trace.a_is_write
                        = (r.Report.second_access = Report.Write))
                   tr.Trace.accesses)
          | Report.View_read_race ->
              checkb (tag ^ ": second endpoint is a recorded reducer-read")
                true
                (List.mem
                   (r.Report.subject, r.Report.second_strand)
                   tr.Trace.reducer_reads);
              checkb (tag ^ ": first frame in replay range") true
                (r.Report.first_frame < stats.Engine.n_frames))
        out.O.races)
    [ ("fig1-buggy", 3); ("racy-read", 5); ("fib-racy", 2) ];
  checkb "some races attributed" true (!checked > 0)

(* ---------- stripes ---------- *)

(* Striping only moves mutexes around; any width must produce the same
   verdict, and non-power-of-two widths round up. *)
let test_stripes () =
  let prog = demo "racy-read" in
  let base = O.run (cfg ~workers:2 ~seed:5 ()) prog in
  List.iter
    (fun s ->
      let out = O.run (cfg ~workers:2 ~seed:5 ~stripes:s ()) prog in
      checks
        (Printf.sprintf "stripes=%d verdict" s)
        (O.race_summary base.O.races)
        (O.race_summary out.O.races))
    [ 1; 3; 256 ];
  Alcotest.check_raises "stripes < 1 rejected"
    (Invalid_argument "Online.run: stripes must be >= 1") (fun () ->
      ignore (O.run (cfg ~stripes:0 ()) prog))

let test_config_validation () =
  let prog = demo "fib-racy" in
  Alcotest.check_raises "workers < 1 rejected"
    (Invalid_argument "Online.run: workers must be >= 1") (fun () ->
      ignore (O.run (cfg ~workers:0 ()) prog))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_online_subset_of_exhaustive ~racy:true ~count:25;
      prop_online_subset_of_exhaustive ~racy:false ~count:25;
    ]

let () =
  Alcotest.run "online"
    [
      ("soundness", properties);
      ( "determinism",
        [ Alcotest.test_case "trace/verdict/value" `Quick test_determinism ] );
      ( "integrity",
        [
          Alcotest.test_case "race-free values" `Quick test_value_integrity;
          Alcotest.test_case "demo races found" `Quick test_demo_races_found;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "endpoints match serial replay" `Quick
            test_endpoint_attribution;
          Alcotest.test_case "stripes invariance" `Quick test_stripes;
          Alcotest.test_case "parallel allocations get serial ids" `Quick
            test_parallel_alloc_ids;
        ] );
      ( "soak",
        [
          Alcotest.test_case "256 randomized runs" `Slow test_soak;
          Alcotest.test_case "budgets contained" `Quick test_budget_containment;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
    ]
