(* Tests for §7 coverage: spec-family sizes, profiling, and the guarantee
   that the enumeration elicits schedule-dependent races that single runs
   miss. *)

open Rader_runtime
open Rader_core
module G = Rader_testkit.Gen_program

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_profile () =
  let program ctx =
    (* root sync block: 3 spawns; child blocks smaller; depth 2 *)
    ignore (Cilk.spawn ctx (fun ctx -> ignore (Cilk.spawn ctx (fun _ -> ()))));
    ignore (Cilk.spawn ctx (fun _ -> ()));
    ignore (Cilk.spawn ctx (fun _ -> ()));
    Cilk.sync ctx;
    ignore (Cilk.spawn ctx (fun _ -> ()));
    Cilk.sync ctx
  in
  let p = Coverage.profile program in
  check "k = max continuations per block" 3 p.Coverage.k;
  check "d = max spawn depth" 2 p.Coverage.d;
  check "total spawns" 5 p.Coverage.n_spawns

let test_profile_parallel_for () =
  let p = Coverage.profile (fun ctx -> Cilk.parallel_for ctx ~lo:0 ~hi:64 (fun _ _ -> ())) in
  checkb "k small (spawn chain per block)" true (p.Coverage.k >= 1);
  check "spawns = segments - 1" 63 p.Coverage.n_spawns

(* The profile as it was computed before it became a fold over the tape:
   a tool of its own on an unrecorded run, marking the whole frame stack on
   every event. Kept as the fold's oracle. *)
let reference_profile ?max_events program =
  let max_k = ref 0 and max_d = ref 0 and max_k_rel = ref 0 in
  let conts = Hashtbl.create 64 and depth = Hashtbl.create 64 in
  let rel = Hashtbl.create 64 and rel_depths = Hashtbl.create 8 in
  let stack = ref [] and saw_reducer = ref false in
  let mark () =
    List.iter
      (fun f ->
        let c = Hashtbl.find conts f in
        if c >= 1 && c > Option.value ~default:0 (Hashtbl.find_opt rel f) then
          Hashtbl.replace rel f c)
      !stack
  in
  let fold_block f =
    (match Hashtbl.find_opt rel f with
    | Some r when r >= 1 ->
        max_k_rel := max !max_k_rel r;
        Hashtbl.replace rel_depths (Hashtbl.find depth f) ()
    | _ -> ());
    Hashtbl.remove rel f
  in
  let tool =
    {
      Tool.null with
      on_frame_enter =
        (fun ~frame ~parent ~spawned:_ ~kind ->
          if kind <> Tool.User_fn then begin
            saw_reducer := true;
            mark ()
          end;
          let d = if parent < 0 then 0 else Hashtbl.find depth parent + 1 in
          Hashtbl.replace depth frame d;
          max_d := max !max_d d;
          Hashtbl.replace conts frame 0;
          stack := frame :: !stack);
      on_frame_return =
        (fun ~frame ~parent ~spawned ~kind:_ ->
          fold_block frame;
          stack := List.tl !stack;
          if spawned then begin
            let c = Hashtbl.find conts parent + 1 in
            Hashtbl.replace conts parent c;
            max_k := max !max_k c
          end);
      on_sync =
        (fun ~frame ->
          fold_block frame;
          Hashtbl.replace conts frame 0);
      on_read = (fun ~frame:_ ~loc:_ ~view_aware:_ -> mark ());
      on_write = (fun ~frame:_ ~loc:_ ~view_aware:_ -> mark ());
      on_reducer_read =
        (fun ~frame:_ ~reducer:_ ->
          saw_reducer := true;
          mark ());
    }
  in
  let eng = Engine.create ~tool ?max_events () in
  ignore (Engine.run_result eng program);
  let k_rel, rel_depths =
    if not !saw_reducer then (0, [])
    else
      ( !max_k_rel,
        List.sort compare (Hashtbl.fold (fun d () acc -> d :: acc) rel_depths []) )
  in
  {
    Coverage.k = !max_k;
    d = !max_d;
    n_spawns = (Engine.stats eng).Engine.n_spawns;
    k_rel;
    rel_depths;
  }

let show_profile (p : Coverage.profile) =
  Printf.sprintf "k=%d d=%d spawns=%d k_rel=%d depths=[%s]" p.Coverage.k
    p.Coverage.d p.Coverage.n_spawns p.Coverage.k_rel
    (String.concat ";" (List.map string_of_int p.Coverage.rel_depths))

(* The fold equals the stack-walking tool on whole runs and, under an
   event budget, on the prefix the budget leaves. *)
let prop_profile_fold =
  QCheck2.Test.make ~name:"profile fold = stack-walking profile" ~count:300
    ~print:G.print
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      let program = G.interpret p in
      let same what got want =
        got = want
        || QCheck2.Test.fail_reportf "%s: fold %s, reference %s" what
             (show_profile got) (show_profile want)
      in
      same "whole run" (Coverage.profile program) (reference_profile program)
      && List.for_all
           (fun m ->
             same
               (Printf.sprintf "max_events %d" m)
               (Coverage.exhaustive_check ~max_events:m ~max_specs:0 program).Coverage.prof
               (reference_profile ~max_events:m program))
           [ 5; 20; 60 ])

(* The sweep's profiling run honours the event budget: a program counting
   its own leaves stops far short of a full run, and the blown budget is
   charged to the profile. *)
let test_profile_honours_budget () =
  let runs = ref 0 and first_run_leaves = ref 0 in
  let rec tree ctx n =
    if n < 2 then (if !runs = 1 then incr first_run_leaves)
    else begin
      ignore (Cilk.spawn ctx (fun ctx -> tree ctx (n - 1)));
      Cilk.call ctx (fun ctx -> tree ctx (n - 2));
      Cilk.sync ctx
    end
  in
  let program ctx =
    incr runs;
    tree ctx 20
  in
  ignore (Engine.run (Engine.create ()) program);
  let full = !first_run_leaves in
  runs := 0;
  first_run_leaves := 0;
  let res = Coverage.exhaustive_check ~max_events:200 program in
  checkb
    (Printf.sprintf "profile ran %d of %d leaves" !first_run_leaves full)
    true
    (!first_run_leaves * 10 < full);
  checkb "the profile is charged first" true
    (match res.Coverage.incomplete with
    | ("profile", Diag.Budget_exceeded (Diag.Max_events 200)) :: _ -> true
    | _ -> false)

let count_triples k = k * (k - 1) * (k - 2) / 6

let test_spec_family_sizes () =
  List.iter
    (fun k ->
      let n = List.length (Coverage.specs_for_reductions ~k) in
      (* singles + 2·pairs + triples *)
      let expected = k + (k * (k - 1)) + count_triples k in
      check (Printf.sprintf "reduction specs for k=%d" k) expected n)
    [ 1; 2; 3; 5; 8; 16 ];
  List.iter
    (fun (k, d) ->
      check
        (Printf.sprintf "update specs k=%d d=%d" k d)
        (k + d + 1)
        (List.length (Coverage.specs_for_updates ~k ~d)))
    [ (1, 0); (3, 2); (8, 4) ]

(* The family sizes of EXPERIMENTS.md's S1 table: (K, update specs at
   D = 4, reduction specs). On a mismatch the measured rows are printed
   in the table's syntax. *)
let family_table =
  [
    (2, 7, 4);
    (4, 9, 20);
    (8, 13, 120);
    (12, 17, 364);
    (16, 21, 816);
    (24, 29, 2600);
    (32, 37, 5984);
  ]

let test_spec_family_table () =
  let measured =
    List.map
      (fun (k, _, _) ->
        ( k,
          List.length (Coverage.specs_for_updates ~k ~d:4),
          List.length (Coverage.specs_for_reductions ~k) ))
      family_table
  in
  if measured <> family_table then begin
    List.iter (fun (k, u, r) -> Printf.printf "    (%d, %d, %d);\n" k u r) measured;
    Alcotest.fail "§7 family sizes differ from the committed table"
  end

let test_spec_family_cubic_growth () =
  (* Theorem 7: the reduce-eliciting family grows as Θ(k³). *)
  let n k = List.length (Coverage.specs_for_reductions ~k) in
  let n8 = n 8 and n16 = n 16 in
  let ratio = float_of_int n16 /. float_of_int n8 in
  checkb "≈8x from k=8 to k=16" true (ratio > 5.0 && ratio < 9.0)

(* A program with a race that only a specific reduce elicits: the reducer's
   Reduce writes a shared cell read in parallel; with no steals there is no
   reduce at all. *)
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

let test_no_steal_run_misses_planted_race () =
  let eng = Engine.create () in
  let d = Sp_plus.attach eng in
  ignore (Engine.run eng planted_reduce_race);
  checkb "single serial run misses it" false (Sp_plus.found d)

let test_exhaustive_check_finds_planted_race () =
  let res = Coverage.exhaustive_check planted_reduce_race in
  checkb "coverage finds it" true (List.length res.Coverage.racy_locs > 0);
  checkb "spec family nonempty" true (res.Coverage.n_specs > 1);
  (* some specs found it, the no-steal spec did not *)
  let none_found =
    List.find_map
      (fun ((spec : Steal_spec.t), locs) ->
        if spec.Steal_spec.name = "none" then Some locs else None)
      res.Coverage.per_spec
    |> Option.value ~default:[]
  in
  check "no-steal spec finds nothing" 0 (List.length none_found);
  checkb "some spec finds it" true
    (List.exists (fun (_, locs) -> locs <> []) res.Coverage.per_spec);
  (* the witness spec reproduces the race in a single targeted run *)
  match res.Coverage.racy_locs with
  | loc :: _ -> (
      match Coverage.witness_spec res loc with
      | None -> Alcotest.fail "no witness spec"
      | Some spec ->
          let eng = Engine.create ~spec () in
          let d = Sp_plus.attach eng in
          ignore (Engine.run eng planted_reduce_race);
          checkb "witness reproduces" true (List.mem loc (Sp_plus.racy_locs d)))
  | [] -> Alcotest.fail "expected a racy loc"

let test_exhaustive_check_clean_program () =
  let clean ctx =
    let r = Rmonoid.new_int_add ctx ~init:0 in
    Cilk.parallel_for ctx ~lo:0 ~hi:8 (fun ctx i -> Rmonoid.add ctx r i);
    Cilk.sync ctx;
    ignore (Rmonoid.int_cell_value ctx r)
  in
  let res = Coverage.exhaustive_check clean in
  check "no races anywhere" 0 (List.length res.Coverage.racy_locs)

let test_update_depth_specs_elicit_identities () =
  (* stealing at each continuation position makes updates run on fresh
     views at each position at least once *)
  let program ctx =
    let r = Rmonoid.new_int_add ctx ~init:0 in
    Cilk.parallel_for ctx ~lo:0 ~hi:8 (fun ctx _ -> Rmonoid.add ctx r 1);
    Cilk.sync ctx;
    ignore (Rmonoid.int_cell_value ctx r)
  in
  let prof = Coverage.profile program in
  let specs = Coverage.specs_for_updates ~k:prof.Coverage.k ~d:prof.Coverage.d in
  let identity_seen = ref false in
  List.iter
    (fun spec ->
      let eng = Engine.create ~spec ~record:true () in
      ignore (Engine.run eng program);
      let dag = Trace.dag (Trace.of_engine eng) in
      for i = 0 to Rader_dag.Dag.n_strands dag - 1 do
        if (Rader_dag.Dag.strand dag i).Rader_dag.Dag.kind = Rader_dag.Dag.Identity then
          identity_seen := true
      done)
    specs;
  checkb "identity strands elicited" true !identity_seen

(* Regression: deadline consistency (serve daemon prerequisite).

   An expired deadline must cancel an engine run at its very first event —
   not after the first 256-event poll window — so a spec dispatched after
   the sweep deadline passed cannot quietly run to completion and inflate
   the obs summary relative to the serial sweep. *)
let busy_program ctx =
  let r = Rmonoid.new_int_add ctx ~init:0 in
  Cilk.parallel_for ctx ~lo:0 ~hi:64 (fun ctx i -> Rmonoid.add ctx r i);
  Cilk.sync ctx;
  ignore (Rmonoid.int_cell_value ctx r)

let test_expired_deadline_stops_at_first_event () =
  (* virtual clock pinned past the deadline: no wall-clock coupling *)
  let eng = Engine.create ~deadline:1.0 ~clock:(fun () -> 2.0) () in
  (match Engine.run_result eng busy_program with
  | Error (Diag.Budget_exceeded (Diag.Deadline _)) -> ()
  | Ok _ -> Alcotest.fail "expired deadline did not cancel the run"
  | Error f -> Alcotest.failf "wrong diagnostic: %s" (Diag.to_string f));
  let s = Engine.stats eng in
  check "no instrumented accesses ran" 0 (s.Engine.n_reads + s.Engine.n_writes);
  checkb "at most the root frame entered" true (s.Engine.n_frames <= 1)

let test_expired_sweep_deadline_consistent_across_jobs () =
  let run jobs =
    Coverage.exhaustive_check ~deadline:(-1.0) ~jobs ~with_obs:true
      busy_program
  in
  let check_one jobs (res : Coverage.result) =
    let tag = Printf.sprintf "jobs=%d: " jobs in
    check (tag ^ "no spec ran") 0 res.Coverage.n_run;
    (* the profiling run runs under the sweep deadline too *)
    checkb (tag ^ "the profile is charged first") true
      (match res.Coverage.incomplete with ("profile", _) :: _ -> true | _ -> false);
    check
      (tag ^ "the profile and every spec charged to the deadline")
      (res.Coverage.n_specs + 1)
      (List.length res.Coverage.incomplete);
    checkb (tag ^ "all incomplete entries are Deadline") true
      (List.for_all
         (fun (_, f) ->
           match f with
           | Diag.Budget_exceeded (Diag.Deadline _) -> true
           | _ -> false)
         res.Coverage.incomplete);
    let o = Option.get res.Coverage.obs in
    (* conservation: merged engine_runs = replays + the profiling run *)
    check
      (tag ^ "obs engine_runs = n_run + 1")
      (res.Coverage.n_run + 1)
      o.Coverage.obs_counters.Rader_obs.Obs.engine_runs
  in
  let r1 = run 1 and r2 = run 2 in
  check_one 1 r1;
  check_one 2 r2;
  (* nothing ran in either sweep, so the merged counters are identical *)
  let o1 = Option.get r1.Coverage.obs and o2 = Option.get r2.Coverage.obs in
  checkb "merged counters byte-identical across job counts" true
    (Rader_obs.Obs.equal o1.Coverage.obs_counters o2.Coverage.obs_counters)

(* Mid-sweep deadline expiry at jobs >= 2: whichever specs end up charged
   to the deadline, the conservation invariant engine_runs = n_run + 1 and
   the n_run + |incomplete| = n_specs partition must hold — the dispatch
   re-check keeps a post-expiry spec from running outside the books. *)
let test_midsweep_deadline_conserves_obs () =
  for trial = 0 to 9 do
    let deadline = 0.0005 *. float_of_int (trial + 1) in
    let res =
      Coverage.exhaustive_check ~deadline ~jobs:2 ~with_obs:true busy_program
    in
    let tag = Printf.sprintf "trial %d: " trial in
    (* every spec is accounted for: attempted (n_run, one per_spec entry
       each) or recorded in incomplete — an attempted spec that blew its
       own engine deadline appears in both, so this is a covering, not a
       partition *)
    check (tag ^ "per_spec matches n_run") res.Coverage.n_run
      (List.length res.Coverage.per_spec);
    checkb (tag ^ "attempted + incomplete covers the family") true
      (res.Coverage.n_run + List.length res.Coverage.incomplete
      >= res.Coverage.n_specs);
    let o = Option.get res.Coverage.obs in
    check
      (tag ^ "obs engine_runs = n_run + 1")
      (res.Coverage.n_run + 1)
      o.Coverage.obs_counters.Rader_obs.Obs.engine_runs
  done

let () =
  Alcotest.run "coverage"
    [
      ( "profile",
        [
          Alcotest.test_case "counts" `Quick test_profile;
          Alcotest.test_case "parallel_for" `Quick test_profile_parallel_for;
          Alcotest.test_case "honours the event budget" `Quick
            test_profile_honours_budget;
          QCheck_alcotest.to_alcotest prop_profile_fold;
        ] );
      ( "spec families",
        [
          Alcotest.test_case "sizes" `Quick test_spec_family_sizes;
          Alcotest.test_case "EXPERIMENTS table" `Quick test_spec_family_table;
          Alcotest.test_case "cubic growth" `Quick test_spec_family_cubic_growth;
        ] );
      ( "exhaustive check",
        [
          Alcotest.test_case "serial run misses" `Quick test_no_steal_run_misses_planted_race;
          Alcotest.test_case "coverage finds planted race" `Quick
            test_exhaustive_check_finds_planted_race;
          Alcotest.test_case "clean program" `Quick test_exhaustive_check_clean_program;
          Alcotest.test_case "update specs elicit identities" `Quick
            test_update_depth_specs_elicit_identities;
        ] );
      ( "deadline consistency",
        [
          Alcotest.test_case "expired deadline stops at first event" `Quick
            test_expired_deadline_stops_at_first_event;
          Alcotest.test_case "expired sweep deadline consistent across jobs"
            `Quick test_expired_sweep_deadline_consistent_across_jobs;
          Alcotest.test_case "mid-sweep deadline conserves obs" `Quick
            test_midsweep_deadline_conserves_obs;
        ] );
    ]
