(* Tests for Rader_analysis — the zero-replay static analyzer.

   - the static view-read verdict must agree with the dynamic Peer-Set
     detector on every generated program (Lemma 2 made executable, checked
     by Verdict.cross_check on 240 programs);
   - Coverage.exhaustive_check ~prune must return byte-identical verdicts
     (racy_locs and reports) to the unpruned sweep on racy and clean
     generated programs (the DESIGN.md §10 soundness claim);
   - each lint rule R001-R005 must fire on a program built to violate it
     and stay silent on a clean one;
   - lint table/JSON reports for one clean and one racy program are pinned
     as golden fixtures (regen: RADER_GOLDEN_REGEN=$PWD/test/golden dune
     runtest). *)

open Rader_runtime
open Rader_core
open Rader_analysis
module G = Rader_testkit.Gen_program

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let ir_of program =
  match Ir.of_program program with
  | Ok ir -> ir
  | Error f -> Alcotest.fail ("IR build failed: " ^ Diag.to_string f)

(* ---------- corpus programs ---------- *)

let rec fib ctx n =
  if n < 2 then n
  else begin
    let a = Cilk.spawn ctx (fun ctx -> fib ctx (n - 1)) in
    let b = Cilk.call ctx (fun ctx -> fib ctx (n - 2)) in
    Cilk.sync ctx;
    Cilk.get ctx a + b
  end

let reducer_free ctx = fib ctx 8

(* clean reducer sum: all reads at one peer set *)
let clean_sum ctx =
  let r = Rmonoid.new_int_add ctx ~init:0 in
  Cilk.parallel_for ctx ~lo:0 ~hi:8 (fun ctx i -> Rmonoid.add ctx r i);
  Cilk.sync ctx;
  Rmonoid.int_cell_value ctx r

(* view-read race: the get-value races with the spawned updates *)
let racy_get ctx =
  let r = Rmonoid.new_int_add ctx ~init:0 in
  ignore
    (Cilk.spawn ctx (fun ctx ->
         Cilk.parallel_for ctx ~lo:1 ~hi:9 (fun ctx i -> Rmonoid.add ctx r i)));
  let v = Rmonoid.int_cell_value ctx r in
  Cilk.sync ctx;
  v

(* raw determinacy race: two parallel writes, no reducer involved *)
let raw_race ctx =
  let c = Cell.make_in ctx ~label:"shared" 0 in
  ignore (Cilk.spawn ctx (fun ctx -> Cell.write ctx c 1));
  ignore (Cilk.spawn ctx (fun ctx -> Cell.write ctx c 2));
  Cilk.sync ctx;
  Cell.read ctx c

(* dead reducer: created, then never read or updated again *)
let dead_reducer ctx =
  let _r = Rmonoid.new_int_add ctx ~init:0 in
  let a = Cilk.spawn ctx (fun _ -> 3) in
  Cilk.sync ctx;
  Cilk.get ctx a

(* non-associative monoid: the reduction tree's shape is observable *)
let schedule_sensitive ctx =
  let monoid =
    { Reducer.name = "sub"; identity = (fun _ -> 0); reduce = (fun _ a b -> a - b) }
  in
  let r = Reducer.create ctx monoid ~init:100 in
  Cilk.parallel_for ctx ~lo:1 ~hi:6 (fun ctx i ->
      Reducer.update ctx r (fun _ v -> v + i));
  Cilk.sync ctx;
  Reducer.get_value ctx r

(* view escape: the update body writes a cell that raw parallel code
   reads (the Fig.-1 shallow-copy shape, distilled) *)
let view_escape ctx =
  let shared = Cell.make_in ctx ~label:"leaked" 0 in
  let r =
    Reducer.create ctx
      {
        Reducer.name = "leaky";
        identity = (fun _ -> 0);
        reduce = (fun _ a b -> a + b);
      }
      ~init:0
  in
  let reader = Cilk.spawn ctx (fun ctx -> Cell.read ctx shared) in
  Cilk.call ctx (fun ctx ->
      Cilk.parallel_for ctx ~lo:0 ~hi:4 (fun ctx i ->
          Reducer.update ctx r (fun c v ->
              Cell.write c shared i;
              v + i)));
  Cilk.sync ctx;
  Cilk.get ctx reader

(* ---------- IR ---------- *)

let test_ir_reducer_free () =
  let ir = ir_of reducer_free in
  check "no reducers" 0 ir.Ir.n_reducers;
  checkb "no reducer ids" true (Ir.reducer_ids ir = []);
  check "result" 21 ir.Ir.result;
  (* every access strand is a leaf of the indexed tree *)
  List.iter
    (fun (a : Trace.access) ->
      checkb "access strand is a leaf" true
        (Rader_dag.Sp_tree.all_s_path ir.Ir.ix a.Trace.a_strand
           a.Trace.a_strand))
    (Ir.accesses ir)

let test_ir_provenance () =
  let ir = ir_of clean_sum in
  checkb "one reducer" true (Ir.reducer_ids ir = [ 0 ]);
  checkb "creation read recorded" true (List.length (Ir.reads ir 0) >= 2);
  check "eight updates" 8 (List.length (Ir.updates ir 0));
  (* update frames appear in the aux log as Update_fn *)
  checkb "aux kinds are updates" true
    (List.for_all (fun (k, _, _) -> k = Tool.Update_fn) ir.Ir.trace.Trace.aux_frames)

let test_ir_contains_failure () =
  match Ir.of_program (fun _ -> failwith "boom") with
  | Ok _ -> Alcotest.fail "expected a contained failure"
  | Error f -> checkb "diagnostic" true (Diag.to_string f <> "")

(* ---------- static verdict ---------- *)

let test_verdict_clean () =
  checkb "clean sum" true (Verdict.view_read (ir_of clean_sum) = []);
  checkb "reducer-free" true (Verdict.view_read (ir_of reducer_free) = [])

let test_verdict_racy () =
  match Verdict.view_read (ir_of racy_get) with
  | [ w ] ->
      check "reducer 0" 0 w.Verdict.w_reducer;
      checkb "witness strands differ" true (w.Verdict.w_first <> w.Verdict.w_second)
  | ws -> Alcotest.fail (Printf.sprintf "expected 1 witness, got %d" (List.length ws))

let test_cross_check_agrees () =
  List.iter
    (fun (name, p) ->
      match Verdict.cross_check p (ir_of p) with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg))
    [
      ("clean_sum", clean_sum);
      ("racy_get", racy_get);
      ("reducer_free", reducer_free);
      ("view_escape", view_escape);
    ]

(* ---------- lint rules ---------- *)

let rules_of findings = List.sort_uniq compare (List.map (fun f -> f.Lint.rule) findings)
let has rule findings = List.mem rule (rules_of findings)

let test_lint_clean () =
  checkb "clean sum lints clean" true (Lint.run ~program:clean_sum (ir_of clean_sum) = []);
  checkb "fib lints clean" true (Lint.run ~program:reducer_free (ir_of reducer_free) = [])

let test_lint_r001 () =
  let fs = Lint.run (ir_of racy_get) in
  checkb "R001 fires" true (has "R001" fs);
  List.iter
    (fun f -> if f.Lint.rule = "R001" then checkb "severity" true (f.Lint.severity = Lint.Error))
    fs

let test_lint_r002 () =
  let fs = Lint.run (ir_of raw_race) in
  checkb "R002 fires" true (has "R002" fs);
  checkb "R001 silent (no reducer misuse)" true (not (has "R001" fs))

let test_lint_r003 () =
  let fs = Lint.run (ir_of dead_reducer) in
  checkb "R003 fires" true (has "R003" fs);
  checkb "R003 silent when used" true
    (not (has "R003" (Lint.run (ir_of clean_sum))))

let test_lint_r004 () =
  let fs = Lint.run ~program:schedule_sensitive (ir_of schedule_sensitive) in
  checkb "R004 fires on non-associative monoid" true (has "R004" fs);
  (* without the program the differential rule is skipped *)
  checkb "R004 needs the program" true
    (not (has "R004" (Lint.run (ir_of schedule_sensitive))));
  checkb "R004 silent on associative sum" true
    (not (has "R004" (Lint.run ~program:clean_sum (ir_of clean_sum))))

let test_lint_r005 () =
  let fs = Lint.run (ir_of view_escape) in
  checkb "R005 fires" true (has "R005" fs);
  (match List.find_opt (fun f -> f.Lint.rule = "R005") fs with
  | Some f -> checkb "subject names the leaked loc" true
      (String.length f.Lint.subject > 0
      && String.sub f.Lint.subject 0 4 = "loc:")
  | None -> Alcotest.fail "missing R005 finding")

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_lint_renderers () =
  let ir = ir_of view_escape in
  let fs = Lint.run ir in
  let table = Lint.to_table fs in
  checkb "table mentions rule" true
    (String.length table > 0 && has "R005" fs && contains_sub table "R005");
  let json = Lint.to_json ~program:"view_escape" fs in
  checkb "json has program key" true (contains_sub json "\"program\":\"view_escape\"");
  let dot = Lint.to_dot ir fs in
  checkb "dot colors a leaf" true (contains_sub dot "fillcolor");
  checkb "baseline lines sorted" true
    (let ls = Lint.baseline_lines ~program:"p" fs in
     ls = List.sort compare ls)

(* ---------- prune decisions ---------- *)

let test_profile_relevance () =
  let prof = Coverage.profile reducer_free in
  check "reducer-free k_rel" 0 prof.Coverage.k_rel;
  checkb "reducer-free rel_depths" true (prof.Coverage.rel_depths = []);
  let prof2 = Coverage.profile clean_sum in
  checkb "reducer program has relevant positions" true (prof2.Coverage.k_rel >= 1)

let test_prune_family_reducer_free () =
  let prof = Coverage.profile reducer_free in
  let total, kept = Prune.summary (Prune.family prof) in
  checkb "family bigger than baseline" true (total > 1);
  check "only the no-steal spec kept" 1 kept

let test_spec_relevant () =
  let prof = Coverage.profile clean_sum in
  let k_rel = prof.Coverage.k_rel in
  checkb "index beyond k_rel pruned" false
    (Coverage.spec_relevant prof (Steal_spec.at_local_indices [ k_rel + 1 ]));
  checkb "index at k_rel kept" true
    (Coverage.spec_relevant prof (Steal_spec.at_local_indices [ k_rel ]));
  checkb "mixed indices kept" true
    (Coverage.spec_relevant prof (Steal_spec.at_local_indices [ k_rel; k_rel + 5 ]));
  checkb "unlocalizable shapes kept" true
    (Coverage.spec_relevant prof (Steal_spec.all ())
    && Coverage.spec_relevant prof (Steal_spec.random ~seed:1 ~density:0.5 ())
    && Coverage.spec_relevant prof Steal_spec.none)

let test_pruned_sweep_identical_on_corpus () =
  List.iter
    (fun (name, p) ->
      let a = Coverage.exhaustive_check p in
      let b = Coverage.exhaustive_check ~prune:true p in
      checkb (name ^ ": racy_locs identical") true
        (a.Coverage.racy_locs = b.Coverage.racy_locs);
      checkb (name ^ ": reports identical") true
        (a.Coverage.reports = b.Coverage.reports);
      checkb (name ^ ": pruning accounted") true
        (b.Coverage.n_run = b.Coverage.n_specs - b.Coverage.n_pruned))
    [
      ("clean_sum", clean_sum);
      ("racy_get", racy_get);
      ("raw_race", raw_race);
      ("view_escape", view_escape);
      ("reducer_free", reducer_free);
    ]

(* ---------- properties ---------- *)

let qtest ?(count = 150) name gen prop =
  QCheck2.Test.make ~name ~count ~print:G.print gen prop

(* 240 generated programs: the static verdict equals Peer-Set's. *)
let prop_static_matches_dynamic ~racy ~count =
  qtest ~count
    (Printf.sprintf "static view-read verdict = Peer-Set (racy=%b)" racy)
    (G.gen ~with_reducers:true ~racy)
    (fun p ->
      match Ir.of_program (G.interpret p) with
      | Error f ->
          QCheck2.Test.fail_reportf "profiling run crashed: %s" (Diag.to_string f)
      | Ok ir -> (
          match Verdict.cross_check (G.interpret p) ir with
          | Ok () -> true
          | Error msg -> QCheck2.Test.fail_reportf "%s" msg))

(* Pruned coverage sweeps return byte-identical verdicts. K is bounded to
   keep the Θ(K³) family small enough for an exhaustive sweep per case. *)
let prop_prune_equivalent ~racy ~count =
  qtest ~count
    (Printf.sprintf "exhaustive_check ~prune verdict-identical (racy=%b)" racy)
    (G.gen ~with_reducers:true ~racy)
    (fun p ->
      QCheck2.assume (G.max_local_spawns p <= 4);
      let a = Coverage.exhaustive_check ~max_events:200_000 (G.interpret p) in
      let b =
        Coverage.exhaustive_check ~max_events:200_000 ~prune:true (G.interpret p)
      in
      if a.Coverage.racy_locs <> b.Coverage.racy_locs then
        QCheck2.Test.fail_reportf "racy_locs differ: [%s] vs pruned [%s]"
          (String.concat "," (List.map string_of_int a.Coverage.racy_locs))
          (String.concat "," (List.map string_of_int b.Coverage.racy_locs))
      else if a.Coverage.reports <> b.Coverage.reports then
        QCheck2.Test.fail_reportf "reports differ (%d vs %d)"
          (List.length a.Coverage.reports)
          (List.length b.Coverage.reports)
      else true)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_static_matches_dynamic ~racy:true ~count:120;
      prop_static_matches_dynamic ~racy:false ~count:120;
      prop_prune_equivalent ~racy:true ~count:80;
      prop_prune_equivalent ~racy:false ~count:80;
    ]

(* ---------- golden lint reports ---------- *)

let golden_cases =
  [
    ("lint_clean", clean_sum);
    ("lint_racy", racy_get);
  ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  body

let golden_lint_case (name, program) fmt () =
  let ir = ir_of program in
  let findings = Lint.run ~program ir in
  let rendered =
    match fmt with
    | `Table -> Lint.to_table findings
    | `Json -> Lint.to_json ~program:name findings ^ "\n"
  in
  let file =
    Printf.sprintf "%s__%s.golden" name
      (match fmt with `Table -> "table" | `Json -> "json")
  in
  match Sys.getenv_opt "RADER_GOLDEN_REGEN" with
  | Some dir ->
      let oc = open_out_bin (Filename.concat dir file) in
      output_string oc rendered;
      close_out oc
  | None ->
      let path = Filename.concat "golden" file in
      if not (Sys.file_exists path) then
        Alcotest.fail
          (Printf.sprintf
             "missing golden file %s — generate with \
              RADER_GOLDEN_REGEN=$PWD/test/golden dune runtest"
             file);
      let expected = read_file path in
      if expected <> rendered then begin
        Printf.printf "--- expected (%s)\n%s--- got\n%s" file expected rendered;
        checkb
          (Printf.sprintf
             "%s: lint report drifted — if intentional, re-baseline with \
              RADER_GOLDEN_REGEN"
             file)
          true false
      end

let golden_tests =
  List.concat_map
    (fun case ->
      List.map
        (fun fmt ->
          Alcotest.test_case
            (Printf.sprintf "%s (%s)" (fst case)
               (match fmt with `Table -> "table" | `Json -> "json"))
            `Quick
            (golden_lint_case case fmt))
        [ `Table; `Json ])
    golden_cases

let () =
  Alcotest.run "analysis"
    [
      ( "ir",
        [
          Alcotest.test_case "reducer-free" `Quick test_ir_reducer_free;
          Alcotest.test_case "provenance" `Quick test_ir_provenance;
          Alcotest.test_case "contained failure" `Quick test_ir_contains_failure;
        ] );
      ( "verdict",
        [
          Alcotest.test_case "clean" `Quick test_verdict_clean;
          Alcotest.test_case "racy" `Quick test_verdict_racy;
          Alcotest.test_case "cross-check" `Quick test_cross_check_agrees;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean programs" `Quick test_lint_clean;
          Alcotest.test_case "R001 view-read race" `Quick test_lint_r001;
          Alcotest.test_case "R002 raw race" `Quick test_lint_r002;
          Alcotest.test_case "R003 dead reducer" `Quick test_lint_r003;
          Alcotest.test_case "R004 schedule-sensitive" `Quick test_lint_r004;
          Alcotest.test_case "R005 view escape" `Quick test_lint_r005;
          Alcotest.test_case "renderers" `Quick test_lint_renderers;
        ] );
      ( "prune",
        [
          Alcotest.test_case "relevance profile" `Quick test_profile_relevance;
          Alcotest.test_case "reducer-free family" `Quick test_prune_family_reducer_free;
          Alcotest.test_case "spec_relevant" `Quick test_spec_relevant;
          Alcotest.test_case "pruned sweep identical" `Quick
            test_pruned_sweep_identical_on_corpus;
        ] );
      ("properties", properties);
      ("golden lint reports", golden_tests);
    ]
