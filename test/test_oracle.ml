(* Precise tests of the brute-force oracles' semantics — in particular
   the same-view serialization rule of §5: a view-aware access races with
   a parallel access only when their (canonicalized) views differ. These
   scenarios encode the reasoning behind the SP+ view-ID checks as
   regression tests on the oracle itself, independent of the detectors. *)

open Rader_runtime
open Rader_core

let check = Alcotest.(check (list int))
let checkb = Alcotest.(check bool)

(* A reducer whose Reduce writes a shared witness cell. *)
let touchy_monoid witness =
  {
    Reducer.name = "touchy";
    identity = (fun c -> Cell.make_in c 0);
    reduce =
      (fun c l r ->
        Cell.write c witness 1;
        Cell.write c l (Cell.read c l + Cell.read c r);
        l);
  }

(* reader spawned by root; updates inside a called helper whose internal
   continuation is stolen. Whether the reduce's write races with the
   reader depends on whether the ROOT's continuation was also stolen:
   if not, the reduce merges into the reader's own region (same view ->
   serialized); if yes, the views are parallel. *)
let scenario ~steal_root ctx =
  let witness = Cell.make_in ctx ~label:"witness" 0 in
  let red = Reducer.create ctx (touchy_monoid witness) ~init:(Cell.make_in ctx 0) in
  let probe = Cilk.spawn ctx (fun ctx -> Cell.read ctx witness) in
  Cilk.call ctx (fun ctx ->
      ignore
        (Cilk.spawn ctx (fun ctx ->
             Reducer.update ctx red (fun c v ->
                 Cell.write c v (Cell.read c v + 1);
                 v)));
      (* helper's continuation: stolen in both scenarios *)
      Reducer.update ctx red (fun c v ->
          Cell.write c v (Cell.read c v + 1);
          v);
      Cilk.sync ctx);
  Cilk.sync ctx;
  ignore (Cilk.get ctx probe);
  ignore steal_root

let run_oracle ~spec program =
  let eng = Engine.create ~spec ~record:true () in
  ignore (Engine.run eng program);
  (eng, Oracle.determinacy_races eng)

(* spawn indices: 0 = probe spawn (root), 1 = update spawn (helper) *)
let spec_helper_only =
  Steal_spec.by_spawn_index ~name:"helper-only"
    ~policy:Steal_spec.Reduce_eagerly [ 1 ]

let spec_root_and_helper =
  Steal_spec.by_spawn_index ~name:"root+helper"
    ~policy:Steal_spec.Reduce_eagerly [ 0; 1 ]

let witness_loc eng =
  (* the witness cell is the first allocated location with that label *)
  let rec go i = if Engine.loc_label eng i = "witness" then i else go (i + 1) in
  go 0

let test_same_view_reduce_is_serialized () =
  (* Only the helper's continuation is stolen: the reduce merges back into
     region 0, which is also the probe's region. In the execution this
     schedule names, the probe finished before the worker reached the
     helper — no race. *)
  let eng, races = run_oracle ~spec:spec_helper_only (scenario ~steal_root:false) in
  checkb "reduce ran" true ((Engine.stats eng).Engine.n_reduce_calls >= 1);
  check "no race under helper-only steals" [] races

let test_parallel_view_reduce_races () =
  (* Additionally stealing the root's continuation puts the helper (and
     its reduce) on a fresh view region, truly concurrent with the probe:
     the reduce's witness write races with the probe's read. *)
  let eng, races = run_oracle ~spec:spec_root_and_helper (scenario ~steal_root:true) in
  check "race under root+helper steals" [ witness_loc eng ] races;
  (* and SP+ agrees on both scenarios *)
  List.iter
    (fun (spec, expect_race) ->
      let eng = Engine.create ~spec () in
      let d = Sp_plus.attach eng in
      ignore (Engine.run eng (scenario ~steal_root:expect_race));
      Alcotest.(check bool)
        ("SP+ " ^ spec.Steal_spec.name)
        expect_race (Sp_plus.found d))
    [ (spec_helper_only, false); (spec_root_and_helper, true) ]

let test_view_oblivious_pair_ignores_views () =
  (* When the LATER access is view-oblivious, logical parallelism alone
     decides (§5), even though the earlier access is view-aware. *)
  let program ctx =
    let shared = Cell.make_in ctx ~label:"s" 0 in
    let red = Reducer.create ctx (touchy_monoid shared) ~init:(Cell.make_in ctx 0) in
    ignore
      (Cilk.spawn ctx (fun ctx ->
           Reducer.update ctx red (fun c v ->
               Cell.write c shared 7;
               v)));
    ignore (Cell.read ctx shared);
    Cilk.sync ctx
  in
  let _, races = run_oracle ~spec:Steal_spec.none program in
  Alcotest.(check int) "one racy loc" 1 (List.length races)

let test_pairs_report_exact_strands () =
  let program ctx =
    let c = Cell.make_in ctx 0 in
    ignore (Cilk.spawn ctx (fun ctx -> Cell.write ctx c 1));
    ignore (Cell.read ctx c);
    Cilk.sync ctx
  in
  let eng = Engine.create ~record:true () in
  ignore (Engine.run eng program);
  match Oracle.determinacy_pairs eng with
  | [ (loc, s1, s2) ] ->
      let accesses = (Trace.of_engine eng).Trace.accesses in
      let writes = List.filter (fun a -> a.Trace.a_is_write) accesses in
      let reads = List.filter (fun a -> not a.Trace.a_is_write) accesses in
      Alcotest.(check int) "loc is the cell" (List.hd writes).Trace.a_loc loc;
      Alcotest.(check int) "first strand = the write" (List.hd writes).Trace.a_strand s1;
      Alcotest.(check int) "second strand = the read" (List.hd reads).Trace.a_strand s2
  | pairs -> Alcotest.failf "expected 1 pair, got %d" (List.length pairs)

let test_view_read_pairs_endpoints () =
  let program ctx =
    let r = Rmonoid.new_int_add ctx ~init:0 in
    ignore (Cilk.spawn ctx (fun _ -> ()));
    ignore (Rmonoid.int_cell_value ctx r);
    Cilk.sync ctx
  in
  let eng = Engine.create ~record:true () in
  ignore (Engine.run eng program);
  let rreads = (Trace.of_engine eng).Trace.reducer_reads in
  Alcotest.(check int) "two reducer-reads (create + get)" 2 (List.length rreads);
  match Oracle.view_read_pairs eng with
  | [ (rid, s1, s2) ] ->
      Alcotest.(check int) "reducer 0" 0 rid;
      let strands = List.map snd rreads in
      Alcotest.(check (list int)) "pair = the two reducer-reads" (List.sort compare strands)
        (List.sort compare [ s1; s2 ])
  | pairs -> Alcotest.failf "expected 1 view-read pair, got %d" (List.length pairs)

let () =
  Alcotest.run "oracle"
    [
      ( "view semantics",
        [
          Alcotest.test_case "same-view reduce serialized" `Quick
            test_same_view_reduce_is_serialized;
          Alcotest.test_case "parallel-view reduce races" `Quick
            test_parallel_view_reduce_races;
          Alcotest.test_case "oblivious pair ignores views" `Quick
            test_view_oblivious_pair_ignores_views;
        ] );
      ( "endpoints",
        [
          Alcotest.test_case "determinacy pair strands" `Quick
            test_pairs_report_exact_strands;
          Alcotest.test_case "view-read pair strands" `Quick
            test_view_read_pairs_endpoints;
        ] );
    ]
