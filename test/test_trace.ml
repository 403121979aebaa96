(* Tests for trace extraction, serialization round-trips, and offline
   oracle equivalence. *)

open Rader_runtime
open Rader_core

let checkb = Alcotest.(check bool)

let fig1_like ctx =
  let list = Mylist.empty ctx in
  Mylist.insert ctx list 1;
  Mylist.insert ctx list 2;
  let copy = Mylist.shallow_copy ctx list in
  let len = Cilk.spawn ctx (fun ctx -> Mylist.scan ctx list) in
  Cilk.call ctx (fun ctx ->
      let red = Reducer.create ctx (Mylist.monoid ()) ~init:(Mylist.empty ctx) in
      Reducer.set_value ctx red copy;
      Cilk.parallel_for ctx ~lo:0 ~hi:5 (fun ctx i ->
          Reducer.update ctx red (fun c l ->
              Mylist.insert c l i;
              l));
      Cilk.sync ctx);
  Cilk.sync ctx;
  Cilk.get ctx len

let recorded ?(spec = Steal_spec.at_local_indices [ 1; 2 ]) program =
  let eng = Engine.create ~spec ~record:true () in
  ignore (Engine.run eng program);
  eng

let test_of_engine_requires_recording () =
  let eng = Engine.create () in
  ignore (Engine.run eng (fun _ -> ()));
  Alcotest.check_raises "unrecorded"
    (Invalid_argument "Trace.of_engine: engine run was not recorded") (fun () ->
      ignore (Trace.of_engine eng))

let test_trace_contents () =
  let eng = recorded fig1_like in
  let tr = Trace.of_engine eng in
  let stats = Engine.stats eng in
  Alcotest.(check int) "strands" stats.Engine.n_strands
    (Rader_dag.Dag.n_strands tr.Trace.dag);
  Alcotest.(check int) "accesses"
    (stats.Engine.n_reads + stats.Engine.n_writes)
    (List.length tr.Trace.accesses);
  Alcotest.(check int) "spawns" stats.Engine.n_spawns (List.length tr.Trace.spawns);
  checkb "labels cover accesses" true
    (List.for_all
       (fun a -> Trace.loc_label tr a.Engine.a_loc <> "?")
       tr.Trace.accesses);
  checkb "has mylist label" true
    (List.exists (fun (_, l) -> l = "mylist.next") tr.Trace.loc_labels)

let test_save_load_roundtrip () =
  let eng = recorded fig1_like in
  let tr = Trace.of_engine eng in
  let path = Filename.temp_file "rader" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save tr path;
      let tr' = Trace.load path in
      checkb "round trip equal" true (Trace.equal tr tr'))

let test_offline_oracle_equals_online () =
  List.iter
    (fun (spec : Steal_spec.t) ->
      let eng = recorded ~spec fig1_like in
      let tr = Trace.of_engine eng in
      let path = Filename.temp_file "rader" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Trace.save tr path;
          let tr' = Trace.load path in
          Alcotest.(check (list int))
            ("determinacy races offline (" ^ spec.Steal_spec.name ^ ")")
            (Oracle.determinacy_races eng)
            (Oracle.determinacy_races_t tr');
          Alcotest.(check (list int))
            ("view-read races offline (" ^ spec.Steal_spec.name ^ ")")
            (Oracle.view_read_races eng)
            (Oracle.view_read_races_t tr')))
    [ Steal_spec.none; Steal_spec.all (); Steal_spec.at_local_indices [ 1; 2 ] ]

let test_load_rejects_garbage () =
  let path = Filename.temp_file "rader" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a trace\n";
      close_out oc;
      match Trace.load path with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure _ -> ())

let test_label_with_spaces_roundtrip () =
  let eng = Engine.create ~record:true () in
  ignore
    (Engine.run eng (fun ctx ->
         let c = Cell.make_in ctx ~label:"a label with spaces" 0 in
         Cell.write ctx c 1));
  let tr = Trace.of_engine eng in
  let path = Filename.temp_file "rader" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save tr path;
      let tr' = Trace.load path in
      checkb "spacey label survives" true
        (List.exists (fun (_, l) -> l = "a label with spaces") tr'.Trace.loc_labels))

let test_sp_tree_reconstruction () =
  let eng = recorded ~spec:Steal_spec.none fig1_like in
  let tr = Trace.of_engine eng in
  let tree = Trace.sp_tree tr in
  let n = Rader_dag.Dag.n_strands tr.Trace.dag in
  Alcotest.(check (list int))
    "leaves = all strands" (List.init n Fun.id)
    (List.sort compare (Rader_dag.Sp_tree.leaves tree));
  (* spot-check: the probe child's strands are parallel to the helper's *)
  let ix = Rader_dag.Sp_tree.index tree in
  let reach = Rader_dag.Reach.compute tr.Trace.dag in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rader_dag.Sp_tree.parallel ix u v <> Rader_dag.Reach.parallel reach u v then
        ok := false
    done
  done;
  checkb "tree parallelism = dag parallelism" true !ok

let test_sp_tree_rejects_performance_dag () =
  let eng = recorded ~spec:(Steal_spec.all ()) fig1_like in
  let tr = Trace.of_engine eng in
  match Trace.sp_tree tr with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

(* A serial execution numbers strands depth-first, so a child frame's
   strands form one contiguous run. A trace that interleaves them is not
   a serial execution and has no canonical parse tree. *)
let test_sp_tree_rejects_interleaved_frames () =
  let dag = Rader_dag.Dag.create () in
  List.iter
    (fun frame ->
      ignore
        (Rader_dag.Dag.add_strand dag ~frame ~kind:Rader_dag.Dag.User ~view:0
           ~label:""))
    [ 0; 1; 0; 1 ];
  let tr =
    {
      Trace.dag;
      accesses = [];
      merges = [];
      reducer_reads = [];
      spawns = [];
      frames = [ (0, -1, false, Tool.User_fn); (1, 0, true, Tool.User_fn) ];
      loc_labels = [];
    }
  in
  match Trace.sp_tree tr with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "requires recording" `Quick test_of_engine_requires_recording;
          Alcotest.test_case "contents" `Quick test_trace_contents;
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "offline oracle = online" `Quick
            test_offline_oracle_equals_online;
          Alcotest.test_case "rejects garbage" `Quick test_load_rejects_garbage;
          Alcotest.test_case "labels with spaces" `Quick test_label_with_spaces_roundtrip;
          Alcotest.test_case "SP-tree reconstruction" `Quick test_sp_tree_reconstruction;
          Alcotest.test_case "SP-tree rejects performance dag" `Quick
            test_sp_tree_rejects_performance_dag;
          Alcotest.test_case "SP-tree rejects interleaved frames" `Quick
            test_sp_tree_rejects_interleaved_frames;
        ] );
    ]
