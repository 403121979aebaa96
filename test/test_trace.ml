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

let load_ok path =
  match Trace.load path with Ok tr -> tr | Error msg -> Alcotest.fail msg

let with_temp f =
  let path = Filename.temp_file "rader" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

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
      let tr' = load_ok path in
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
          let tr' = load_ok path in
          Alcotest.(check (list int))
            ("determinacy races offline (" ^ spec.Steal_spec.name ^ ")")
            (Oracle.determinacy_races eng)
            (Oracle.determinacy_races_t tr');
          Alcotest.(check (list int))
            ("view-read races offline (" ^ spec.Steal_spec.name ^ ")")
            (Oracle.view_read_races eng)
            (Oracle.view_read_races_t tr')))
    [ Steal_spec.none; Steal_spec.all (); Steal_spec.at_local_indices [ 1; 2 ] ]

let expect_load_error path =
  match Trace.load path with
  | Ok _ -> Alcotest.fail "expected a load error"
  | Error _ -> ()

let test_load_rejects_garbage () =
  with_temp (fun path ->
      write_file path "garbage";
      expect_load_error path)

let test_load_rejects_missing_file () =
  expect_load_error (Filename.concat (Filename.get_temp_dir_name ()) "no-such.trace");
  expect_load_error (Filename.get_temp_dir_name ())

let test_load_rejects_bad_integer () =
  with_temp (fun path ->
      write_file path "rader-trace 1\ns 0 0 0 main\ns x 0 0 cont\n";
      expect_load_error path)

let test_load_rejects_backward_edge () =
  with_temp (fun path ->
      write_file path "rader-trace 1\ns 0 0 0 main\ns 0 0 0 cont\ne 1 0\n";
      expect_load_error path;
      write_file path "rader-trace 1\ns 0 0 0 main\ne 0 0\n";
      expect_load_error path)

(* Every failure path closes the channel: repeated failed loads leave the
   process's descriptor count where it was. *)
let test_load_closes_channel () =
  if Sys.file_exists "/proc/self/fd" then
    with_temp (fun path ->
        write_file path "rader-trace 1\ns 0 0 0 main\ne 0 7\n";
        let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
        let before = open_fds () in
        for _ = 1 to 50 do
          expect_load_error path
        done;
        Alcotest.(check int) "no leaked descriptors" before (open_fds ()))

(* Totality under mutation, over saved demo traces: flip random bytes,
   truncate, extend — [load] returns [Ok] or [Error], never raises. *)
let demo_traces =
  lazy
    (List.map
       (fun name ->
         let program =
           match Rader_benchsuite.Demos.resolve ~scale:0.05 name with
           | Ok p -> p
           | Error msg -> failwith msg
         in
         let tr = Trace.of_engine (recorded ~spec:(Steal_spec.all ()) program) in
         with_temp (fun path ->
             Trace.save tr path;
             In_channel.with_open_bin path In_channel.input_all))
       [ "fig1-buggy"; "racy-read"; "fib-racy" ])

let gen_mutation =
  let open QCheck2.Gen in
  let* base = int_bound 2 in
  let* flips = list_size (int_range 1 8) (pair nat (int_bound 255)) in
  let* cut = nat in
  let* extend = string_size ~gen:char (int_bound 8) in
  return (base, flips, cut, extend)

let mutate body flips cut extend =
  let n = String.length body in
  let b = Bytes.of_string body in
  List.iter (fun (i, c) -> Bytes.set b (i mod n) (Char.chr c)) flips;
  let s = Bytes.to_string b in
  let s = if cut mod 3 = 0 then String.sub s 0 (cut mod n) else s in
  s ^ extend

let prop_load_total =
  QCheck2.Test.make ~name:"load is total under byte mutation" ~count:300
    gen_mutation (fun (base, flips, cut, extend) ->
      let body = List.nth (Lazy.force demo_traces) base in
      with_temp (fun path ->
          write_file path (mutate body flips cut extend);
          match Trace.load path with
          | Ok _ | Error _ -> true
          | exception e ->
              QCheck2.Test.fail_reportf "load raised %s" (Printexc.to_string e)))

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
      let tr' = load_ok path in
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
          Alcotest.test_case "rejects a missing file" `Quick
            test_load_rejects_missing_file;
          Alcotest.test_case "rejects a bad integer" `Quick
            test_load_rejects_bad_integer;
          Alcotest.test_case "rejects a backward edge" `Quick
            test_load_rejects_backward_edge;
          Alcotest.test_case "closes its channel" `Quick test_load_closes_channel;
          QCheck_alcotest.to_alcotest prop_load_total;
        ] );
    ]
