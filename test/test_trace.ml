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
    (Rader_dag.Dag.n_strands (Trace.dag tr));
  Alcotest.(check int) "decoded strands" stats.Engine.n_strands tr.Trace.n_strands;
  Alcotest.(check int) "accesses"
    (stats.Engine.n_reads + stats.Engine.n_writes)
    (Array.length tr.Trace.acc_loc);
  Alcotest.(check int) "spawns" stats.Engine.n_spawns (Array.length tr.Trace.spawn_frame);
  checkb "labels cover accesses" true
    (Array.for_all (fun l -> Trace.loc_label tr l <> "?") tr.Trace.acc_loc);
  checkb "has mylist label" true (Array.mem "mylist.next" tr.Trace.label_text)

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

(* [load] refuses the file, with an error that mentions [mentions]. *)
let expect_load_error ?(mentions = "") path =
  match Trace.load path with
  | Ok _ -> Alcotest.fail "expected a load error"
  | Error msg ->
      let n = String.length mentions in
      let rec found i =
        i + n <= String.length msg && (String.sub msg i n = mentions || found (i + 1))
      in
      if not (found 0) then Alcotest.failf "error %S does not mention %S" msg mentions

let test_load_rejects_garbage () =
  with_temp (fun path ->
      write_file path "garbage";
      expect_load_error path)

let test_load_rejects_missing_file () =
  expect_load_error (Filename.concat (Filename.get_temp_dir_name ()) "no-such.trace");
  expect_load_error (Filename.get_temp_dir_name ())

(* v2 bodies: one tape entry per line (tag in the low three bits). *)
let entry tag arg = string_of_int ((arg lsl 3) lor tag)

let v2 entries =
  String.concat "\n" ("rader-trace 2" :: entries) ^ "\n"

(* the root enters, syncs and returns *)
let enter_root = entry 0 0
let sync_e = entry 2 0
let return_e = entry 1 0

let test_load_minimal_run () =
  with_temp (fun path ->
      write_file path (v2 [ enter_root; sync_e; return_e ]);
      let tr = load_ok path in
      Alcotest.(check int) "main + sync strands" 2 tr.Trace.n_strands)

let test_load_rejects_bad_integer () =
  with_temp (fun path ->
      write_file path (v2 [ enter_root; "x"; sync_e; return_e ]);
      expect_load_error ~mentions:"bad integer" path)

let test_load_rejects_unknown_tag () =
  with_temp (fun path ->
      write_file path (v2 [ enter_root; entry 7 0; sync_e; return_e ]);
      expect_load_error ~mentions:"unknown tag 7" path)

(* A tape cut inside the run leaves frames open: the decoder wants the
   whole run. *)
let test_load_rejects_truncated_tape () =
  with_temp (fun path ->
      write_file path (v2 [ enter_root; entry 0 4; sync_e ]);
      expect_load_error ~mentions:"incomplete run" path)

let test_load_rejects_return_without_frame () =
  with_temp (fun path ->
      write_file path (v2 [ return_e ]);
      expect_load_error ~mentions:"no open frame" path;
      write_file path (v2 [ enter_root; sync_e; return_e; return_e ]);
      expect_load_error ~mentions:"after the root frame returned" path)

let test_load_rejects_short_merge () =
  with_temp (fun path ->
      write_file path (v2 [ enter_root; entry 3 0; sync_e; return_e ]);
      expect_load_error ~mentions:"fewer than two open regions" path)

(* There is one format: a version-1 file, even one holding only its
   header, is an error that names the version. So is an empty v2 tape. *)
let test_load_rejects_v1_header () =
  with_temp (fun path ->
      write_file path "rader-trace 1\ns 0 0 0 main\n";
      expect_load_error ~mentions:"version 1" path;
      write_file path "rader-trace 1\n";
      expect_load_error ~mentions:"version 1" path;
      write_file path "rader-trace 2\n";
      expect_load_error ~mentions:"empty tape" path)

(* Every failure path closes the channel: repeated failed loads leave the
   process's descriptor count where it was. *)
let test_load_closes_channel () =
  if Sys.file_exists "/proc/self/fd" then
    with_temp (fun path ->
        write_file path (v2 [ enter_root; entry 7 0 ]);
        let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
        let before = open_fds () in
        for _ = 1 to 50 do
          expect_load_error path
        done;
        Alcotest.(check int) "no leaked descriptors" before (open_fds ()))

(* Totality under mutation, over saved demo traces: flip random bytes,
   truncate, extend — [load] returns [Ok] or [Error], never raises, and
   every [Ok] trace runs through both oracles and [sp_tree], which may
   only refuse a performance dag. *)
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

let usable tr =
  ignore (Oracle.determinacy_pairs_t tr);
  ignore (Oracle.view_read_pairs_t tr);
  match (Trace.sp_tree tr, Trace.index tr) with
  | _ -> ()
  | exception Invalid_argument msg
    when String.starts_with ~prefix:"Trace.sp_tree: performance dag" msg
         || String.starts_with ~prefix:"Trace.index: performance dag" msg ->
      ()

let load_total body =
  with_temp (fun path ->
      write_file path body;
      match Trace.load path with
      | Ok tr -> (
          match usable tr with
          | () -> true
          | exception e ->
              QCheck2.Test.fail_reportf "a loaded trace raised %s"
                (Printexc.to_string e))
      | Error _ -> true
      | exception e ->
          QCheck2.Test.fail_reportf "load raised %s" (Printexc.to_string e))

let prop_load_total =
  QCheck2.Test.make ~name:"load is total under byte mutation" ~count:300
    gen_mutation (fun (base, flips, cut, extend) ->
      load_total (mutate (List.nth (Lazy.force demo_traces) base) flips cut extend))

(* Random tapes over every tag, with small arguments: most are rejected,
   and every accepted one must be usable. *)
let gen_tape =
  let open QCheck2.Gen in
  let kinds = int_bound 3 and bit = int_bound 1 in
  let enter = map2 (fun k sp -> entry 0 ((sp lsl 2) lor k)) kinds bit in
  let e =
    oneof
      [
        enter;
        map (fun b -> entry 1 b) bit;
        return sync_e;
        return (entry 2 0);
        return (entry 3 0);
        return (entry 4 0);
        map (fun l -> entry 5 l) (int_bound 7);
        map (fun r -> entry 6 r) (int_bound 1);
      ]
  in
  map
    (fun body -> v2 (enter_root :: body @ [ sync_e; return_e ]))
    (list_size (int_bound 30) e)

let prop_random_tapes =
  QCheck2.Test.make ~name:"random tapes load totally" ~count:2000 gen_tape load_total

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
        (Array.mem "a label with spaces" tr'.Trace.label_text))

let test_sp_tree_reconstruction () =
  let eng = recorded ~spec:Steal_spec.none fig1_like in
  let tr = Trace.of_engine eng in
  let tree = Trace.sp_tree tr in
  let n = Rader_dag.Dag.n_strands (Trace.dag tr) in
  Alcotest.(check (list int))
    "leaves = all strands" (List.init n Fun.id)
    (List.sort compare (Rader_dag.Sp_tree.leaves tree));
  (* spot-check: the probe child's strands are parallel to the helper's *)
  let ix = Rader_dag.Sp_tree.index tree in
  let reach = Rader_dag.Dag.closure (Trace.dag tr) in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rader_dag.Sp_tree.parallel ix u v <> Rader_dag.Dag.parallel reach u v then
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

(* The decoder wants a complete run: the prefix a crash leaves is refused. *)
let test_of_engine_requires_complete_run () =
  let eng = Engine.create ~record:true () in
  (match Engine.run_result eng (fun ctx -> Cilk.call ctx (fun _ -> failwith "boom")) with
  | Ok () -> Alcotest.fail "expected a contained failure"
  | Error _ -> ());
  match Trace.of_engine eng with
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
          Alcotest.test_case "requires a complete run" `Quick
            test_of_engine_requires_complete_run;
          Alcotest.test_case "rejects a missing file" `Quick
            test_load_rejects_missing_file;
          Alcotest.test_case "loads a minimal run" `Quick test_load_minimal_run;
          Alcotest.test_case "rejects a bad integer" `Quick
            test_load_rejects_bad_integer;
          Alcotest.test_case "rejects an unknown tag" `Quick
            test_load_rejects_unknown_tag;
          Alcotest.test_case "rejects a truncated tape" `Quick
            test_load_rejects_truncated_tape;
          Alcotest.test_case "rejects a return with no open frame" `Quick
            test_load_rejects_return_without_frame;
          Alcotest.test_case "rejects a merge of fewer than two regions" `Quick
            test_load_rejects_short_merge;
          Alcotest.test_case "rejects a v1 header" `Quick test_load_rejects_v1_header;
          Alcotest.test_case "closes its channel" `Quick test_load_closes_channel;
          QCheck_alcotest.to_alcotest prop_load_total;
          QCheck_alcotest.to_alcotest prop_random_tapes;
        ] );
    ]
