(* Tests for the Cilk engine: DSL semantics, Cilk-discipline enforcement,
   region/view management under steal specifications, reducers, dag
   recording, and the instrumented memory primitives. *)

open Rader_runtime
module Dag = Rader_dag.Dag
module Trace = Rader_core.Trace
module Report = Rader_core.Report
module Sp_plus = Rader_core.Sp_plus
module Peer_set = Rader_core.Peer_set

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let expect_cilk_error f =
  match f () with
  | _ -> Alcotest.fail "expected Cilk_error"
  | exception Engine.Cilk_error _ -> ()

(* ---------- DSL basics ---------- *)

let test_spawn_sync_get () =
  let v, _ =
    Cilk.exec (fun ctx ->
        let f1 = Cilk.spawn ctx (fun _ -> 20) in
        let f2 = Cilk.spawn ctx (fun _ -> 22) in
        Cilk.sync ctx;
        Cilk.get ctx f1 + Cilk.get ctx f2)
  in
  check "spawn results" 42 v

let test_call_returns_directly () =
  let v, _ = Cilk.exec (fun ctx -> Cilk.call ctx (fun _ -> 7) + 1) in
  check "call" 8 v

let test_nested_spawns () =
  let rec tree ctx depth =
    if depth = 0 then 1
    else begin
      let l = Cilk.spawn ctx (fun ctx -> tree ctx (depth - 1)) in
      let r = Cilk.call ctx (fun ctx -> tree ctx (depth - 1)) in
      Cilk.sync ctx;
      Cilk.get ctx l + r
    end
  in
  let v, eng = Cilk.exec (fun ctx -> tree ctx 5) in
  check "2^5 leaves" 32 v;
  checkb "spawn count" true ((Engine.stats eng).Engine.n_spawns = 31)

let test_get_before_sync_raises () =
  expect_cilk_error (fun () ->
      Cilk.exec (fun ctx ->
          let f = Cilk.spawn ctx (fun _ -> 1) in
          Cilk.get ctx f))

let test_get_wrong_frame_raises () =
  expect_cilk_error (fun () ->
      Cilk.exec (fun ctx ->
          let f = Cilk.spawn ctx (fun _ -> 1) in
          Cilk.sync ctx;
          Cilk.call ctx (fun inner -> Cilk.get inner f)))

let test_get_after_later_sync_ok () =
  let v, _ =
    Cilk.exec (fun ctx ->
        let f = Cilk.spawn ctx (fun _ -> 5) in
        Cilk.sync ctx;
        let g = Cilk.spawn ctx (fun _ -> 6) in
        Cilk.sync ctx;
        Cilk.get ctx f + Cilk.get ctx g)
  in
  check "both futures" 11 v

let test_implicit_sync_at_return () =
  (* A child that spawns without syncing: the implicit sync must still
     make the child's effects complete before the parent continues. *)
  let v, _ =
    Cilk.exec (fun ctx ->
        let eng = Engine.engine ctx in
        let c = Cell.make eng 0 in
        Cilk.call ctx (fun ctx ->
            ignore (Cilk.spawn ctx (fun ctx -> Cell.write ctx c 9)));
        Cell.read ctx c)
  in
  check "implicit sync" 9 v

let test_parallel_for_sum () =
  let v, _ =
    Cilk.exec (fun ctx ->
        let r = Rmonoid.new_int_add ctx ~init:0 in
        Cilk.parallel_for ctx ~lo:0 ~hi:100 (fun ctx i -> Rmonoid.add ctx r i);
        Cilk.sync ctx;
        Rmonoid.int_cell_value ctx r)
  in
  check "sum 0..99" 4950 v

let test_parallel_for_empty_and_grain () =
  let v, _ =
    Cilk.exec (fun ctx ->
        Cilk.parallel_for ctx ~lo:5 ~hi:5 (fun _ _ -> Alcotest.fail "ran");
        let r = Rmonoid.new_int_add ctx ~init:0 in
        Cilk.parallel_for ~grain:7 ctx ~lo:0 ~hi:50 (fun ctx i -> Rmonoid.add ctx r i);
        Cilk.sync ctx;
        Rmonoid.int_cell_value ctx r)
  in
  check "grain sum" 1225 v

let test_engine_single_use () =
  let eng = Engine.create () in
  ignore (Engine.run eng (fun _ -> ()));
  expect_cilk_error (fun () -> Engine.run eng (fun _ -> ()))

let test_ctx_escape_detected () =
  expect_cilk_error (fun () ->
      Cilk.exec (fun ctx ->
          let stolen = ref None in
          Cilk.call ctx (fun inner -> stolen := Some inner);
          match !stolen with
          | Some inner -> ignore (Cilk.spawn inner (fun _ -> ()))
          | None -> ()))

(* The context rule: a context is valid only while its frame is innermost,
   so a parent's live context captured and used inside a child's body is
   rejected, whatever it is used for. *)
let parent_ctx_in_child use =
  expect_cilk_error (fun () ->
      Cilk.exec (fun ctx ->
          let cell = Cell.make_in ctx ~label:"x" 0 in
          let r = Rmonoid.new_int_add ctx ~init:0 in
          Cilk.call ctx (fun _child -> use ctx cell r)))

let test_parent_ctx_spawn_in_child () =
  parent_ctx_in_child (fun ctx _ _ -> ignore (Cilk.spawn ctx (fun _ -> ())))

let test_parent_ctx_sync_in_child () =
  parent_ctx_in_child (fun ctx _ _ -> Cilk.sync ctx)

let test_parent_ctx_read_in_child () =
  parent_ctx_in_child (fun ctx cell _ -> ignore (Cell.read ctx cell))

let test_parent_ctx_reducer_in_child () =
  parent_ctx_in_child (fun ctx _ r -> Rmonoid.add ctx r 1)

(* ---------- Cilk discipline in view-aware code ---------- *)

let test_no_spawn_in_update () =
  expect_cilk_error (fun () ->
      Cilk.exec (fun ctx ->
          let r = Rmonoid.new_int_add ctx ~init:0 in
          Reducer.update ctx r (fun c v ->
              ignore (Cilk.spawn c (fun _ -> ()));
              v)))

let test_no_sync_in_update () =
  expect_cilk_error (fun () ->
      Cilk.exec (fun ctx ->
          let r = Rmonoid.new_int_add ctx ~init:0 in
          Reducer.update ctx r (fun c v ->
              Cilk.sync c;
              v)))

let test_no_reducer_read_in_update () =
  expect_cilk_error (fun () ->
      Cilk.exec (fun ctx ->
          let r = Rmonoid.new_int_add ctx ~init:0 in
          Reducer.update ctx r (fun c v -> ignore (Reducer.get_value c r); v)))

(* ---------- Regions and views under steal specs ---------- *)

let test_regions_no_steals () =
  ignore
    (Cilk.exec (fun ctx ->
         let r0 = Engine.current_region ctx in
         check "root region" 0 r0;
         ignore
           (Cilk.spawn ctx (fun ctx ->
                check "child inherits" 0 (Engine.current_region ctx)));
         check "still 0" 0 (Engine.current_region ctx);
         Cilk.sync ctx;
         check "after sync 0" 0 (Engine.current_region ctx)))

let test_regions_steal_and_restore () =
  ignore
    (Cilk.exec ~spec:(Steal_spec.all ()) (fun ctx ->
         ignore (Cilk.spawn ctx (fun _ -> ()));
         let r1 = Engine.current_region ctx in
         checkb "stolen continuation gets fresh region" true (r1 <> 0);
         ignore
           (Cilk.spawn ctx (fun ctx ->
                check "child inherits stolen region" r1 (Engine.current_region ctx)));
         let r2 = Engine.current_region ctx in
         checkb "second steal fresh" true (r2 <> r1 && r2 <> 0);
         Cilk.sync ctx;
         (* view invariant 3: the sync strand sees the function's initial view *)
         check "sync restores base region" 0 (Engine.current_region ctx)))

let test_steal_counts () =
  let _, eng =
    Cilk.exec ~spec:(Steal_spec.all ()) (fun ctx ->
        Cilk.parallel_for ctx ~lo:0 ~hi:16 (fun _ _ -> ()))
  in
  let s = Engine.stats eng in
  check "every continuation stolen" s.Engine.n_spawns s.Engine.n_steals

let test_reduce_only_when_views_exist () =
  (* Without reducers, merges emit reduce events but run no user Reduce. *)
  let _, eng =
    Cilk.exec ~spec:(Steal_spec.all ()) (fun ctx ->
        ignore (Cilk.spawn ctx (fun _ -> ()));
        ignore (Cilk.spawn ctx (fun _ -> ()));
        Cilk.sync ctx)
  in
  check "no reduce calls" 0 (Engine.stats eng).Engine.n_reduce_calls

let test_identity_created_lazily () =
  let _, eng =
    Cilk.exec ~spec:(Steal_spec.all ()) (fun ctx ->
        let r = Rmonoid.new_int_add ctx ~init:0 in
        ignore (Cilk.spawn ctx (fun ctx -> Rmonoid.add ctx r 1));
        (* continuation stolen: this update must create an identity view *)
        Rmonoid.add ctx r 2;
        Cilk.sync ctx;
        check "total" 3 (Rmonoid.int_cell_value ctx r))
  in
  checkb "at least one reduce" true ((Engine.stats eng).Engine.n_reduce_calls >= 1)

let specs_to_try =
  [
    ("none", Steal_spec.none);
    ("all-eager", Steal_spec.all ());
    ("all-at-sync", Steal_spec.all ~policy:Steal_spec.Reduce_at_sync ());
    ("random", Steal_spec.random ~seed:99 ~density:0.5 ());
    ("local13", Steal_spec.at_local_indices [ 1; 3 ]);
    ("depth1", Steal_spec.at_depth 1);
    ( "schedule",
      Steal_spec.at_local_indices
        ~policy:(Steal_spec.Reduce_schedule (fun k -> if k mod 2 = 0 then 1 else 0))
        [ 1; 2; 3; 4 ] );
  ]

let test_reducer_value_deterministic_across_specs () =
  let program ctx =
    let r = Rmonoid.new_int_add ctx ~init:100 in
    let rec go ctx n =
      if n = 0 then Rmonoid.add ctx r 1
      else begin
        ignore (Cilk.spawn ctx (fun ctx -> go ctx (n - 1)));
        ignore (Cilk.spawn ctx (fun ctx -> go ctx (n - 1)));
        Cilk.sync ctx;
        Rmonoid.add ctx r n
      end
    in
    go ctx 4;
    Rmonoid.int_cell_value ctx r
  in
  let expected, _ = Cilk.exec program in
  List.iter
    (fun (name, spec) ->
      let v, _ = Cilk.exec ~spec program in
      Alcotest.(check int) (Printf.sprintf "deterministic under %s" name) expected v)
    specs_to_try

let test_mylist_order_preserved_across_specs () =
  let program ctx =
    let r = Reducer.create ctx (Mylist.monoid ()) ~init:(Mylist.empty ctx) in
    Cilk.parallel_for ctx ~lo:0 ~hi:20 (fun ctx i ->
        Reducer.update ctx r (fun c l ->
            Mylist.insert c l i;
            l));
    Cilk.sync ctx;
    Mylist.to_list ctx (Reducer.get_value ctx r)
  in
  let expected = List.init 20 Fun.id in
  List.iter
    (fun (name, spec) ->
      let v, _ = Cilk.exec ~spec program in
      Alcotest.(check (list int)) (Printf.sprintf "order under %s" name) expected v)
    specs_to_try

let test_single_view_after_sync () =
  List.iter
    (fun (name, spec) ->
      ignore
        (Cilk.exec ~spec (fun ctx ->
             let r = Rmonoid.new_int_add ctx ~init:0 in
             Cilk.parallel_for ctx ~lo:0 ~hi:12 (fun ctx _ -> Rmonoid.add ctx r 1);
             Cilk.sync ctx;
             Alcotest.(check int)
               (Printf.sprintf "one view after sync (%s)" name)
               1 (Reducer.n_views r))))
    specs_to_try

let test_set_value_resets () =
  let v, _ =
    Cilk.exec (fun ctx ->
        let r = Rmonoid.new_int_add ctx ~init:5 in
        Rmonoid.add ctx r 3;
        Reducer.set_value ctx r (Cell.make_in ctx 100);
        Rmonoid.add ctx r 1;
        Rmonoid.int_cell_value ctx r)
  in
  check "reset" 101 v

(* ---------- Mylist ---------- *)

let test_mylist_ops () =
  ignore
    (Cilk.exec (fun ctx ->
         let l = Mylist.empty ctx in
         Alcotest.(check int) "empty scan" 0 (Mylist.scan ctx l);
         List.iter (Mylist.insert ctx l) [ 1; 2; 3 ];
         Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Mylist.to_list ctx l);
         Alcotest.(check int) "scan" 3 (Mylist.scan ctx l);
         let m = Mylist.empty ctx in
         List.iter (Mylist.insert ctx m) [ 4; 5 ];
         let c = Mylist.concat ctx l m in
         Alcotest.(check (list int)) "concat" [ 1; 2; 3; 4; 5 ] (Mylist.to_list ctx c);
         let deep = Mylist.deep_copy ctx c in
         Mylist.insert ctx deep 6;
         Alcotest.(check int) "deep copy independent" 5 (Mylist.scan ctx c);
         let shallow = Mylist.shallow_copy ctx c in
         Mylist.insert ctx shallow 7;
         (* the shallow copy shares nodes: the original now sees 7 *)
         Alcotest.(check int) "shallow copy shares nodes" 6 (Mylist.scan ctx c);
         Alcotest.(check (list int)) "peek" [ 1; 2; 3; 4; 5; 7 ] (Mylist.peek_list c)))

let test_mylist_concat_empty_cases () =
  ignore
    (Cilk.exec (fun ctx ->
         let a = Mylist.empty ctx in
         let b = Mylist.empty ctx in
         ignore (Mylist.concat ctx a b);
         Alcotest.(check int) "empty++empty" 0 (Mylist.scan ctx a);
         let c = Mylist.empty ctx in
         Mylist.insert ctx c 1;
         ignore (Mylist.concat ctx a c);
         Alcotest.(check (list int)) "empty++[1]" [ 1 ] (Mylist.to_list ctx a);
         let d = Mylist.empty ctx in
         ignore (Mylist.concat ctx a d);
         Alcotest.(check (list int)) "[1]++empty" [ 1 ] (Mylist.to_list ctx a)))

(* ---------- ostream / min / max reducers ---------- *)

let test_ostream_order () =
  List.iter
    (fun (name, spec) ->
      let v, _ =
        Cilk.exec ~spec (fun ctx ->
            let out =
              Reducer.create ctx Rmonoid.ostream
                ~init:(Cell.make_in ctx (Buffer.create 16))
            in
            Cilk.parallel_for ctx ~lo:0 ~hi:10 (fun ctx i ->
                Rmonoid.ostream_emit ctx out (string_of_int i));
            Cilk.sync ctx;
            Buffer.contents (Cell.read ctx (Reducer.get_value ctx out)))
      in
      Alcotest.(check string) (Printf.sprintf "ostream order (%s)" name) "0123456789" v)
    specs_to_try

let test_min_max_reducers () =
  let v, _ =
    Cilk.exec ~spec:(Steal_spec.all ()) (fun ctx ->
        let mx = Rmonoid.new_int_max ctx ~init:min_int in
        let mn =
          Reducer.create ctx Rmonoid.int_min_cell ~init:(Cell.make_in ctx max_int)
        in
        Cilk.parallel_for ctx ~lo:0 ~hi:30 (fun ctx i ->
            Rmonoid.maximize ctx mx ((i * 7) mod 13);
            Reducer.update ctx mn (fun c cell ->
                let v = Cell.read c cell in
                let x = (i * 5) mod 11 in
                if x < v then Cell.write c cell x;
                cell));
        Cilk.sync ctx;
        (Rmonoid.int_cell_value ctx mx * 100) + Rmonoid.int_cell_value ctx mn)
  in
  check "max=12 min=0" 1200 v

(* ---------- Rvec ---------- *)

let test_rvec_basic () =
  ignore
    (Cilk.exec (fun ctx ->
         let v = Rvec.create ctx () in
         Alcotest.(check int) "empty" 0 (Rvec.length ctx v);
         for i = 0 to 99 do
           Rvec.push ctx v (i * 2)
         done;
         Alcotest.(check int) "length" 100 (Rvec.length ctx v);
         Alcotest.(check int) "get" 14 (Rvec.get ctx v 7);
         Rvec.set ctx v 7 (-1);
         Alcotest.(check int) "set" (-1) (Rvec.get ctx v 7);
         Alcotest.check_raises "oob" (Invalid_argument "Rvec: index 100 out of bounds [0,100)")
           (fun () -> ignore (Rvec.get ctx v 100));
         let w = Rvec.create ctx () in
         Rvec.push ctx w 1000;
         Rvec.append_into ctx ~dst:v ~src:w;
         Alcotest.(check int) "appended" 101 (Rvec.length ctx v);
         Alcotest.(check int) "last" 1000 (Rvec.get ctx v 100)))

let test_rvec_reducer_across_specs () =
  let program ctx =
    let r = Reducer.create ctx (Rvec.monoid ()) ~init:(Rvec.create ctx ()) in
    Cilk.parallel_for ctx ~lo:0 ~hi:25 (fun ctx i ->
        Reducer.update ctx r (fun c v ->
            Rvec.push c v i;
            v));
    Cilk.sync ctx;
    Rvec.to_list ctx (Reducer.get_value ctx r)
  in
  let expected = List.init 25 Fun.id in
  List.iter
    (fun (name, spec) ->
      let got, _ = Cilk.exec ~spec program in
      Alcotest.(check (list int)) ("rvec order under " ^ name) expected got)
    specs_to_try

let test_rvec_accesses_instrumented () =
  let _, eng =
    Cilk.exec (fun ctx ->
        let v = Rvec.create ctx () in
        Rvec.push ctx v 1;
        ignore (Rvec.get ctx v 0))
  in
  let s = Engine.stats eng in
  (* push: len read + slot write + len write; get: len read + slot read *)
  check "reads" 3 s.Engine.n_reads;
  check "writes" 2 s.Engine.n_writes

(* ---------- Rhashtbl ---------- *)

let test_rhashtbl_basic () =
  ignore
    (Cilk.exec (fun ctx ->
         let h = Rhashtbl.create ctx ~buckets:7 () in
         Rhashtbl.add ctx h "a" 1 ~combine:( + );
         Rhashtbl.add ctx h "b" 2 ~combine:( + );
         Rhashtbl.add ctx h "a" 10 ~combine:( + );
         Alcotest.(check int) "size counts keys" 2 (Rhashtbl.size ctx h);
         Alcotest.(check (option int)) "combined" (Some 11) (Rhashtbl.find ctx h "a");
         Alcotest.(check (option int)) "other" (Some 2) (Rhashtbl.find ctx h "b");
         Alcotest.(check (option int)) "absent" None (Rhashtbl.find ctx h "z");
         Alcotest.(check (list (pair string int)))
           "bindings sorted" [ ("a", 11); ("b", 2) ] (Rhashtbl.bindings ctx h);
         let g = Rhashtbl.create ctx ~buckets:3 () in
         Rhashtbl.add ctx g "b" 5 ~combine:( + );
         Rhashtbl.add ctx g "c" 7 ~combine:( + );
         Rhashtbl.merge_into ctx ~dst:h ~src:g ~combine:( + );
         Alcotest.(check (list (pair string int)))
           "merged" [ ("a", 11); ("b", 7); ("c", 7) ] (Rhashtbl.bindings ctx h)))

let test_rhashtbl_reducer_across_specs () =
  let words = [| "a"; "b"; "a"; "c"; "b"; "a"; "d"; "a" |] in
  let program ctx =
    let r =
      Reducer.create ctx
        (Rhashtbl.monoid ~buckets:5 ~combine:( + ) ())
        ~init:(Rhashtbl.create ctx ~buckets:5 ())
    in
    Cilk.parallel_for ctx ~lo:0 ~hi:(Array.length words) (fun ctx i ->
        Reducer.update ctx r (fun c h ->
            Rhashtbl.add c h words.(i) 1 ~combine:( + );
            h));
    Cilk.sync ctx;
    Rhashtbl.bindings ctx (Reducer.get_value ctx r)
  in
  let expected = [ ("a", 4); ("b", 2); ("c", 1); ("d", 1) ] in
  List.iter
    (fun (name, spec) ->
      let got, _ = Cilk.exec ~spec program in
      Alcotest.(check (list (pair string int))) ("counts under " ^ name) expected got)
    specs_to_try

(* ---------- Cells, arrays, labels ---------- *)

let test_cell_rarray_basic () =
  let v, eng =
    Cilk.exec (fun ctx ->
        let eng = Engine.engine ctx in
        let c = Cell.make eng ~label:"counter" 10 in
        Cell.write ctx c (Cell.read ctx c + 5);
        let a = Rarray.init eng ~label:"sq" 10 (fun i -> i * i) in
        Rarray.write ctx a 3 (-1);
        Cell.read ctx c + Rarray.read ctx a 3 + Rarray.read ctx a 4)
  in
  check "value" 30 v;
  let s = Engine.stats eng in
  (* read-modify-write of c, then c + a.(3) + a.(4) *)
  check "reads" 4 s.Engine.n_reads;
  check "writes" 2 s.Engine.n_writes

let test_loc_labels () =
  let eng = Engine.create () in
  let _ =
    Engine.run eng (fun ctx ->
        let e = Engine.engine ctx in
        let c = Cell.make e ~label:"mycell" 0 in
        let a = Rarray.make e ~label:"myarr" 5 0 in
        Alcotest.(check string) "cell label" "mycell" (Engine.loc_label e (Cell.loc c));
        Alcotest.(check string) "array label" "myarr[2]" (Engine.loc_label e (Rarray.loc a 2));
        (* consecutive cells sharing one label are stored as a run *)
        let label = "view" in
        let run = List.init 3 (fun _ -> Cell.make e ~label 0) in
        let equal_label = Cell.make e ~label:(String.concat "" [ "vi"; "ew" ]) 0 in
        let range = Rarray.make e ~label 2 0 in
        let after = Cell.make e ~label 0 in
        List.iter
          (fun c -> Alcotest.(check string) "run label" "view" (Engine.loc_label e (Cell.loc c)))
          (run @ [ equal_label; after ]);
        Alcotest.(check string) "range after a run" "view[1]"
          (Engine.loc_label e (Rarray.loc range 1)))
  in
  Alcotest.(check string) "unknown" "?" (Engine.loc_label eng 999)

let test_peek_poke_untracked () =
  let _, eng =
    Cilk.exec (fun ctx ->
        let c = Cell.make_in ctx 1 in
        Cell.poke c 2;
        Alcotest.(check int) "poke/peek" 2 (Cell.peek c))
  in
  check "no instrumented accesses" 0 (Engine.stats eng).Engine.n_reads

(* ---------- Dag recording ---------- *)

let diamond ctx =
  let f = Cilk.spawn ctx (fun _ -> 1) in
  let g = Cilk.spawn ctx (fun _ -> 2) in
  Cilk.sync ctx;
  Cilk.get ctx f + Cilk.get ctx g

let test_dag_recorded_structure () =
  let v, eng = Cilk.exec ~record:true diamond in
  check "result" 3 v;
  let dag = Trace.dag (Trace.of_engine eng) in
  check "strand ids = dag size" (Engine.stats eng).Engine.n_strands (Dag.n_strands dag);
  let n = Dag.n_strands dag in
  (* single source, single sink *)
  let sources = ref 0 and sinks = ref 0 in
  for i = 0 to n - 1 do
    if Dag.preds dag i = [] then incr sources;
    if Dag.succs dag i = [] then incr sinks
  done;
  check "one source" 1 !sources;
  check "one sink" 1 !sinks;
  let reach = Dag.closure dag in
  checkb "source precedes all" true
    (List.for_all
       (fun i -> Dag.precedes reach 0 i)
       (List.init (n - 1) (fun i -> i + 1)))

let test_dag_children_parallel () =
  let _, eng = Cilk.exec ~record:true diamond in
  let dag = Trace.dag (Trace.of_engine eng) in
  let reach = Dag.closure dag in
  (* find the two children's first strands by frame id *)
  let first_of_frame f =
    let rec go i = if (Dag.strand dag i).Dag.frame = f then i else go (i + 1) in
    go 0
  in
  let c1 = first_of_frame 1 and c2 = first_of_frame 2 in
  checkb "children parallel" true (Dag.parallel reach c1 c2)

let test_performance_dag_reduce_strands () =
  let program ctx =
    let r = Rmonoid.new_int_add ctx ~init:0 in
    Cilk.parallel_for ctx ~lo:0 ~hi:8 (fun ctx _ -> Rmonoid.add ctx r 1);
    Cilk.sync ctx;
    Rmonoid.int_cell_value ctx r
  in
  let _, eng = Cilk.exec ~spec:(Steal_spec.all ()) ~record:true program in
  let dag = Trace.dag (Trace.of_engine eng) in
  let kinds = Hashtbl.create 4 in
  for i = 0 to Dag.n_strands dag - 1 do
    let k = (Dag.strand dag i).Dag.kind in
    Hashtbl.replace kinds k (1 + try Hashtbl.find kinds k with Not_found -> 0)
  done;
  checkb "has reduce strands" true (Hashtbl.mem kinds Dag.Reduce);
  checkb "has update strands" true (Hashtbl.mem kinds Dag.Update);
  checkb "has identity strands" true (Hashtbl.mem kinds Dag.Identity);
  check "reduce strands = reduce calls"
    (Engine.stats eng).Engine.n_reduce_calls
    (Hashtbl.find kinds Dag.Reduce);
  (* merges recorded, timestamps nondecreasing *)
  let merge_at = (Trace.of_engine eng).Trace.merge_at in
  checkb "merges logged" true (Array.length merge_at > 0);
  let sorted = ref true in
  Array.iteri (fun i at -> if i > 0 && merge_at.(i - 1) > at then sorted := false) merge_at;
  checkb "merge log ordered" true !sorted

let test_spawn_log () =
  let _, eng = Cilk.exec ~record:true diamond in
  let tr = Trace.of_engine eng in
  check "two spawns logged" 2 (Array.length tr.Trace.spawn_frame);
  let reach = Dag.closure (Trace.dag tr) in
  Array.iteri
    (fun i sp_strand ->
      checkb "spawn precedes continuation" true
        (Dag.precedes reach sp_strand tr.Trace.spawn_cont.(i)))
    tr.Trace.spawn_strand

let test_access_log () =
  let _, eng =
    Cilk.exec ~record:true (fun ctx ->
        let c = Cell.make_in ctx 0 in
        Cell.write ctx c 1;
        ignore (Cell.read ctx c))
  in
  let tr = Trace.of_engine eng in
  match Array.length tr.Trace.acc_loc with
  | 2 ->
      checkb "write first" true tr.Trace.acc_write.(0);
      checkb "read second" false tr.Trace.acc_write.(1);
      check "same loc" tr.Trace.acc_loc.(0) tr.Trace.acc_loc.(1);
      checkb "view oblivious" false
        (tr.Trace.acc_view_aware.(0) || tr.Trace.acc_view_aware.(1))
  | n -> Alcotest.failf "expected 2 accesses, got %d" n

let test_view_aware_accesses_flagged () =
  let _, eng =
    Cilk.exec ~record:true (fun ctx ->
        let r = Rmonoid.new_int_add ctx ~init:0 in
        Rmonoid.add ctx r 1)
  in
  checkb "update accesses are view-aware" true
    (Array.exists Fun.id (Trace.of_engine eng).Trace.acc_view_aware)

(* ---------- Steal_spec unit behaviour ---------- *)

let test_spec_merge_clamping () =
  let spec =
    Steal_spec.at_local_indices ~policy:(Steal_spec.Reduce_schedule (fun _ -> 99)) [ 1 ]
  in
  check "clamped" 2 (Steal_spec.merges_before_steal spec ~steal_ordinal:1 ~n_open:3);
  check "zero floor" 0
    (Steal_spec.merges_before_steal
       (Steal_spec.at_local_indices
          ~policy:(Steal_spec.Reduce_schedule (fun _ -> -5))
          [ 1 ])
       ~steal_ordinal:1 ~n_open:3);
  check "eager merges all" 3
    (Steal_spec.merges_before_steal (Steal_spec.all ()) ~steal_ordinal:2 ~n_open:4);
  check "at-sync holds" 0
    (Steal_spec.merges_before_steal
       (Steal_spec.all ~policy:Steal_spec.Reduce_at_sync ())
       ~steal_ordinal:2 ~n_open:4)

let test_spec_random_stable () =
  let spec = Steal_spec.random ~seed:3 ~density:0.5 () in
  let info i =
    { Steal_spec.spawn_index = i; frame = 0; depth = 0; local_index = 1; sync_block = 0 }
  in
  let a = List.init 50 (fun i -> spec.Steal_spec.steal (info i)) in
  let b = List.init 50 (fun i -> spec.Steal_spec.steal (info i)) in
  checkb "stateless decisions" true (a = b);
  checkb "mixed decisions" true (List.mem true a && List.mem false a)

(* [parse] reads untrusted request fields, so it must never raise: any
   spec string with any density — NaN, infinities, negatives, above 1 —
   gives [Ok] or [Error], and [random] is accepted exactly for densities
   in [0, 1]. *)
let prop_spec_parse_total =
  let open QCheck2 in
  let density =
    Gen.oneof
      [
        Gen.oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 1.0 ];
        Gen.float;
        Gen.float_range (-2.0) 2.0;
      ]
  in
  let spec = Gen.oneof [ Gen.oneofl [ "random"; "none"; "all"; "1,2" ]; Gen.string ] in
  Test.make ~name:"Steal_spec.parse is total" ~count:1000
    ~print:(fun (s, p) -> Printf.sprintf "%S density %h" s p)
    (Gen.pair spec density)
    (fun (s, density) ->
      match Steal_spec.parse ~seed:1 ~density s with
      | Ok _ -> s <> "random" || (density >= 0.0 && density <= 1.0)
      | Error _ -> s <> "random" || not (density >= 0.0 && density <= 1.0)
      | exception e -> Test.fail_reportf "raised %s" (Printexc.to_string e))

(* ---------- Tools ---------- *)

module Tools = Rader_testkit.Tools

(* A small program exercising every event class — spawns, syncs, cell
   accesses, reducer updates and reads, and (under [tool_spec]) steals
   with eager reduces — with one determinacy race (on [c]) and one
   view-read race (the read of [r] before the final sync). *)
let tool_prog ctx =
  let eng = Engine.engine ctx in
  let r = Rmonoid.new_int_add ctx ~init:0 in
  let c = Cell.make eng ~label:"c" 0 in
  Cilk.parallel_for ctx ~lo:0 ~hi:8 (fun ctx i ->
      Rmonoid.add ctx r i;
      Cell.write ctx c (Cell.read ctx c + 1));
  ignore (Cilk.spawn ctx (fun ctx -> Rmonoid.add ctx r 1));
  let seen = Rmonoid.int_cell_value ctx r in
  Cilk.sync ctx;
  seen + Rmonoid.int_cell_value ctx r + Cell.read ctx c

let tool_spec () =
  Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ 1 ]

type detector = Sp of Sp_plus.t | Peer of Peer_set.t

let detector_tool = function Sp d -> Sp_plus.tool d | Peer d -> Peer_set.tool d

let detector_races = function
  | Sp d -> List.map Report.to_string (Sp_plus.races d)
  | Peer d -> List.map Report.to_string (Peer_set.races d)

let make_detector ?reach eng = function
  | `Sp -> Sp (Sp_plus.create ?reach eng)
  | `Peer -> Peer (Peer_set.create ?reach eng)

(* Run [tool_prog] with [make eng] as the engine's one tool; the value and
   the recorder's event stream. *)
let tool_run make =
  let log = ref [] in
  let eng = Engine.create ~spec:(tool_spec ()) () in
  Engine.set_tool eng (make eng (Tools.recorder (fun s -> log := s :: !log)));
  let v = Engine.run eng tool_prog in
  (v, List.rev !log)

(* An engine runs one tool, so a second observer shares one record with
   a detector's, as the chaos harness does with its fault injector.
   Composed that way, neither side changes: the detector reports what it
   reports installed directly, and the observer sees the same events, in
   the same order, as when it runs alone. *)
let test_tool_composition () =
  let v0, alone = tool_run (fun _ recorder -> recorder) in
  let has prefix =
    List.exists
      (fun s ->
        String.length s >= String.length prefix
        && String.sub s 0 (String.length prefix) = prefix)
      alone
  in
  checkb "stream covers steals" true (has "steal");
  checkb "stream covers reduces" true (has "reduce");
  checkb "stream covers reducer reads" true (has "rread");
  List.iter
    (fun kind ->
      let direct = ref None and composed = ref None in
      let v1, _ =
        tool_run (fun eng _ ->
            let d = make_detector eng kind in
            direct := Some d;
            detector_tool d)
      in
      let v2, stream =
        tool_run (fun eng recorder ->
            let d = make_detector eng kind in
            composed := Some d;
            Tools.seq (detector_tool d) recorder)
      in
      let direct = detector_races (Option.get !direct)
      and composed = detector_races (Option.get !composed) in
      check "value (direct)" v0 v1;
      check "value (composed)" v0 v2;
      checkb "detector finds a race" true (direct <> []);
      Alcotest.(check (list string)) "composed detector = direct" direct composed;
      Alcotest.(check (list string)) "composed observer = alone" alone stream)
    [ `Sp; `Peer ]

(* A detector builds its record once, at [create]: [tool d] is that one
   record before and after a run and a [reset], so recycling an engine
   and detector per spec with [Engine.reset ~tool:(tool d)] installs the
   same record each time instead of building a new one. *)
let test_records_built_once () =
  List.iter
    (fun kind ->
      let eng = Engine.create ~spec:(tool_spec ()) () in
      let d = make_detector eng kind in
      let t0 = detector_tool d in
      checkb "same record" true (detector_tool d == t0);
      Engine.set_tool eng t0;
      ignore (Engine.run eng tool_prog);
      let first = detector_races d in
      checkb "detector finds a race" true (first <> []);
      (match d with Sp d -> Sp_plus.reset d | Peer d -> Peer_set.reset d);
      checkb "same record after reset" true (detector_tool d == t0);
      Engine.reset ~tool:(detector_tool d) ~spec:(tool_spec ()) eng;
      ignore (Engine.run eng tool_prog);
      Alcotest.(check (list string)) "recycled = first run" first
        (detector_races d))
    [ `Sp; `Peer ]

(* An engine runs one tool. A second attach would leave the first
   detector installed in name only, deaf to every event, so it raises,
   and the first keeps its engine. *)
let test_second_tool_rejected () =
  let eng = Engine.create ~spec:(tool_spec ()) () in
  let sp = Sp_plus.attach eng in
  (match Peer_set.attach eng with
  | _ -> Alcotest.fail "a second tool was installed over SP+"
  | exception Engine.Cilk_error _ -> ());
  ignore (Engine.run eng tool_prog);
  checkb "SP+ still sees the run" true (Sp_plus.races sp <> [])

module G = Rader_testkit.Gen_program
module Obs = Rader_obs.Obs

(* Steal specifications for the generated-program properties below:
   serial, every continuation stolen (eager and at-sync reduces),
   Bernoulli, and explicit local indices. *)
let tool_specs =
  [
    Steal_spec.none;
    Steal_spec.all ();
    Steal_spec.all ~policy:Steal_spec.Reduce_at_sync ();
    Steal_spec.random ~seed:11 ~density:0.4 ();
    Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ 1; 2 ];
  ]

(* A detector reads a race's label and strand from its engine when it
   reports the race, inside the callback of the access that exposed it,
   and the engine delivers each access as it accepts it. So every report
   names an access the recorded trace holds: an SP+ report the location,
   frame, strand, kind and view-awareness of a recorded access, a
   Peer-Set report the reducer and strand of a recorded reducer-read. An
   access delivered late, after the next strand began, would name the
   wrong strand. *)
let prop_reports_name_recorded_accesses =
  QCheck2.Test.make ~name:"reports name a recorded access" ~count:200
    ~print:G.print
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      let recorded_run spec attach =
        let eng = Engine.create ~spec ~record:true () in
        let d = attach eng in
        ignore (Engine.run eng (G.interpret p));
        (d, Trace.of_engine eng)
      in
      List.for_all
        (fun spec ->
          let sp, sp_tr = recorded_run spec (fun eng -> Sp_plus.attach eng) in
          let peer, peer_tr =
            recorded_run spec (fun eng -> Peer_set.attach eng)
          in
          let names_access (r : Report.t) =
            r.subject_label = Trace.loc_label sp_tr r.subject
            && List.exists
                 (fun a ->
                   sp_tr.acc_loc.(a) = r.subject
                   && sp_tr.acc_frame.(a) = r.second_frame
                   && sp_tr.acc_strand.(a) = r.second_strand
                   && sp_tr.acc_write.(a) = (r.second_access = Report.Write)
                   && sp_tr.acc_view_aware.(a) = r.second_view_aware)
                 (List.init (Array.length sp_tr.acc_loc) Fun.id)
          in
          let names_read (r : Report.t) =
            List.exists
              (fun i ->
                peer_tr.rread_reducer.(i) = r.subject
                && peer_tr.rread_strand.(i) = r.second_strand)
              (List.init (Array.length peer_tr.rread_reducer) Fun.id)
          in
          let unmatched found races =
            match List.find_opt (fun r -> not (found r)) races with
            | Some r ->
                QCheck2.Test.fail_reportf "%s: no recorded access for %s"
                  spec.Steal_spec.name (Report.to_string r)
            | None -> true
          in
          unmatched names_access (Sp_plus.races sp)
          && unmatched names_read (Peer_set.races peer))
        tool_specs)

(* One recorded run of [p] under [spec] with [tool eng] installed: the
   value, the engine counters, the tape and the Obs operation totals. *)
let observed_run ~spec p tool =
  let eng = Engine.create ~spec ~record:true () in
  Engine.set_tool eng (tool eng);
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let before = Obs.snapshot () in
      let result = Engine.run eng (G.interpret p) in
      ( result,
        Engine.stats eng,
        Engine.tape eng,
        Obs.to_assoc (Obs.since before) ))

(* [test_tool_composition] over generated programs: with a recorder after
   the detector in one record, the value, the engine counters, the tape,
   the detector's reports and racy locations and its Obs operation totals
   are those of the detector installed alone, and the recorder sees the
   stream it sees alone. For SP+ under both reachability backends and
   for Peer-Set: the detectors do the same work, not only reach the same
   verdicts. *)
let prop_composed_observer_changes_nothing =
  QCheck2.Test.make ~name:"a composed observer changes no detector" ~count:100
    ~print:G.print
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      List.for_all
        (fun spec ->
          let log = ref [] in
          let push s = log := s :: !log in
          let stream () =
            let s = List.rev !log in
            log := [];
            s
          in
          ignore (observed_run ~spec p (fun _ -> Tools.recorder push));
          let alone = stream () in
          List.for_all
            (fun (name, kind, reach) ->
              let ctxt = Printf.sprintf "%s, %s" spec.Steal_spec.name name in
              let run compose =
                let d = ref None in
                let obs =
                  observed_run ~spec p (fun eng ->
                      let det = make_detector ~reach eng kind in
                      d := Some det;
                      if compose then
                        Tools.seq (detector_tool det) (Tools.recorder push)
                      else detector_tool det)
                in
                let d = Option.get !d in
                let racy =
                  match d with Sp d -> Sp_plus.racy_locs d | Peer _ -> []
                in
                (obs, detector_races d, racy)
              in
              let (r1, s1, t1, o1), reports1, racy1 = run false in
              let (r2, s2, t2, o2), reports2, racy2 = run true in
              let composed = stream () in
              if r1 <> r2 || s1 <> s2 || t1 <> t2 then
                QCheck2.Test.fail_reportf "%s: value, counters or tape differ"
                  ctxt
              else if reports1 <> reports2 || racy1 <> racy2 then
                QCheck2.Test.fail_reportf
                  "%s: reports differ:\n%s\n-- vs --\n%s" ctxt
                  (String.concat "\n" reports1)
                  (String.concat "\n" reports2)
              else if o1 <> o2 then
                QCheck2.Test.fail_reportf "%s: Obs totals differ" ctxt
              else if composed <> alone then
                QCheck2.Test.fail_reportf "%s: the recorder's stream differs"
                  ctxt
              else true)
            [
              ("SP+ dset", `Sp, Rader_reach.Reach.Dset);
              ("SP+ depa", `Sp, Rader_reach.Reach.Depa);
              ("Peer-Set", `Peer, Rader_reach.Reach.Dset);
            ])
        tool_specs)

let () =
  Alcotest.run "runtime"
    [
      ( "dsl",
        [
          Alcotest.test_case "spawn/sync/get" `Quick test_spawn_sync_get;
          Alcotest.test_case "call" `Quick test_call_returns_directly;
          Alcotest.test_case "nested" `Quick test_nested_spawns;
          Alcotest.test_case "get before sync" `Quick test_get_before_sync_raises;
          Alcotest.test_case "get wrong frame" `Quick test_get_wrong_frame_raises;
          Alcotest.test_case "get after later sync" `Quick test_get_after_later_sync_ok;
          Alcotest.test_case "implicit sync" `Quick test_implicit_sync_at_return;
          Alcotest.test_case "parallel_for" `Quick test_parallel_for_sum;
          Alcotest.test_case "parallel_for edge" `Quick test_parallel_for_empty_and_grain;
          Alcotest.test_case "single use" `Quick test_engine_single_use;
          Alcotest.test_case "ctx escape" `Quick test_ctx_escape_detected;
          Alcotest.test_case "ctx escape: parent spawn in child" `Quick
            test_parent_ctx_spawn_in_child;
          Alcotest.test_case "ctx escape: parent sync in child" `Quick
            test_parent_ctx_sync_in_child;
          Alcotest.test_case "ctx escape: parent Cell.read in child" `Quick
            test_parent_ctx_read_in_child;
          Alcotest.test_case "ctx escape: parent Rmonoid.add in child" `Quick
            test_parent_ctx_reducer_in_child;
        ] );
      ( "view-aware discipline",
        [
          Alcotest.test_case "no spawn in update" `Quick test_no_spawn_in_update;
          Alcotest.test_case "no sync in update" `Quick test_no_sync_in_update;
          Alcotest.test_case "no reducer read in update" `Quick
            test_no_reducer_read_in_update;
        ] );
      ( "regions",
        [
          Alcotest.test_case "no steals" `Quick test_regions_no_steals;
          Alcotest.test_case "steal and restore" `Quick test_regions_steal_and_restore;
          Alcotest.test_case "steal counts" `Quick test_steal_counts;
          Alcotest.test_case "no spurious reduces" `Quick test_reduce_only_when_views_exist;
          Alcotest.test_case "lazy identity" `Quick test_identity_created_lazily;
        ] );
      ( "reducers",
        [
          Alcotest.test_case "deterministic across specs" `Quick
            test_reducer_value_deterministic_across_specs;
          Alcotest.test_case "mylist order across specs" `Quick
            test_mylist_order_preserved_across_specs;
          Alcotest.test_case "single view after sync" `Quick test_single_view_after_sync;
          Alcotest.test_case "set_value" `Quick test_set_value_resets;
          Alcotest.test_case "ostream order" `Quick test_ostream_order;
          Alcotest.test_case "min/max" `Quick test_min_max_reducers;
        ] );
      ( "mylist",
        [
          Alcotest.test_case "ops" `Quick test_mylist_ops;
          Alcotest.test_case "concat empties" `Quick test_mylist_concat_empty_cases;
        ] );
      ( "rvec",
        [
          Alcotest.test_case "basic" `Quick test_rvec_basic;
          Alcotest.test_case "reducer across specs" `Quick test_rvec_reducer_across_specs;
          Alcotest.test_case "instrumented" `Quick test_rvec_accesses_instrumented;
        ] );
      ( "rhashtbl",
        [
          Alcotest.test_case "basic" `Quick test_rhashtbl_basic;
          Alcotest.test_case "reducer across specs" `Quick
            test_rhashtbl_reducer_across_specs;
        ] );
      ( "memory",
        [
          Alcotest.test_case "cell/rarray" `Quick test_cell_rarray_basic;
          Alcotest.test_case "labels" `Quick test_loc_labels;
          Alcotest.test_case "peek/poke untracked" `Quick test_peek_poke_untracked;
        ] );
      ( "recording",
        [
          Alcotest.test_case "dag structure" `Quick test_dag_recorded_structure;
          Alcotest.test_case "children parallel" `Quick test_dag_children_parallel;
          Alcotest.test_case "performance dag" `Quick test_performance_dag_reduce_strands;
          Alcotest.test_case "spawn log" `Quick test_spawn_log;
          Alcotest.test_case "access log" `Quick test_access_log;
          Alcotest.test_case "view-aware flags" `Quick test_view_aware_accesses_flagged;
        ] );
      ( "steal_spec",
        [
          Alcotest.test_case "merge clamping" `Quick test_spec_merge_clamping;
          Alcotest.test_case "random stable" `Quick test_spec_random_stable;
          QCheck_alcotest.to_alcotest prop_spec_parse_total;
        ] );
      ( "tool",
        [
          Alcotest.test_case "tool composition" `Quick test_tool_composition;
          Alcotest.test_case "detector records built once" `Quick
            test_records_built_once;
          Alcotest.test_case "a second tool is rejected" `Quick
            test_second_tool_rejected;
          QCheck_alcotest.to_alcotest prop_reports_name_recorded_accesses;
          QCheck_alcotest.to_alcotest prop_composed_observer_changes_nothing;
        ] );
    ]
