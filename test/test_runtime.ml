(* Tests for the Cilk engine: DSL semantics, Cilk-discipline enforcement,
   region/view management under steal specifications, reducers, dag
   recording, and the instrumented memory primitives. *)

open Rader_runtime
module Dag = Rader_dag.Dag
module Reach = Rader_dag.Reach

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
  let dag = Option.get (Engine.dag eng) in
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
  let reach = Reach.compute dag in
  checkb "source precedes all" true
    (List.for_all
       (fun i -> Reach.precedes reach 0 i)
       (List.init (n - 1) (fun i -> i + 1)))

let test_dag_children_parallel () =
  let _, eng = Cilk.exec ~record:true diamond in
  let dag = Option.get (Engine.dag eng) in
  let reach = Reach.compute dag in
  (* find the two children's first strands by frame id *)
  let first_of_frame f =
    let rec go i = if (Dag.strand dag i).Dag.frame = f then i else go (i + 1) in
    go 0
  in
  let c1 = first_of_frame 1 and c2 = first_of_frame 2 in
  checkb "children parallel" true (Reach.parallel reach c1 c2)

let test_performance_dag_reduce_strands () =
  let program ctx =
    let r = Rmonoid.new_int_add ctx ~init:0 in
    Cilk.parallel_for ctx ~lo:0 ~hi:8 (fun ctx _ -> Rmonoid.add ctx r 1);
    Cilk.sync ctx;
    Rmonoid.int_cell_value ctx r
  in
  let _, eng = Cilk.exec ~spec:(Steal_spec.all ()) ~record:true program in
  let dag = Option.get (Engine.dag eng) in
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
  let merges = Engine.merges eng in
  checkb "merges logged" true (List.length merges > 0);
  let rec sorted = function
    | a :: (b :: _ as tl) -> a.Engine.m_at <= b.Engine.m_at && sorted tl
    | _ -> true
  in
  checkb "merge log ordered" true (sorted merges)

let test_spawn_log () =
  let _, eng = Cilk.exec ~record:true diamond in
  let log = Engine.spawn_log eng in
  check "two spawns logged" 2 (List.length log);
  let dag = Option.get (Engine.dag eng) in
  let reach = Reach.compute dag in
  List.iter
    (fun (_, spawn_strand, cont_strand) ->
      checkb "spawn precedes continuation" true
        (Reach.precedes reach spawn_strand cont_strand))
    log

let test_access_log () =
  let _, eng =
    Cilk.exec ~record:true (fun ctx ->
        let c = Cell.make_in ctx 0 in
        Cell.write ctx c 1;
        ignore (Cell.read ctx c))
  in
  match Engine.accesses eng with
  | [ w; r ] ->
      checkb "write first" true w.Engine.a_is_write;
      checkb "read second" false r.Engine.a_is_write;
      check "same loc" w.Engine.a_loc r.Engine.a_loc;
      checkb "view oblivious" false (w.Engine.a_view_aware || r.Engine.a_view_aware)
  | l -> Alcotest.failf "expected 2 accesses, got %d" (List.length l)

let test_view_aware_accesses_flagged () =
  let _, eng =
    Cilk.exec ~record:true (fun ctx ->
        let r = Rmonoid.new_int_add ctx ~init:0 in
        Rmonoid.add ctx r 1)
  in
  checkb "update accesses are view-aware" true
    (List.exists (fun a -> a.Engine.a_view_aware) (Engine.accesses eng))

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

(* ---------- Tools ---------- *)

let recording_hooks push =
  {
    Tool.on_frame_enter =
      (fun ~frame ~parent ~spawned ~kind ->
        push
          (Printf.sprintf "enter %d %d %b %s" frame parent spawned
             (Tool.frame_kind_name kind)));
    on_frame_return =
      (fun ~frame ~parent ~spawned ~kind ->
        push
          (Printf.sprintf "return %d %d %b %s" frame parent spawned
             (Tool.frame_kind_name kind)));
    on_sync = (fun ~frame -> push (Printf.sprintf "sync %d" frame));
    on_steal =
      (fun ~frame ~region -> push (Printf.sprintf "steal %d %d" frame region));
    on_reduce =
      (fun ~frame ~into_region ~from_region ->
        push (Printf.sprintf "reduce %d %d %d" frame into_region from_region));
    on_read =
      (fun ~frame ~loc ~view_aware ->
        push (Printf.sprintf "read %d %d %b" frame loc view_aware));
    on_write =
      (fun ~frame ~loc ~view_aware ->
        push (Printf.sprintf "write %d %d %b" frame loc view_aware));
    on_reducer_read =
      (fun ~frame ~reducer -> push (Printf.sprintf "rread %d %d" frame reducer));
  }

(* Every hook of [a], then the same hook of [b]. *)
let seq_hooks a b =
  {
    Tool.on_frame_enter =
      (fun ~frame ~parent ~spawned ~kind ->
        a.Tool.on_frame_enter ~frame ~parent ~spawned ~kind;
        b.Tool.on_frame_enter ~frame ~parent ~spawned ~kind);
    on_frame_return =
      (fun ~frame ~parent ~spawned ~kind ->
        a.Tool.on_frame_return ~frame ~parent ~spawned ~kind;
        b.Tool.on_frame_return ~frame ~parent ~spawned ~kind);
    on_sync =
      (fun ~frame ->
        a.Tool.on_sync ~frame;
        b.Tool.on_sync ~frame);
    on_steal =
      (fun ~frame ~region ->
        a.Tool.on_steal ~frame ~region;
        b.Tool.on_steal ~frame ~region);
    on_reduce =
      (fun ~frame ~into_region ~from_region ->
        a.Tool.on_reduce ~frame ~into_region ~from_region;
        b.Tool.on_reduce ~frame ~into_region ~from_region);
    on_read =
      (fun ~frame ~loc ~view_aware ->
        a.Tool.on_read ~frame ~loc ~view_aware;
        b.Tool.on_read ~frame ~loc ~view_aware);
    on_write =
      (fun ~frame ~loc ~view_aware ->
        a.Tool.on_write ~frame ~loc ~view_aware;
        b.Tool.on_write ~frame ~loc ~view_aware);
    on_reducer_read =
      (fun ~frame ~reducer ->
        a.Tool.on_reducer_read ~frame ~reducer;
        b.Tool.on_reducer_read ~frame ~reducer);
  }

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

type detector = Sp of Sp_hot.t | Peer of Peer_hot.t

let detector_tool = function Sp d -> Tool.sp_plus d | Peer d -> Tool.peer_set d

let detector_races = function
  | Sp d -> List.map Report.to_string (Sp_hot.races d)
  | Peer d -> List.map Report.to_string (Peer_hot.races d)

let make_detector eng = function
  | `Sp ->
      Sp (Sp_hot.create ~label:(Engine.loc_label eng)
            ~strand:(fun () -> Engine.current_strand eng) ())
  | `Peer -> Peer (Peer_hot.create ~strand:(fun () -> Engine.current_strand eng) ())

(* Run [tool_prog] with [make eng] as the engine's one tool; the value and
   the recorder's event stream. *)
let tool_run make =
  let log = ref [] in
  let eng = Engine.create ~spec:(tool_spec ()) () in
  Engine.set_tool eng (make eng (recording_hooks (fun s -> log := s :: !log)));
  let v = Engine.run eng tool_prog in
  (v, List.rev !log)

(* An engine runs one tool, so a second observer shares one [Extern]
   record with a detector's [Tool.hooks_of], as the chaos harness does
   with its fault injector. Composed that way, neither side changes: the
   detector reports what it reports installed directly, and the observer
   sees the same events, in the same order, as when it runs alone. *)
let test_extern_composition () =
  let v0, alone = tool_run (fun _ rec_hooks -> Tool.extern rec_hooks) in
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
        tool_run (fun eng rec_hooks ->
            let d = make_detector eng kind in
            composed := Some d;
            Tool.extern (seq_hooks (Tool.hooks_of (detector_tool d)) rec_hooks))
      in
      let direct = detector_races (Option.get !direct)
      and composed = detector_races (Option.get !composed) in
      check "value (direct)" v0 v1;
      check "value (composed)" v0 v2;
      checkb "detector finds a race" true (direct <> []);
      Alcotest.(check (list string)) "composed detector = direct" direct composed;
      Alcotest.(check (list string)) "composed observer = alone" alone stream)
    [ `Sp; `Peer ]

(* Detector cores name a race's location and strand through the closures
   given to [create]. Reports are cold: both closures are read only when
   a race is reported, so a race-free run never calls them, and a report
   carries exactly what they returned. *)
let test_report_closures_cold () =
  let labels = ref 0 and strands = ref 0 in
  let label loc =
    incr labels;
    Printf.sprintf "loc-%d" loc
  in
  let strand () =
    incr strands;
    -7
  in
  let run tool prog =
    let eng = Engine.create ~tool ~spec:(Steal_spec.all ()) () in
    ignore (Engine.run eng prog)
  in
  let clean ctx =
    let eng = Engine.engine ctx in
    let r = Rmonoid.new_int_add ctx ~init:0 in
    let a = Rarray.make eng ~label:"a" 16 0 in
    Cilk.parallel_for ctx ~lo:0 ~hi:16 (fun ctx i ->
        Rmonoid.add ctx r i;
        Rarray.write ctx a i (Rarray.read ctx a i + i));
    Cilk.sync ctx;
    Rmonoid.int_cell_value ctx r
  in
  List.iter
    (fun (name, prog) ->
      labels := 0;
      strands := 0;
      let sp = Sp_hot.create ~label ~strand () in
      run (Tool.sp_plus sp) prog;
      let sp_races = Sp_hot.races sp in
      let sp_labels = !labels and sp_strands = !strands in
      strands := 0;
      let peer = Peer_hot.create ~strand () in
      run (Tool.peer_set peer) prog;
      let peer_races = Peer_hot.races peer in
      let peer_strands = !strands in
      if name = "clean" then begin
        check "clean: no SP+ race" 0 (List.length sp_races);
        check "clean: no Peer-Set race" 0 (List.length peer_races);
        check "clean: SP+ never reads label" 0 sp_labels;
        check "clean: SP+ never reads strand" 0 sp_strands;
        check "clean: Peer-Set never reads strand" 0 peer_strands
      end
      else begin
        checkb "racy: SP+ reports" true (sp_races <> []);
        checkb "racy: Peer-Set reports" true (peer_races <> []);
        checkb "racy: SP+ read label" true (sp_labels >= List.length sp_races);
        checkb "racy: SP+ read strand" true (sp_strands >= List.length sp_races);
        checkb "racy: Peer-Set read strand" true
          (peer_strands >= List.length peer_races);
        List.iter
          (fun r ->
            Alcotest.(check string) "label from closure"
              (Printf.sprintf "loc-%d" r.Report.subject)
              r.Report.subject_label;
            check "strand from closure" (-7) r.Report.second_strand)
          sp_races;
        List.iter
          (fun r -> check "strand from closure" (-7) r.Report.second_strand)
          peer_races
      end)
    [ ("clean", clean); ("racy", tool_prog) ]

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
        ] );
      ( "tool",
        [
          Alcotest.test_case "extern composition" `Quick test_extern_composition;
          Alcotest.test_case "report closures cold" `Quick
            test_report_closures_cold;
        ] );
    ]
