(* The two Reach backends must be observationally identical: same
   Serial/Parallel classification (including the surviving view id) after
   every event of any legal event sequence, and — end to end — the same
   verdicts from SP+ and Peer-Set on generated programs under arbitrary
   steal specifications. The event sequences come from the real engine
   replaying random programs, which guarantees legality (proper nesting,
   reduces before syncs, steals after spawned returns) while still
   exercising every event type. *)

open Rader_runtime
open Rader_core
module Reach = Rader_reach.Reach
module G = Rader_testkit.Gen_program
module Dynarr = Rader_support.Dynarr
module Obs = Rader_obs.Obs

let qtest ?(count = 150) name gen prop =
  QCheck2.Test.make ~name ~count ~print:G.print gen prop

(* programs paired with a steal spec: print only the program (specs are
   reproducible from the seed embedded in the generator). *)
let qtest_spec ?(count = 150) name gen prop =
  QCheck2.Test.make ~name ~count ~print:(fun (p, _) -> G.print p) gen prop

let gen_spec =
  let open QCheck2.Gen in
  let* seed = int_bound 10_000 in
  let* density = float_bound_inclusive 1.0 in
  let* policy =
    oneof
      [
        return Steal_spec.Reduce_eagerly;
        return Steal_spec.Reduce_at_sync;
        (let* modulus = int_range 1 3 in
         let* amount = int_range 1 2 in
         return
           (Steal_spec.Reduce_schedule (fun k -> if k mod modulus = 0 then amount else 0)));
      ]
  in
  return (Steal_spec.random ~policy ~seed ~density ())

let show_cls = function
  | Reach.Sp.Serial -> "S"
  | Reach.Sp.Parallel v -> Printf.sprintf "P(%d)" v

(* Drive both Sp backends from one engine run and compare the full
   classification map (every frame seen so far, against the current
   point) after every event. Every frame is noted as it enters, so every
   frame seen is classified; a frame never noted would classify [Serial]
   under both backends and check nothing. *)
let mirror_run p spec =
  let a = Reach.Sp.create Reach.Dset and b = Reach.Sp.create Reach.Depa in
  let seen = Dynarr.create () in
  let depth = ref 0 in
  let failure = ref None in
  let check ev =
    if !depth > 0 && !failure = None then begin
      let va = Reach.Sp.cur_view a and vb = Reach.Sp.cur_view b in
      if va <> vb then
        failure := Some (Printf.sprintf "%s: cur_view %d vs %d" ev va vb)
      else
        Dynarr.iter
          (fun f ->
            if !failure = None then begin
              let ca = Reach.Sp.classify a f and cb = Reach.Sp.classify b f in
              if ca <> cb then
                failure :=
                  Some
                    (Printf.sprintf "%s: classify %d: %s vs %s" ev f (show_cls ca)
                       (show_cls cb))
            end)
          seen
    end
  in
  let tool =
    {
      Tool.null with
      on_frame_enter =
        (fun ~frame ~parent:_ ~spawned:_ ~kind:_ ->
          Reach.Sp.on_frame_enter a ~frame;
          Reach.Sp.on_frame_enter b ~frame;
          Reach.Sp.note a ~frame;
          Reach.Sp.note b ~frame;
          Dynarr.push seen frame;
          incr depth;
          check "enter");
      on_frame_return =
        (fun ~frame ~parent:_ ~spawned ~kind ->
          let parallel = kind = Tool.Reduce_fn || spawned in
          ignore (Reach.Sp.on_frame_return a ~frame ~parallel);
          ignore (Reach.Sp.on_frame_return b ~frame ~parallel);
          decr depth;
          check "return");
      on_sync =
        (fun ~frame ->
          ignore (Reach.Sp.on_sync a ~frame);
          ignore (Reach.Sp.on_sync b ~frame);
          check "sync");
      on_steal =
        (fun ~frame ~region ->
          Reach.Sp.on_steal a ~frame ~region;
          Reach.Sp.on_steal b ~frame ~region;
          check "steal");
      on_reduce =
        (fun ~frame ~into_region:_ ~from_region:_ ->
          ignore (Reach.Sp.on_reduce a ~frame);
          ignore (Reach.Sp.on_reduce b ~frame);
          check "reduce");
    }
  in
  let eng = Engine.create ~spec () in
  Engine.set_tool eng tool;
  ignore (Engine.run eng (G.interpret p));
  !failure

let prop_sp_backends_agree =
  qtest_spec ~count:250 "Reach.Sp: dset = depa after every event"
    QCheck2.Gen.(pair (G.gen ~with_reducers:true ~racy:true) gen_spec)
    (fun (p, spec) ->
      match mirror_run p spec with
      | None -> true
      | Some msg -> QCheck2.Test.fail_reportf "backends disagree: %s" msg)

(* Generated programs stay a few levels deep with small fan-out, so their
   fingerprints fit one word. Synthetic event walks reach the multi-word
   layout: deep call chains, and bursts of empty children that push
   ordinals into the hundreds (13-bit codes), so codes spill into fresh
   words at every offset. With every frame noted as it enters, both
   backends must report the same changes and classify sampled frames
   identically throughout. *)
let synthetic_walk seed =
  let rng = Random.State.make [| seed |] in
  let a = Reach.Sp.create Reach.Dset and b = Reach.Sp.create Reach.Depa in
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  let both f = f a; f b in
  (* a structural hook: both backends must report the same change *)
  let hook name f = if f a <> f b then fail (name ^ ": change reports differ") in
  let next = ref 0 and live = ref [] and steals = ref [] and seen = Dynarr.create () in
  let enter () =
    let frame = !next in
    incr next;
    both (fun r ->
        Reach.Sp.on_frame_enter r ~frame;
        Reach.Sp.note r ~frame);
    live := frame :: !live;
    steals := 0 :: !steals;
    Dynarr.push seen frame
  in
  let reduce_all frame =
    for _ = 1 to List.hd !steals do
      hook "reduce" (fun r -> Reach.Sp.on_reduce r ~frame)
    done;
    steals := 0 :: List.tl !steals
  in
  let leave ~parallel =
    match !live with
    | frame :: rest ->
        reduce_all frame;
        hook "sync" (fun r -> Reach.Sp.on_sync r ~frame);
        hook "return" (fun r -> Reach.Sp.on_frame_return r ~frame ~parallel);
        live := rest;
        steals := List.tl !steals
    | [] -> ()
  in
  let check step =
    let n = Dynarr.length seen in
    for _ = 1 to 8 do
      let f = Dynarr.get seen (Random.State.int rng n) in
      let ca = Reach.Sp.classify a f and cb = Reach.Sp.classify b f in
      if ca <> cb then
        fail
          (Printf.sprintf "step %d, frame %d: %s vs %s" step f (show_cls ca)
             (show_cls cb))
    done
  in
  enter ();
  for step = 1 to 3000 do
    let depth = List.length !live in
    (match Random.State.int rng 10 with
    | 0 | 1 | 2 when depth < 60 -> enter ()
    | 3 when depth > 1 -> leave ~parallel:(Random.State.bool rng)
    | 4 ->
        (* a burst of empty children raises the next ordinal *)
        for _ = 1 to Random.State.int rng 80 do
          enter ();
          leave ~parallel:(Random.State.bool rng)
        done
    | 5 ->
        let frame = List.hd !live in
        both (fun r -> Reach.Sp.on_steal r ~frame ~region:step);
        steals := (List.hd !steals + 1) :: List.tl !steals
    | 6 when List.hd !steals > 0 ->
        let frame = List.hd !live in
        hook "reduce" (fun r -> Reach.Sp.on_reduce r ~frame);
        steals := (List.hd !steals - 1) :: List.tl !steals
    | 7 ->
        let frame = List.hd !live in
        reduce_all frame;
        hook "sync" (fun r -> Reach.Sp.on_sync r ~frame)
    | _ -> ());
    if Reach.Sp.cur_view a <> Reach.Sp.cur_view b then
      fail (Printf.sprintf "step %d: cur_view differs" step);
    check step
  done;
  !failure

let prop_sp_backends_agree_deep =
  QCheck2.Test.make ~name:"Reach.Sp: dset = depa on deep, wide walks" ~count:60
    ~print:string_of_int QCheck2.Gen.int
    (fun seed ->
      match synthetic_walk seed with
      | None -> true
      | Some msg -> QCheck2.Test.fail_reportf "backends disagree: %s" msg)

(* The same mirror noting as the SP+ hot path does: every accessing frame
   is noted, and only noted frames are compared.
   Each structural hook must also be exact: both backends report a change
   at the same events, and an event reported as no change (including
   every enter and steal) leaves every noted frame's classification as it
   was — the contract [Sp_plus]'s memo relies on. *)
let lazy_mirror_run p spec =
  let backends =
    Array.map Reach.Sp.create [| Reach.Dset; Reach.Depa |]
  in
  let noted = Hashtbl.create 16 and order = Dynarr.create () in
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  (* live frames: classification is defined while there is one *)
  let depth = ref 0 in
  let classes r =
    if !depth = 0 then []
    else Dynarr.fold_left (fun acc f -> Reach.Sp.classify r f :: acc) [] order
  in
  let show l = String.concat " " (List.rev_map show_cls l) in
  (* [ev] applies one event to a backend and says whether it reported a
     change ([false] for enter and steal, which must never move one) *)
  let structural name ev =
    let changed =
      Array.map
        (fun r ->
          let before = classes r in
          let c = ev r in
          let after = classes r in
          if (not c) && after <> before then
            fail
              (Printf.sprintf "%s (%s) reported no change: %s -> %s" name
                 (Reach.show (Reach.Sp.backend r)) (show before) (show after));
          c)
        backends
    in
    if changed.(0) <> changed.(1) then
      fail (Printf.sprintf "%s: dset reports %b, depa %b" name changed.(0) changed.(1));
    let ca = classes backends.(0) and cb = classes backends.(1) in
    if ca <> cb then fail (Printf.sprintf "%s: %s vs %s" name (show ca) (show cb));
    if !depth > 0 then begin
      let va = Reach.Sp.cur_view backends.(0) and vb = Reach.Sp.cur_view backends.(1) in
      if va <> vb then fail (Printf.sprintf "%s: cur_view %d vs %d" name va vb)
    end
  in
  let access ~frame =
    Array.iter (fun r -> Reach.Sp.note r ~frame) backends;
    if not (Hashtbl.mem noted frame) then begin
      Hashtbl.add noted frame ();
      Dynarr.push order frame
    end
  in
  let tool =
    {
      Tool.null with
      on_frame_enter =
        (fun ~frame ~parent:_ ~spawned:_ ~kind:_ ->
          incr depth;
          structural "enter" (fun r ->
              Reach.Sp.on_frame_enter r ~frame;
              false));
      on_frame_return =
        (fun ~frame ~parent:_ ~spawned ~kind ->
          let parallel = kind = Tool.Reduce_fn || spawned in
          if !depth > 1 then begin
            structural "return" (fun r -> Reach.Sp.on_frame_return r ~frame ~parallel);
            decr depth
          end
          else begin
            (* the root's: nothing is left to classify against *)
            depth := 0;
            Array.iter
              (fun r ->
                if Reach.Sp.on_frame_return r ~frame ~parallel then
                  fail "root return reported a change")
              backends
          end);
      on_sync = (fun ~frame -> structural "sync" (fun r -> Reach.Sp.on_sync r ~frame));
      on_steal =
        (fun ~frame ~region ->
          structural "steal" (fun r ->
              Reach.Sp.on_steal r ~frame ~region;
              false));
      on_reduce =
        (fun ~frame ~into_region:_ ~from_region:_ ->
          structural "reduce" (fun r -> Reach.Sp.on_reduce r ~frame));
      on_read = (fun ~frame ~loc:_ ~view_aware:_ -> access ~frame);
      on_write = (fun ~frame ~loc:_ ~view_aware:_ -> access ~frame);
    }
  in
  let eng = Engine.create ~spec () in
  Engine.set_tool eng tool;
  ignore (Engine.run eng (G.interpret p));
  !failure

let prop_sp_lazy_backends_agree =
  qtest_spec ~count:400 "Reach.Sp lazy: dset = depa, exact change reports"
    QCheck2.Gen.(pair (G.gen ~with_reducers:true ~racy:true) gen_spec)
    (fun (p, spec) ->
      List.for_all
        (fun spec ->
          match lazy_mirror_run p spec with
          | None -> true
          | Some msg -> QCheck2.Test.fail_reportf "lazy mirror: %s" msg)
        [ Steal_spec.none; spec ])

(* Exact change reporting end to end: [Sp_plus]'s classification memo
   misses, and so queries the backend, at the same accesses under both
   backends — depa's fingerprint queries equal dset's bag finds. *)
let sp_plus_queries reach p spec =
  let (), c =
    Obs.with_enabled (fun () ->
        let eng = Engine.create ~spec () in
        ignore (Sp_plus.attach ~reach eng);
        ignore (Engine.run eng (G.interpret p)))
  in
  match reach with Reach.Dset -> c.Obs.bag_finds | Reach.Depa -> c.Obs.reach_fp_queries

let prop_memo_parity =
  qtest_spec ~count:300 "SP+: depa fingerprint queries = dset bag finds"
    QCheck2.Gen.(pair (G.gen ~with_reducers:true ~racy:true) gen_spec)
    (fun (p, spec) ->
      List.for_all
        (fun spec ->
          let finds = sp_plus_queries Reach.Dset p spec
          and queries = sp_plus_queries Reach.Depa p spec in
          if finds <> queries then
            QCheck2.Test.fail_reportf "spec %s: %d bag finds vs %d fingerprint queries"
              spec.Steal_spec.name finds queries
          else true)
        [ Steal_spec.none; spec ])

(* End-to-end: SP+ verdicts (reports rendered to strings, racy loc sets)
   are byte-identical between backends, under the serial schedule and
   under generated steal specs. Together with the count below this is the
   >= 240 generated-program cross-check of the acceptance criteria. *)
let sp_plus_verdict reach p spec =
  let eng = Engine.create ~spec () in
  let d = Sp_plus.attach ~reach eng in
  ignore (Engine.run eng (G.interpret p));
  (List.map Report.to_string (Sp_plus.races d), Sp_plus.racy_locs d)

let prop_sp_plus_verdicts_identical =
  qtest_spec ~count:300 "SP+: dset and depa verdicts byte-identical"
    QCheck2.Gen.(pair (G.gen ~with_reducers:true ~racy:true) gen_spec)
    (fun (p, spec) ->
      List.for_all
        (fun spec ->
          let ra, la = sp_plus_verdict Reach.Dset p spec
          and rb, lb = sp_plus_verdict Reach.Depa p spec in
          if ra <> rb || la <> lb then
            QCheck2.Test.fail_reportf "SP+ verdicts differ:\n dset: %s\n depa: %s"
              (String.concat "; " ra) (String.concat "; " rb)
          else true)
        [ Steal_spec.none; spec ])

let peer_verdict reach p =
  let eng = Engine.create () in
  let d = Peer_set.attach ~reach eng in
  ignore (Engine.run eng (G.interpret p));
  List.map Report.to_string (Peer_set.races d)

let prop_peer_verdicts_identical =
  qtest ~count:300 "Peer-Set: dset and depa verdicts byte-identical"
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      let ra = peer_verdict Reach.Dset p and rb = peer_verdict Reach.Depa p in
      if ra <> rb then
        QCheck2.Test.fail_reportf "Peer-Set verdicts differ:\n dset: %s\n depa: %s"
          (String.concat "; " ra) (String.concat "; " rb)
      else true)

(* SP-order's English/Hebrew labels and SP+ on either Reach backend are
   independent precedence implementations. On reducer-free programs both
   are exact for determinacy races under any steal specification, so
   they must flag the same locations: those the recorded dag's oracle
   finds. *)
let sp_order_locs spec p =
  let eng = Engine.create ~record:true ~spec () in
  let d = Sp_order.attach eng in
  ignore (Engine.run eng (G.interpret p));
  ( List.sort_uniq compare (List.map (fun r -> r.Report.subject) (Sp_order.races d)),
    Oracle.determinacy_races eng )

let prop_sp_order_labels_agree =
  qtest_spec ~count:200 "SP-order labels = SP+ (both backends, no reducers)"
    QCheck2.Gen.(pair (G.gen ~with_reducers:false ~racy:true) gen_spec)
    (fun (p, spec) ->
      let show l = String.concat "," (List.map string_of_int l) in
      List.for_all
        (fun spec ->
          let labels, truth = sp_order_locs spec p in
          if labels <> truth then
            QCheck2.Test.fail_reportf "spec %s: SP-order {%s} vs oracle {%s}"
              spec.Steal_spec.name (show labels) (show truth);
          List.for_all
            (fun reach ->
              let _, got = sp_plus_verdict reach p spec in
              if got <> labels then
                QCheck2.Test.fail_reportf "spec %s: SP-order {%s} vs SP+ %s {%s}"
                  spec.Steal_spec.name (show labels) (Reach.show reach) (show got)
              else true)
            Reach.all)
        [ Steal_spec.none; spec ])

(* Detector reset must restore both backends to a pristine state: a
   reset replay yields the same verdicts as a fresh detector. *)
let prop_reset_equals_fresh =
  qtest_spec ~count:100 "Sp_plus reset = fresh (both backends)"
    QCheck2.Gen.(pair (G.gen ~with_reducers:true ~racy:true) gen_spec)
    (fun (p, spec) ->
      List.for_all
        (fun reach ->
          let eng = Engine.create ~spec () in
          let d = Sp_plus.attach ~reach eng in
          ignore (Engine.run eng (G.interpret p));
          let first = List.map Report.to_string (Sp_plus.races d) in
          Engine.reset ~tool:(Sp_plus.tool d) ~spec eng;
          Sp_plus.reset d;
          ignore (Engine.run eng (G.interpret p));
          let second = List.map Report.to_string (Sp_plus.races d) in
          first = second)
        [ Reach.Dset; Reach.Depa ])

(* ---------- the bags themselves ----------

   Everything above compares the backends with each other. Below, both
   are held to the bags they stand for: the S and P bags of SP-bags (plus
   SP+'s steal views) for [Reach.Sp], and Peer-Set's SS/SP/P bags for
   [Reach.Peer], first as hand-built event sequences, then against the
   bags kept as plain lists. Frames leave as the engine makes them leave:
   the implicit sync first. *)

let cls_t = Alcotest.testable (fun fmt c -> Format.pp_print_string fmt (show_cls c)) ( = )

let on_each_backend f () =
  List.iter (fun reach -> f (Reach.show reach) (Reach.Sp.create reach)) Reach.all

let sp_enter t frame = Reach.Sp.on_frame_enter t ~frame

let sp_leave t frame ~parallel =
  ignore (Reach.Sp.on_sync t ~frame);
  ignore (Reach.Sp.on_frame_return t ~frame ~parallel)

(* one noted child of the current frame, entered and left *)
let sp_child t frame ~parallel =
  sp_enter t frame;
  Reach.Sp.note t ~frame;
  sp_leave t frame ~parallel

let expect_cls name t frames want =
  List.iter
    (fun f ->
      Alcotest.check cls_t (Printf.sprintf "%s: frame %d" name f) want (Reach.Sp.classify t f))
    frames

let test_called_child_serial =
  on_each_backend (fun b t ->
      sp_enter t 0;
      sp_enter t 1;
      Reach.Sp.note t ~frame:1;
      expect_cls (b ^ " inside the child") t [ 1 ] Reach.Sp.Serial;
      sp_leave t 1 ~parallel:false;
      expect_cls (b ^ " after the call") t [ 1 ] Reach.Sp.Serial;
      Reach.Sp.note t ~frame:0;
      expect_cls (b ^ " the caller") t [ 0; 1 ] Reach.Sp.Serial)

let test_spawned_child_parallel_until_sync =
  on_each_backend (fun b t ->
      sp_enter t 0;
      sp_child t 1 ~parallel:true;
      Reach.Sp.note t ~frame:0;
      expect_cls (b ^ " before the sync") t [ 1 ] (Reach.Sp.Parallel 0);
      expect_cls (b ^ " the continuation") t [ 0 ] Reach.Sp.Serial;
      Alcotest.(check bool) (b ^ " sync moves a bag") true (Reach.Sp.on_sync t ~frame:0);
      expect_cls (b ^ " after the sync") t [ 0; 1 ] Reach.Sp.Serial)

(* A returning frame carries its whole S bag — its own id and every
   descendant it absorbed — and leaves unrelated frames where they are. *)
let test_unions_carry_subtrees =
  on_each_backend (fun b t ->
      sp_enter t 0;
      sp_enter t 1;
      Reach.Sp.note t ~frame:1;
      sp_child t 2 ~parallel:false;
      sp_child t 3 ~parallel:true;
      expect_cls (b ^ " called grandchild") t [ 1; 2 ] Reach.Sp.Serial;
      expect_cls (b ^ " spawned grandchild") t [ 3 ] (Reach.Sp.Parallel 0);
      sp_leave t 1 ~parallel:true;
      expect_cls (b ^ " the spawned subtree") t [ 1; 2; 3 ] (Reach.Sp.Parallel 0);
      sp_child t 4 ~parallel:false;
      expect_cls (b ^ " a later call") t [ 4 ] Reach.Sp.Serial;
      expect_cls (b ^ " the subtree stays") t [ 1; 2; 3 ] (Reach.Sp.Parallel 0);
      ignore (Reach.Sp.on_sync t ~frame:0);
      expect_cls (b ^ " after the sync") t [ 1; 2; 3; 4 ] Reach.Sp.Serial)

let test_unnoted_serial_note_idempotent =
  on_each_backend (fun b t ->
      sp_enter t 0;
      sp_enter t 1;
      Alcotest.(check bool)
        (b ^ " an un-noted child's return moves nothing")
        false
        (ignore (Reach.Sp.on_sync t ~frame:1);
         Reach.Sp.on_frame_return t ~frame:1 ~parallel:true);
      expect_cls (b ^ " never noted") t [ 1; 99 ] Reach.Sp.Serial;
      sp_enter t 2;
      Reach.Sp.note t ~frame:2;
      Reach.Sp.note t ~frame:2;
      sp_leave t 2 ~parallel:true;
      expect_cls (b ^ " noted twice") t [ 2 ] (Reach.Sp.Parallel 0);
      ignore (Reach.Sp.on_sync t ~frame:0);
      expect_cls (b ^ " noted twice, synced") t [ 2 ] Reach.Sp.Serial)

let test_sparse_frame_ids =
  on_each_backend (fun b t ->
      sp_enter t 100_000;
      sp_child t 5 ~parallel:true;
      sp_child t 70_000 ~parallel:false;
      expect_cls (b ^ " spawned") t [ 5 ] (Reach.Sp.Parallel 0);
      expect_cls (b ^ " called") t [ 70_000 ] Reach.Sp.Serial;
      expect_cls (b ^ " unseen") t [ 50; 1_000_000 ] Reach.Sp.Serial;
      ignore (Reach.Sp.on_sync t ~frame:100_000);
      expect_cls (b ^ " synced") t [ 5; 70_000 ] Reach.Sp.Serial)

(* Volume for the union-find: a 100k-deep chain of spawns, every frame
   noted, folded back up through 100k syncs and parallel returns, then
   100k spawned siblings. Finds are iterative and stacks grow, so all of
   it must finish and classify exactly. The deep chain runs on the dset
   backend only: a depa fingerprint at depth d is O(d) words to copy. *)
let test_volume_then_reset () =
  let n = 100_000 in
  let t = Reach.Sp.create Reach.Dset in
  let all_cls name want lo hi =
    for f = lo to hi do
      let c = Reach.Sp.classify t f in
      if c <> want then
        Alcotest.failf "%s: frame %d is %s, not %s" name f (show_cls c) (show_cls want)
    done
  in
  sp_enter t 0;
  for f = 1 to n do
    sp_enter t f;
    Reach.Sp.note t ~frame:f
  done;
  for f = n downto 1 do
    sp_leave t f ~parallel:true
  done;
  all_cls "the spawned chain" (Reach.Sp.Parallel 0) 1 n;
  ignore (Reach.Sp.on_sync t ~frame:0);
  all_cls "the chain after the sync" Reach.Sp.Serial 1 n;
  for f = n + 1 to 2 * n do
    sp_child t f ~parallel:true
  done;
  all_cls "the siblings" (Reach.Sp.Parallel 0) (n + 1) (2 * n);
  all_cls "the chain among the siblings" Reach.Sp.Serial 1 n;
  ignore (Reach.Sp.on_sync t ~frame:0);
  all_cls "everything synced" Reach.Sp.Serial 1 (2 * n);
  Reach.Sp.reset t;
  sp_enter t 0;
  expect_cls "forgotten by reset" t [ 1; n; 2 * n ] Reach.Sp.Serial;
  sp_child t 1 ~parallel:true;
  expect_cls "reusable after reset" t [ 1 ] (Reach.Sp.Parallel 0)

(* [on_frame_return], [on_sync] and [on_reduce] report a change exactly
   when the bag they union from is non-empty; the root's return moves
   nothing. *)
let test_change_reports_follow_bags =
  on_each_backend (fun b t ->
      let says name want got = Alcotest.(check bool) (b ^ " " ^ name) want got in
      sp_enter t 0;
      says "sync, empty P bag" false (Reach.Sp.on_sync t ~frame:0);
      sp_enter t 1;
      Reach.Sp.note t ~frame:1;
      says "child's sync, empty P bag" false (Reach.Sp.on_sync t ~frame:1);
      says "spawned return, S bag {1}" true
        (Reach.Sp.on_frame_return t ~frame:1 ~parallel:true);
      says "sync, P bag {1}" true (Reach.Sp.on_sync t ~frame:0);
      sp_enter t 2;
      Reach.Sp.note t ~frame:2;
      ignore (Reach.Sp.on_sync t ~frame:2);
      says "called return, S bag {2}" true
        (Reach.Sp.on_frame_return t ~frame:2 ~parallel:false);
      says "sync after a call only" false (Reach.Sp.on_sync t ~frame:0);
      Reach.Sp.on_steal t ~frame:0 ~region:1;
      says "reduce, empty stolen bag" false (Reach.Sp.on_reduce t ~frame:0);
      Reach.Sp.on_steal t ~frame:0 ~region:2;
      sp_child t 3 ~parallel:true;
      says "reduce, stolen bag {3}" true (Reach.Sp.on_reduce t ~frame:0);
      says "sync, P bag {3}" true (Reach.Sp.on_sync t ~frame:0);
      Reach.Sp.note t ~frame:0;
      says "root's return" false (Reach.Sp.on_frame_return t ~frame:0 ~parallel:false))

(* A sync empties the P bag and the next spawns refill it: each block's
   children are parallel only until their own block's sync. *)
let test_p_bag_refills_after_sync =
  on_each_backend (fun b t ->
      sp_enter t 0;
      sp_child t 1 ~parallel:true;
      sp_child t 2 ~parallel:true;
      ignore (Reach.Sp.on_sync t ~frame:0);
      sp_child t 3 ~parallel:true;
      expect_cls (b ^ " first block") t [ 1; 2 ] Reach.Sp.Serial;
      expect_cls (b ^ " second block") t [ 3 ] (Reach.Sp.Parallel 0);
      ignore (Reach.Sp.on_sync t ~frame:0);
      sp_child t 4 ~parallel:true;
      expect_cls (b ^ " two blocks back") t [ 1; 2; 3 ] Reach.Sp.Serial;
      expect_cls (b ^ " third block") t [ 4 ] (Reach.Sp.Parallel 0))

(* A steal opens a P bag carrying the stolen region's view; a reduce
   folds the top bag into the one below it, which keeps its own view. *)
let test_reduce_keeps_destination_view =
  on_each_backend (fun b t ->
      let view name want = Alcotest.(check int) (b ^ " " ^ name) want (Reach.Sp.cur_view t) in
      sp_enter t 0;
      view "entry view" 0;
      Reach.Sp.on_steal t ~frame:0 ~region:7;
      view "after a steal" 7;
      sp_child t 1 ~parallel:true;
      Reach.Sp.on_steal t ~frame:0 ~region:9;
      sp_child t 2 ~parallel:true;
      sp_child t 3 ~parallel:false;
      expect_cls (b ^ " stolen once") t [ 1 ] (Reach.Sp.Parallel 7);
      expect_cls (b ^ " stolen twice") t [ 2 ] (Reach.Sp.Parallel 9);
      expect_cls (b ^ " called") t [ 3 ] Reach.Sp.Serial;
      ignore (Reach.Sp.on_reduce t ~frame:0);
      view "after one reduce" 7;
      expect_cls (b ^ " folded into region 7") t [ 1; 2 ] (Reach.Sp.Parallel 7);
      ignore (Reach.Sp.on_reduce t ~frame:0);
      view "after both reduces" 0;
      expect_cls (b ^ " folded into the entry view") t [ 1; 2 ] (Reach.Sp.Parallel 0);
      ignore (Reach.Sp.on_sync t ~frame:0);
      expect_cls (b ^ " synced") t [ 1; 2; 3 ] Reach.Sp.Serial)

let on_each_peer f () =
  List.iter (fun reach -> f (Reach.show reach) (Reach.Peer.create reach)) Reach.all

let peer_leave t frame ~spawned =
  Reach.Peer.on_sync t ~frame;
  Reach.Peer.on_frame_return t ~frame ~spawned

(* each frame reads its own reducer, so a frame's read is its reducer's
   last one, which is what [parallel_read] asks about *)
let peer_read t frame = Reach.Peer.note_read t ~reducer:frame ~frame

let peer_child t frame ~spawned =
  Reach.Peer.on_frame_enter t ~frame ~spawned;
  peer_read t frame;
  peer_leave t frame ~spawned

let expect_par name t frames want =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: frame %d" name f)
        want
        (Reach.Peer.parallel_read t ~reducer:f ~frame:f))
    frames

(* Fig. 3: a spawned child's reads go to the parent's P bag; a call
   before the block's first spawn to its SS bag, after it to its SP bag,
   which the next spawn or sync retires into P. *)
let test_peer_sets_follow_spawns_and_syncs =
  on_each_peer (fun b t ->
      Reach.Peer.on_frame_enter t ~frame:0 ~spawned:false;
      peer_read t 0;
      peer_child t 1 ~spawned:false;
      expect_par (b ^ " a call before any spawn") t [ 0; 1 ] false;
      peer_child t 2 ~spawned:true;
      expect_par (b ^ " a spawned child") t [ 2 ] true;
      peer_child t 3 ~spawned:false;
      expect_par (b ^ " a call after a spawn") t [ 3 ] false;
      Reach.Peer.on_frame_enter t ~frame:4 ~spawned:true;
      expect_par (b ^ " the call, once the next spawn starts") t [ 3 ] true;
      peer_read t 4;
      peer_leave t 4 ~spawned:true;
      peer_child t 5 ~spawned:false;
      Reach.Peer.on_sync t ~frame:0;
      expect_par (b ^ " a call retired by the sync") t [ 5 ] true;
      peer_child t 6 ~spawned:false;
      expect_par (b ^ " a call after the sync") t [ 0; 1; 6 ] false;
      expect_par (b ^ " the earlier block") t [ 2; 3; 4; 5 ] true)

let test_peer_spawn_count =
  on_each_peer (fun b t ->
      let count name want =
        Alcotest.(check int) (b ^ " " ^ name) want (Reach.Peer.spawn_count t)
      in
      Reach.Peer.on_frame_enter t ~frame:0 ~spawned:false;
      count "root" 0;
      Reach.Peer.on_frame_enter t ~frame:1 ~spawned:true;
      count "first spawned child" 1;
      peer_leave t 1 ~spawned:true;
      count "root after one spawn" 1;
      Reach.Peer.on_frame_enter t ~frame:2 ~spawned:false;
      count "a call inherits anc + ls" 1;
      Reach.Peer.on_frame_enter t ~frame:3 ~spawned:true;
      count "the call's spawned child" 2;
      peer_leave t 3 ~spawned:true;
      count "the call after its spawn" 2;
      peer_leave t 2 ~spawned:false;
      count "root after the call" 1;
      Reach.Peer.on_sync t ~frame:0;
      count "root after the sync" 0)

(* The same bags kept as lists, driven by random event walks. Every
   noted frame is classified, and every structural event's change report
   checked, after every event, on both backends. *)
type sp_op = Enter | Note | Leave of bool | Sync | Steal | Reduce

let show_sp_op = function
  | Enter -> "E"
  | Note -> "N"
  | Leave true -> "L+"
  | Leave false -> "L-"
  | Sync -> "S"
  | Steal -> "T"
  | Reduce -> "R"

type sp_frame = {
  sp_id : int;
  sp_vid : int; (* the entry view: the S bag's *)
  mutable sp_s : int list;
  mutable sp_ps : (int list * int) list; (* open P bags and their views, top first *)
}

let sp_model_walk ops =
  let backends = List.map Reach.Sp.create Reach.all in
  let live = ref [] and noted = ref [] and next = ref 0 and region = ref 0 in
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  let model u =
    let rec go = function
      | [] -> Reach.Sp.Serial
      | f :: rest -> (
          if List.mem u f.sp_s then Reach.Sp.Serial
          else
            match List.find_opt (fun (bag, _) -> List.mem u bag) f.sp_ps with
            | Some (_, v) -> Reach.Sp.Parallel v
            | None -> go rest)
    in
    go !live
  in
  let check ev =
    match !live with
    | [] -> ()
    | top :: _ ->
        List.iter
          (fun r ->
            let b = Reach.show (Reach.Sp.backend r) in
            let v = snd (List.hd top.sp_ps) in
            if Reach.Sp.cur_view r <> v then
              fail (Printf.sprintf "%s, %s: cur_view %d, bags %d" ev b (Reach.Sp.cur_view r) v);
            List.iter
              (fun u ->
                let got = Reach.Sp.classify r u and want = model u in
                if got <> want then
                  fail
                    (Printf.sprintf "%s, %s: frame %d is %s, bags %s" ev b u (show_cls got)
                       (show_cls want)))
              !noted)
          backends
  in
  let hook ev want f =
    List.iter
      (fun r ->
        if f r <> want then
          fail
            (Printf.sprintf "%s, %s: change reported %b, bags %b" ev
               (Reach.show (Reach.Sp.backend r)) (not want) want))
      backends;
    check ev
  in
  let enter () =
    let frame = !next in
    incr next;
    let vid = match !live with [] -> 0 | f :: _ -> snd (List.hd f.sp_ps) in
    live := { sp_id = frame; sp_vid = vid; sp_s = []; sp_ps = [ ([], vid) ] } :: !live;
    List.iter (fun r -> Reach.Sp.on_frame_enter r ~frame) backends;
    check "enter"
  in
  let reduce f =
    match f.sp_ps with
    | (src, _) :: (dst, v) :: rest ->
        f.sp_ps <- (src @ dst, v) :: rest;
        hook "reduce" (src <> []) (fun r -> Reach.Sp.on_reduce r ~frame:f.sp_id)
    | _ -> ()
  in
  let sync f =
    while List.length f.sp_ps > 1 do
      reduce f
    done;
    let p = fst (List.hd f.sp_ps) in
    f.sp_s <- p @ f.sp_s;
    f.sp_ps <- [ ([], f.sp_vid) ];
    hook "sync" (p <> []) (fun r -> Reach.Sp.on_sync r ~frame:f.sp_id)
  in
  enter ();
  List.iter
    (fun op ->
      let f = List.hd !live in
      match op with
      | Enter -> enter ()
      | Note ->
          if not (List.mem f.sp_id !noted) then begin
            f.sp_s <- f.sp_id :: f.sp_s;
            noted := f.sp_id :: !noted
          end;
          List.iter (fun r -> Reach.Sp.note r ~frame:f.sp_id) backends;
          check "note"
      | Leave parallel -> (
          match !live with
          | _ :: (g :: _ as rest) ->
              sync f;
              live := rest;
              (if parallel then
                 match g.sp_ps with
                 | (bag, v) :: ps -> g.sp_ps <- (f.sp_s @ bag, v) :: ps
                 | [] -> assert false
               else g.sp_s <- f.sp_s @ g.sp_s);
              hook "return" (f.sp_s <> []) (fun r ->
                  Reach.Sp.on_frame_return r ~frame:f.sp_id ~parallel)
          | _ -> () (* the root stays: nothing is classified after it *))
      | Sync -> sync f
      | Steal ->
          incr region;
          f.sp_ps <- ([], !region) :: f.sp_ps;
          List.iter (fun r -> Reach.Sp.on_steal r ~frame:f.sp_id ~region:!region) backends;
          check "steal"
      | Reduce -> reduce f)
    ops;
  !failure

let prop_sp_matches_bags =
  QCheck2.Test.make ~name:"Reach.Sp = S/P bags as lists (both backends)" ~count:300
    ~print:(fun ops -> String.concat " " (List.map show_sp_op ops))
    QCheck2.Gen.(
      list_size (int_bound 150)
        (frequency
           [
             (3, return Enter);
             (3, return Note);
             (1, return (Leave true));
             (1, return (Leave false));
             (1, return Sync);
             (1, return Steal);
             (1, return Reduce);
           ]))
    (fun ops ->
      match sp_model_walk ops with
      | None -> true
      | Some msg -> QCheck2.Test.fail_reportf "%s" msg)

type peer_op = P_enter of bool | P_read | P_leave | P_sync

let show_peer_op = function
  | P_enter true -> "E+"
  | P_enter false -> "E-"
  | P_read -> "R"
  | P_leave -> "L"
  | P_sync -> "S"

type peer_frame = {
  pe_id : int;
  pe_spawned : bool;
  pe_anc : int;
  mutable pe_ls : int;
  mutable pe_ss : int list;
  mutable pe_sp : int list;
  mutable pe_p : int list;
}

let peer_model_walk ops =
  let backends = List.map Reach.Peer.create Reach.all in
  let live = ref [] and read = ref [] and next = ref 0 in
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  let check ev =
    match !live with
    | [] -> ()
    | top :: _ ->
        List.iter
          (fun r ->
            let b = Reach.show (Reach.Peer.backend r) in
            let count = top.pe_anc + top.pe_ls in
            if Reach.Peer.spawn_count r <> count then
              fail
                (Printf.sprintf "%s, %s: spawn count %d, bags %d" ev b
                   (Reach.Peer.spawn_count r) count);
            List.iter
              (fun u ->
                let got = Reach.Peer.parallel_read r ~reducer:u ~frame:u
                and want = List.exists (fun f -> List.mem u f.pe_p) !live in
                if got <> want then
                  fail (Printf.sprintf "%s, %s: read of frame %d parallel %b, bags %b" ev b u got want))
              !read)
          backends
  in
  let sync f =
    f.pe_ls <- 0;
    f.pe_p <- f.pe_sp @ f.pe_p;
    f.pe_sp <- [];
    List.iter (fun r -> Reach.Peer.on_sync r ~frame:f.pe_id) backends;
    check "sync"
  in
  let enter spawned =
    let frame = !next in
    incr next;
    let anc =
      match !live with
      | [] -> 0
      | g :: _ ->
          if spawned then begin
            g.pe_ls <- g.pe_ls + 1;
            g.pe_p <- g.pe_sp @ g.pe_p;
            g.pe_sp <- []
          end;
          g.pe_anc + g.pe_ls
    in
    live :=
      {
        pe_id = frame;
        pe_spawned = spawned;
        pe_anc = anc;
        pe_ls = 0;
        pe_ss = [];
        pe_sp = [];
        pe_p = [];
      }
      :: !live;
    List.iter (fun r -> Reach.Peer.on_frame_enter r ~frame ~spawned) backends;
    check "enter"
  in
  enter false;
  List.iter
    (fun op ->
      let f = List.hd !live in
      match op with
      | P_enter spawned -> enter spawned
      | P_read ->
          if not (List.mem f.pe_id !read) then begin
            f.pe_ss <- f.pe_id :: f.pe_ss;
            read := f.pe_id :: !read
          end;
          List.iter (fun r -> peer_read r f.pe_id) backends;
          check "read"
      | P_sync -> sync f
      | P_leave -> (
          match !live with
          | _ :: (g :: _ as rest) ->
              sync f;
              live := rest;
              g.pe_p <- f.pe_p @ g.pe_p;
              if f.pe_spawned then g.pe_p <- f.pe_ss @ g.pe_p
              else if g.pe_ls = 0 then g.pe_ss <- f.pe_ss @ g.pe_ss
              else g.pe_sp <- f.pe_ss @ g.pe_sp;
              List.iter
                (fun r -> Reach.Peer.on_frame_return r ~frame:f.pe_id ~spawned:f.pe_spawned)
                backends;
              check "return"
          | _ -> ()))
    ops;
  !failure

let prop_peer_matches_bags =
  QCheck2.Test.make ~name:"Reach.Peer = SS/SP/P bags as lists (both backends)" ~count:300
    ~print:(fun ops -> String.concat " " (List.map show_peer_op ops))
    QCheck2.Gen.(
      list_size (int_bound 150)
        (frequency
           [
             (2, return (P_enter true));
             (2, return (P_enter false));
             (3, return P_read);
             (3, return P_leave);
             (1, return P_sync);
           ]))
    (fun ops ->
      match peer_model_walk ops with
      | None -> true
      | Some msg -> QCheck2.Test.fail_reportf "%s" msg)

let parse_tests () =
  Alcotest.(check (list string))
    "round trip" [ "dset"; "depa" ]
    (List.map Reach.show Reach.all);
  (match Reach.parse "depa" with
  | Ok Reach.Depa -> ()
  | _ -> Alcotest.fail "parse depa");
  (match Reach.parse "dset" with
  | Ok Reach.Dset -> ()
  | _ -> Alcotest.fail "parse dset");
  match Reach.parse "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse nope should fail"

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_sp_backends_agree;
        prop_sp_backends_agree_deep;
        prop_sp_lazy_backends_agree;
        prop_memo_parity;
        prop_sp_plus_verdicts_identical;
        prop_peer_verdicts_identical;
        prop_sp_order_labels_agree;
        prop_reset_equals_fresh;
      ]
  in
  Alcotest.run "reach"
    [
      ("backend-agreement", props);
      ( "bags",
        [
          Alcotest.test_case "a called child joins the S bag" `Quick test_called_child_serial;
          Alcotest.test_case "a spawned child is parallel until the sync" `Quick
            test_spawned_child_parallel_until_sync;
          Alcotest.test_case "unions carry whole subtrees" `Quick test_unions_carry_subtrees;
          Alcotest.test_case "un-noted frames are serial, note is idempotent" `Quick
            test_unnoted_serial_note_idempotent;
          Alcotest.test_case "sparse frame ids" `Quick test_sparse_frame_ids;
          Alcotest.test_case "100k frames, then reset" `Quick test_volume_then_reset;
          Alcotest.test_case "change reports follow bag emptiness" `Quick
            test_change_reports_follow_bags;
          Alcotest.test_case "a P bag refills after a sync" `Quick
            test_p_bag_refills_after_sync;
          Alcotest.test_case "a reduce keeps the destination's view" `Quick
            test_reduce_keeps_destination_view;
          Alcotest.test_case "Peer: peer sets follow spawns and syncs" `Quick
            test_peer_sets_follow_spawns_and_syncs;
          Alcotest.test_case "Peer: spawn count is anc + ls" `Quick test_peer_spawn_count;
        ] );
      ( "bags-as-lists",
        List.map QCheck_alcotest.to_alcotest [ prop_sp_matches_bags; prop_peer_matches_bags ]
      );
      ("backend-enum", [ Alcotest.test_case "parse/show" `Quick parse_tests ]);
    ]
