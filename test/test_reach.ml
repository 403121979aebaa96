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
      ("backend-enum", [ Alcotest.test_case "parse/show" `Quick parse_tests ]);
    ]
