(* Differential dispatch parity: the defunctionalized tool path vs the
   seed's closure-record path.

   The hot-path overhaul changed HOW events reach the detectors — a
   variant match with span batching instead of a record of closures
   invoked per access — while promising it changed nothing observable.
   This suite drives randomly generated Cilk programs through both
   dispatch shapes under a family of steal specifications:

   - the {e variant} leg attaches [Sp_plus.tool] to one engine and
     [Peer_set.tool] to another (an engine runs one detector), so each
     engine uses monomorphic dispatch and batches same-strand access runs
     into span events;
   - the {e extern} leg wraps each of those tool values as
     [Tool.extern (Tool.hooks_of tool)], forcing every event through the
     seed's closure record and disabling span batching.

   Both legs must agree exactly, engine by engine, on: the program
   result, every engine counter, a structural fingerprint of the
   recorded trace (frames, accesses, merges, reducer reads, spawns),
   both detectors' reports (full strings, not just verdicts), SP+'s racy
   locations, and each detector's Obs operation totals (disjoint-set,
   shadow, reachability work) — the last one proving the detectors do
   the same WORK, not merely reach the same verdicts. *)

open Rader_runtime
open Rader_core
module G = Rader_testkit.Gen_program
module Obs = Rader_obs.Obs

(* Deterministic spec family, mirroring test_property's: serial, all
   continuations, eager/at-sync reduce policies, Bernoulli and explicit
   local indices. *)
let specs =
  [
    Steal_spec.none;
    Steal_spec.all ();
    Steal_spec.all ~policy:Steal_spec.Reduce_at_sync ();
    Steal_spec.random ~seed:11 ~density:0.4 ();
    Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ 1; 2 ];
  ]

(* Per engine (SP+'s, then Peer-Set's): result, counters, trace. *)
type leg = {
  l_result : int * int;
  l_stats : Engine.stats * Engine.stats;
  l_trace : int array option * int array option;
  l_sp_reports : string list;
  l_peer_reports : string list;
  l_sp_racy : int list;
  l_obs : (string * int) list;
}

(* Run [p] on [eng] with [tool] installed, either directly or behind the
   closure record; Obs keys get [name] as a prefix so the two detectors'
   totals stay apart. *)
let run_engine ~extern ~name eng tool p =
  Engine.set_tool eng
    (if extern then Tool.extern (Tool.hooks_of tool) else tool);
  Obs.set_enabled true;
  let before = Obs.snapshot () in
  let result = Engine.run eng (G.interpret p) in
  let obs = Obs.to_assoc (Obs.since before) in
  Obs.set_enabled false;
  ( result,
    Engine.stats eng,
    Engine.tape eng,
    List.map (fun (k, v) -> (name ^ "." ^ k, v)) obs )

let run_leg ~extern p spec =
  let sp_eng = Engine.create ~spec ~record:true () in
  let sp = Sp_plus.create sp_eng in
  let peer_eng = Engine.create ~spec ~record:true () in
  let peer = Peer_set.create peer_eng in
  let r1, s1, t1, o1 =
    run_engine ~extern ~name:"sp+" sp_eng (Sp_plus.tool sp) p
  in
  let r2, s2, t2, o2 =
    run_engine ~extern ~name:"peer-set" peer_eng (Peer_set.tool peer) p
  in
  {
    l_result = (r1, r2);
    l_stats = (s1, s2);
    l_trace = (t1, t2);
    l_sp_reports = List.map Report.to_string (Sp_plus.races sp);
    l_peer_reports = List.map Report.to_string (Peer_set.races peer);
    l_sp_racy = Sp_plus.racy_locs sp;
    l_obs = o1 @ o2;
  }

let first_obs_diff a b =
  List.find_opt
    (fun (k, v) -> match List.assoc_opt k b with Some w -> v <> w | None -> true)
    a

let prop_dispatch_parity =
  QCheck2.Test.make ~name:"variant dispatch = closure-record dispatch"
    ~count:200 ~print:G.print
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      List.for_all
        (fun spec ->
          let v = run_leg ~extern:false p spec in
          let e = run_leg ~extern:true p spec in
          let ctxt = spec.Steal_spec.name in
          if v.l_result <> e.l_result then
            QCheck2.Test.fail_reportf "%s: results (%d, %d) vs (%d, %d)" ctxt
              (fst v.l_result) (snd v.l_result) (fst e.l_result)
              (snd e.l_result)
          else if v.l_stats <> e.l_stats then
            QCheck2.Test.fail_reportf "%s: engine stats differ" ctxt
          else if v.l_trace <> e.l_trace then
            QCheck2.Test.fail_reportf "%s: trace fingerprints differ" ctxt
          else if v.l_sp_reports <> e.l_sp_reports then
            QCheck2.Test.fail_reportf "%s: SP+ reports differ:\n%s\n-- vs --\n%s"
              ctxt
              (String.concat "\n" v.l_sp_reports)
              (String.concat "\n" e.l_sp_reports)
          else if v.l_peer_reports <> e.l_peer_reports then
            QCheck2.Test.fail_reportf
              "%s: Peer-Set reports differ:\n%s\n-- vs --\n%s" ctxt
              (String.concat "\n" v.l_peer_reports)
              (String.concat "\n" e.l_peer_reports)
          else if v.l_sp_racy <> e.l_sp_racy then
            QCheck2.Test.fail_reportf "%s: racy locs differ" ctxt
          else if v.l_obs <> e.l_obs then (
            match first_obs_diff v.l_obs e.l_obs with
            | Some (k, n) ->
                QCheck2.Test.fail_reportf
                  "%s: Obs totals differ on %s (variant %d vs extern %s)" ctxt
                  k n
                  (match List.assoc_opt k e.l_obs with
                  | Some w -> string_of_int w
                  | None -> "missing")
            | None -> QCheck2.Test.fail_reportf "%s: Obs key sets differ" ctxt)
          else true)
        specs)

(* Same parity for the depa reachability backend: dispatch shape must be
   orthogonal to the precedence representation. *)
let run_leg_depa ~extern p spec =
  let eng = Engine.create ~spec () in
  let sp = Sp_plus.create ~reach:Rader_reach.Reach.Depa eng in
  let tool = Sp_plus.tool sp in
  let tool = if extern then Tool.extern (Tool.hooks_of tool) else tool in
  Engine.set_tool eng tool;
  let result = Engine.run eng (G.interpret p) in
  (result, List.map Report.to_string (Sp_plus.races sp))

let prop_dispatch_parity_depa =
  QCheck2.Test.make ~name:"dispatch parity holds under the depa backend"
    ~count:60 ~print:G.print
    (G.gen ~with_reducers:true ~racy:true)
    (fun p ->
      List.for_all
        (fun spec ->
          let rv, av = run_leg_depa ~extern:false p spec in
          let re, ae = run_leg_depa ~extern:true p spec in
          if rv <> re then
            QCheck2.Test.fail_reportf "%s: result %d vs %d"
              spec.Steal_spec.name rv re
          else if av <> ae then
            QCheck2.Test.fail_reportf "%s: depa reports differ"
              spec.Steal_spec.name
          else true)
        specs)

let () =
  let suite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_dispatch_parity; prop_dispatch_parity_depa ]
  in
  Alcotest.run "dispatch" [ ("variant-vs-extern", suite) ]
