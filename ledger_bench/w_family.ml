(* Workload [family]: whole-§7-family verdicts. Every corpus program gets
   one [Witness.verify] job and one enumerated [Coverage.exhaustive_check]
   job, and their racy-location sets must be equal. Both run on one
   domain (jobs = 1): on a shared two-vCPU machine a second domain per
   verdict quadrupled the run-to-run spread (16% against 4% on jobs per
   second). The reducer programs are dominated by witness replays; the
   reducer-free ones (fib-futures, stencil) need zero replays, so
   recording and the pair scan are their whole cost. An [analysis] change
   therefore shows on the first group and should leave the second flat.

   Sizes are below the suite's scale-1 inputs so that one round of the
   corpus takes about a second: at scale 1, knapsack alone verifies in
   5 s and pbfs in 48 s (pbfs is left out). fib, dedup and stencil are
   sized so that their verifies cost about the same and are the round's
   three slowest jobs: the p90 of a round's 18 jobs then falls inside
   them, not on a gap between two of them.

   The traced run replays verify's pipeline layer by layer from the same
   public calls it makes: profile, IR recording, symbolic scan (a second
   recording), symbolic analysis, and one replay per witness spec. *)

open Rader_runtime
open Rader_core
open Rader_benchsuite
open Bench
module Ir = Rader_analysis.Ir
module Symbolic = Rader_analysis.Symbolic
module Witness = Rader_analysis.Witness

type prog = {
  name : string;
  cilk : Engine.ctx -> int;
  base : unit -> int;  (** the uninstrumented baseline run *)
}

type kind = Verify | Sweep
type job = { jid : int; prog : prog; kind : kind }

let job_name j = j.prog.name ^ (match j.kind with Verify -> "/verify" | Sweep -> "/sweep")

let scale = 0.25

(* The corpus, built from the workload seed; knapsack keeps a fixed item
   set because its search size swings fivefold between item sets. The
   baseline is the plain-OCaml version where the program has one, and
   otherwise the DSL program under the engine with the empty tool and no
   steals. *)
let corpus ~seed =
  let demo name =
    match Demos.resolve ~seed ~scale name with
    | Ok cilk -> (name, cilk, None)
    | Error msg -> failwith msg
  in
  let bench (b : Bench_def.t) = (b.Bench_def.name, b.Bench_def.cilk, Some b.Bench_def.plain) in
  [
    demo "fig1-buggy";
    demo "fig1-fixed";
    demo "wordcount";
    demo "minimax";
    bench (Bm_fib.bench ~n:13);
    bench (Bm_knapsack.bench ~seed:20150613 ~n_items:16 ~capacity:50 ~spawn_depth:8);
    bench (Bm_dedup.bench ~seed ~size:24576 ~block:2048);
    bench (Bm_oblivious.fib_futures ~n:16);
    bench (Bm_oblivious.stencil ~seed ~n:1280 ~rounds:2 ~grain:32);
  ]
  |> List.map (fun (name, cilk, plain) ->
         let base =
           match plain with
           | Some p -> p
           | None -> fun () -> Engine.run (Engine.create ()) cilk
         in
         { name; cilk; base })

let racy_set = Hashtbl.create 16 (* (program, kind) -> last racy locations *)

let run_job j =
  match j.kind with
  | Verify -> (
      match Witness.verify ~name:j.prog.name j.prog.cilk with
      | Ok w when w.Witness.complete -> Ok w.Witness.racy_locs
      | Ok _ -> Error "verify incomplete"
      | Error f -> Error ("verify failed: " ^ Diag.to_string f))
  | Sweep ->
      let res = Coverage.exhaustive_check j.prog.cilk in
      if res.Coverage.complete then Ok res.Coverage.racy_locs else Error "sweep incomplete"

let check_verdict j res =
  let want = Known.family_racy j.prog.name in
  verdict (job_name j)
    (match res with
    | Error why -> Some why
    | Ok locs ->
        Hashtbl.replace racy_set (j.prog.name, j.kind) locs;
        if List.length locs <> want then
          Some (Printf.sprintf "%d racy locations, expected %d" (List.length locs) want)
        else None)

(* verify and the sweep must name the same racy locations *)
let check_parity progs =
  List.iter
    (fun p ->
      match (Hashtbl.find_opt racy_set (p.name, Verify), Hashtbl.find_opt racy_set (p.name, Sweep)) with
      | Some v, Some s when v <> s -> check_failed "parity: %s verify and sweep disagree" p.name
      | _ -> ())
    progs

(* verify's pipeline, one span per layer call *)
let ledger ~job ~parent p =
  let layer name f = fst (Trace.timed ~parent ~job name f) in
  let prof = layer "coverage.profile" (fun () -> Coverage.profile p.cilk) in
  match layer "analysis.ir" (fun () -> Ir.of_program p.cilk) with
  | Error f -> check_failed "ledger: %s IR run failed: %s" p.name (Diag.to_string f)
  | Ok ir ->
      ignore (layer "coverage.scan" (fun () -> Coverage.symbolic_scan p.cilk));
      let sym = layer "analysis.symbolic" (fun () -> Symbolic.analyze ~prof ir) in
      let racy =
        List.concat_map
          (fun spec ->
            layer "coverage.replay" (fun () ->
                let eng = Engine.create ~spec () in
                let d = Sp_plus.attach eng in
                ignore (Engine.run_result eng p.cilk);
                Sp_plus.racy_locs d))
          (Symbolic.replay_specs sym)
      in
      let racy = List.sort_uniq compare racy in
      if List.length racy <> Known.family_racy p.name then
        check_failed "ledger: %s replays found %d racy locations" p.name (List.length racy)

let run args =
  let base = Samples.create () in
  let progs, setup_s =
    setup (fun () ->
        let ps = corpus ~seed:args.seed in
        List.iter (fun p -> Samples.add base p.name (time_batched p.base)) ps;
        ps)
  in
  let jobs =
    List.concat_map (fun p -> [ (p, Verify); (p, Sweep) ]) progs
    |> List.mapi (fun jid (prog, kind) -> { jid; prog; kind })
  in
  say "family: %d programs, %d jobs per round, setup %.3f s" (List.length progs)
    (List.length jobs) setup_s;
  let untraced = Samples.create () and busy = Samples.create () in
  let refs = Reference.create () in
  (* the reference kernel is timed before every sixth job *)
  let pass ?(traced = false) samples seconds =
    let minor0 = minor_words () and major0 = major_collections () in
    let refs = if traced then Reference.create () else refs in
    let n =
      rounds ~seconds (fun n ->
          List.iter (fun p -> Samples.add base p.name (time_batched ~samples:1 p.base)) progs;
          List.iter
            (fun j ->
              if j.jid mod 6 = 0 then Reference.sample refs;
              Trace.span ~job:j.jid (job_name j) (fun parent ->
                  let res, dt = timed (fun () -> run_job j) in
                  check_verdict j res;
                  Samples.add samples j.jid dt;
                  if not traced then Samples.add busy (n, Reference.interval refs) dt;
                  if traced && j.kind = Verify then ledger ~job:j.jid ~parent j.prog))
            jobs;
          check_parity progs)
    in
    (n, minor_words () -. minor0, major_collections () - major0)
  in
  let med s j = Samples.med s j.jid in
  let e2e () =
    job_table (List.map (fun j -> (job_name j, Samples.get untraced j.jid)) jobs);
    end_to_end ~setup_s ~busy ~refs
  in
  if not args.trace then
    let _ = pass untraced args.seconds in
    e2e ()
  else begin
    let _, minor, majors = pass untraced args.seconds in
    let peak = peak_heap_mb () in
    let traced = Samples.create () in
    Trace.on := true;
    let n_rounds, _, _ = pass ~traced:true traced args.seconds in
    Trace.on := false;
    Trace.print_self_times ();
    let witnesses =
      List.filter_map
        (fun p ->
          match Witness.verify ~name:p.name p.cilk with
          | Ok w -> Some w
          | Error _ -> None)
        progs
    in
    let sumi f = float_of_int (List.fold_left (fun acc w -> acc + f w) 0 witnesses) in
    let per_round name = Trace.self_of name /. float_of_int n_rounds in
    let sum_med kind = sum (List.map (med untraced) (List.filter (fun j -> j.kind = kind) jobs)) in
    List.iter
      (fun w ->
        say "  %-12s specs %4d  replays %4d  skipped %4d  truncated %b" w.Witness.program
          w.Witness.n_specs w.Witness.n_replays w.Witness.n_skipped w.Witness.truncated)
      witnesses;
    [
      m "coverage.profile_s" "s" (per_round "coverage.profile");
      m "analysis.ir_s" "s" (per_round "analysis.ir");
      m "coverage.scan_s" "s" (per_round "coverage.scan");
      m "analysis.symbolic_s" "s" (per_round "analysis.symbolic");
      m "coverage.replay_s" "s" (per_round "coverage.replay");
      m "coverage.replays_per_verdict" "count"
        (sumi (fun w -> w.Witness.n_replays) /. float_of_int (List.length witnesses));
      m "analysis.replays_avoided_frac" "ratio"
        (1.0 -. (sumi (fun w -> w.Witness.n_replays) /. sumi (fun w -> w.Witness.n_specs)));
      m "analysis.scan_truncated" "count" (sumi (fun w -> if w.Witness.truncated then 1 else 0));
      m "analysis.verify_over_sweep" "x" (sum_med Verify /. sum_med Sweep);
    ]
    @ every_workload
        ~overhead:
          (sum (List.map (med untraced) jobs)
          /. sum (List.map (fun j -> Samples.med base j.prog.name) jobs))
        ~peak ~jobs:(List.length (Samples.all untraced)) ~minor ~majors
        ~tracing_overhead:(geomean (List.map (fun j -> med traced j /. med untraced j) jobs))
  end
