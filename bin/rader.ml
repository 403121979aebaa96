(* rader — command-line driver for the Rader/OCaml race detectors.

   Subcommands:
     rader check    run a benchmark or demo under a detector + steal spec
     rader coverage run the §7 exhaustive steal-specification enumeration
     rader verify   symbolic whole-family verification, witness replays only
     rader lint     static reducer-misuse lint over the SP parse tree
     rader chaos    run the fault-containment battery against a program
     rader fuzz     run under simulated work-stealing schedules
     rader sim      work-stealing simulator speedup table
     rader dag      dump the (performance) dag of a program as Graphviz dot
     rader tree     dump the canonical SP parse tree as Graphviz dot
     rader record   run with full recording and save the trace
     rader oracle   run the brute-force race oracles on a saved trace
     rader online   run on the real work-stealing runtime; each run's
                    verdict is the serial replay of its steals
     rader serve    run the race-checking daemon
     rader submit   submit a check or verify to a running daemon
     rader loadtest drive a running daemon with concurrent clients

   Exit codes (check / coverage / chaos / lint):
     0  clean — analysis complete, no races
     1  races found
     2  usage error
     3  contained failure / partial coverage: the program under test
        crashed, a monoid contract or steal spec was invalid, or a budget
        ran out — the printed results cover only the completed prefix.
   When both apply, 3 wins over 1: an incomplete analysis is flagged as
   such, and any races found are still printed. *)

open Cmdliner
open Rader_runtime
open Rader_core
open Rader_benchsuite
module Obs = Rader_obs.Obs
module Chrome_trace = Rader_obs.Chrome_trace
module An = Rader_analysis
module Reach = Rader_reach.Reach

(* ---------- programs addressable from the CLI ---------- *)

(* The registry lives in [Rader_benchsuite.Demos] so the serve daemon
   resolves exactly the same programs; here it only gains the
   exit-on-unknown-name behaviour. *)

let program_names () = Demos.names ()

let resolve_program ~scale name : Engine.ctx -> int =
  match Demos.resolve ~scale name with
  | Ok prog -> prog
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

(* ---------- common options ---------- *)

let program_arg =
  let doc =
    "Program to analyze: a benchmark ("
    ^ String.concat ", " Suite.names
    ^ ") or a demo (" ^ String.concat ", " Demos.demo_names ^ ")."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

(* A float argument whose values outside [ok] are a usage error. *)
let checked_float ~expected ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, Format.pp_print_float)

let scale_arg =
  let positive =
    checked_float ~expected:"a finite number > 0" (fun x ->
        x > 0.0 && Float.is_finite x)
  in
  Arg.(value & opt positive 0.25 & info [ "scale" ] ~docv:"X" ~doc:"Workload scale factor.")

let seed_arg =
  Arg.(value & opt int 20150613 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let spec_arg =
  let doc =
    "Steal specification: $(b,none), $(b,all), $(b,random) (with --density), or a \
     comma-separated list of sync-block continuation indices, e.g. $(b,1,2,3)."
  in
  Arg.(value & opt string "none" & info [ "steal"; "s" ] ~docv:"SPEC" ~doc)

let density_arg =
  let probability =
    checked_float ~expected:"a number in [0,1]" (fun p -> p >= 0.0 && p <= 1.0)
  in
  Arg.(
    value
    & opt probability 0.5
    & info [ "density" ] ~docv:"P" ~doc:"Steal probability for --steal random.")

let parse_spec ~seed ~density s =
  match Steal_spec.parse ~seed ~density s with
  | Ok spec -> spec
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

let detector_arg =
  let detector_conv =
    Arg.enum
      [
        ("peerset", `Peerset);
        ("spbags", `Spbags);
        ("sporder", `Sporder);
        ("offsetspan", `Offsetspan);
        ("sp+", `Spplus);
      ]
  in
  Arg.(
    value
    & opt detector_conv `Spplus
    & info [ "detector"; "d" ] ~docv:"NAME"
        ~doc:
          "Detector: $(b,peerset), $(b,spbags), $(b,sporder), $(b,offsetspan) \
           or $(b,sp+).")

let reach_arg =
  let backend_conv = Arg.enum [ ("dset", Reach.Dset); ("depa", Reach.Depa) ] in
  Arg.(
    value
    & opt (some backend_conv) None
    & info [ "reach" ] ~docv:"BACKEND"
        ~doc:
          "Precedence (SP-reachability) backend: $(b,dset) — the paper's \
           disjoint-set bags (the default) — or $(b,depa) — DePa-style \
           strand fingerprints answering queries in worst-case O(1). \
           Verdicts are byte-identical either way; only the cost model \
           changes. Applies to the $(b,sp+) and $(b,peerset) detectors; \
           the baseline detectors ignore it ($(b,spbags) always uses dset).")

(* ---------- observability options (check / coverage) ---------- *)

let metrics_arg =
  let fmt = Arg.enum [ ("table", `Table); ("json", `Json) ] in
  Arg.(
    value
    & opt ~vopt:(Some `Table) (some fmt) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:
          "Print detector operation counters after the analysis: \
           $(b,table) (the default when the flag is given bare) or \
           $(b,json) (one object on stdout, for scripts).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON file of the analysis — load it \
           in Perfetto or chrome://tracing. Implies counter collection.")

let metrics_json counters phases =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"counters\":";
  Buffer.add_string b (Obs.to_json_string counters);
  Buffer.add_string b ",\"phases\":{";
  List.iteri
    (fun i (name, s) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%S:%.6f" name s))
    phases;
  Buffer.add_string b "}}";
  Buffer.contents b

let print_metrics fmt counters ~phases =
  match fmt with
  | `Json -> print_endline (metrics_json counters phases)
  | `Table ->
      print_string (Obs.to_table_string counters);
      List.iter
        (fun (name, s) -> Printf.printf "phase %-10s %10.6f s\n" name s)
        phases

(* ---------- check ---------- *)

let max_events_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-events" ] ~docv:"N"
        ~doc:
          "Abort a run (exit 3) after N engine events (strand starts + \
           instrumented accesses); results cover the completed prefix.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-s" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget in seconds; on expiry the run is contained \
           (exit 3) and results cover the completed prefix.")

let print_races races =
  Printf.printf "%d race(s):\n" (List.length races);
  List.iter (fun r -> Printf.printf "  %s\n" (Report.to_string r)) races

let do_check program scale seed spec_str density detector reach max_events
    deadline_s metrics trace_out =
  let spec = parse_spec ~seed ~density spec_str in
  let prog = resolve_program ~scale program in
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s in
  let eng = Engine.create ~spec ?max_events ?deadline () in
  let races =
    match detector with
    | `Peerset ->
        let d = Peer_set.attach ?reach eng in
        fun () -> Peer_set.races d
    | `Spbags ->
        let d = Sp_bags.attach eng in
        fun () -> Sp_bags.races d
    | `Sporder ->
        let d = Sp_order.attach eng in
        fun () -> Sp_order.races d
    | `Offsetspan ->
        let d = Offset_span.attach eng in
        fun () -> Offset_span.races d
    | `Spplus ->
        let d = Sp_plus.attach ?reach eng in
        fun () -> Sp_plus.races d
  in
  let obs_on = metrics <> None || trace_out <> None in
  let obs_was = Obs.enabled () in
  if obs_on then Obs.set_enabled true;
  let t0_us = Obs.now_us () in
  let snap = if obs_on then Some (Obs.snapshot ()) else None in
  let verdict = Engine.run_result eng prog in
  let t1_us = Obs.now_us () in
  Obs.set_enabled obs_was;
  let delta = Option.map Obs.since snap in
  let stats = Engine.stats eng in
  (match verdict with
  | Ok value -> Printf.printf "program %s finished (result %d)\n" program value
  | Error _ -> Printf.printf "program %s did not finish\n" program);
  Printf.printf "%d frames, %d spawns, %d steals, %d reduce ops, %d accesses\n"
    stats.Engine.n_frames stats.Engine.n_spawns stats.Engine.n_steals
    stats.Engine.n_reduce_calls
    (stats.Engine.n_reads + stats.Engine.n_writes);
  let races = races () in
  (match races with
  | [] -> print_endline "no races detected"
  | races -> print_races races);
  (match (delta, metrics) with
  | Some c, Some fmt ->
      print_metrics fmt c ~phases:[ ("run", (t1_us -. t0_us) /. 1e6) ]
  | _ -> ());
  (match (delta, trace_out) with
  | Some c, Some path ->
      let tr = Chrome_trace.create () in
      Chrome_trace.set_process_name tr (Printf.sprintf "rader check %s" program);
      Chrome_trace.set_thread_name tr ~tid:0 "main";
      let detector_name =
        match detector with
        | `Peerset -> "peerset"
        | `Spbags -> "spbags"
        | `Sporder -> "sporder"
        | `Offsetspan -> "offsetspan"
        | `Spplus -> "sp+"
      in
      Chrome_trace.add_complete ~cat:"run"
        ~args:[ ("spec", spec_str); ("detector", detector_name) ]
        tr ~name:program ~tid:0 ~ts_us:t0_us ~dur_us:(t1_us -. t0_us) ();
      Chrome_trace.add_counter tr ~name:"counters" ~tid:0 ~ts_us:t1_us
        (Obs.to_assoc c);
      Chrome_trace.save tr path;
      Printf.printf "wrote %s\n" path
  | _ -> ());
  match verdict with
  | Ok _ -> if races = [] then 0 else 1
  | Error f ->
      Printf.printf "contained failure: %s\n" (Diag.to_string f);
      if races <> [] then
        print_endline "(the races above cover the completed prefix only)";
      3

let check_cmd =
  let doc = "Run a program under a detector and steal specification." in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const do_check $ program_arg $ scale_arg $ seed_arg $ spec_arg $ density_arg
      $ detector_arg $ reach_arg $ max_events_arg $ deadline_arg $ metrics_arg
      $ trace_out_arg)

(* ---------- coverage ---------- *)

let do_coverage program scale verbose max_specs max_events deadline_s jobs prune
    reach metrics trace_out =
  if jobs < 0 then begin
    Printf.eprintf "--jobs must be >= 0 (0 = one worker per core)\n";
    exit 2
  end;
  let prog = resolve_program ~scale program in
  let with_obs = metrics <> None || trace_out <> None in
  let res =
    Coverage.exhaustive_check ?max_specs ?max_events ?deadline:deadline_s ~jobs
      ~with_obs ~prune ?reach prog
  in
  Printf.printf "profile: K=%d D=%d spawns=%d; %d steal specifications (%d run)\n"
    res.Coverage.prof.Coverage.k res.Coverage.prof.Coverage.d
    res.Coverage.prof.Coverage.n_spawns res.Coverage.n_specs res.Coverage.n_run;
  if prune then begin
    Printf.printf
      "pruned: %d of %d specification(s) provably redundant (k_rel=%d)\n"
      res.Coverage.n_pruned res.Coverage.n_specs
      res.Coverage.prof.Coverage.k_rel;
    if verbose then
      List.iter
        (fun (d : An.Prune.decision) ->
          if not d.An.Prune.d_kept then
            Printf.printf "  - %s: %s\n" d.An.Prune.d_spec.Steal_spec.name
              d.An.Prune.d_reason)
        (An.Prune.family res.Coverage.prof)
  end;
  if verbose then
    List.iter
      (fun ((spec : Steal_spec.t), locs) ->
        if locs <> [] then
          Printf.printf "  %s -> %d racy location(s)\n" spec.Steal_spec.name
            (List.length locs))
      res.Coverage.per_spec;
  (match res.Coverage.obs with
  | None -> ()
  | Some o ->
      (match metrics with
      | Some fmt ->
          print_metrics fmt o.Coverage.obs_counters ~phases:o.Coverage.obs_phases
      | None -> ());
      (match trace_out with
      | Some path ->
          let tr = Chrome_trace.create () in
          Chrome_trace.set_process_name tr
            (Printf.sprintf "rader coverage %s" program);
          let named = Hashtbl.create 8 in
          List.iter
            (fun (s : Coverage.span) ->
              if not (Hashtbl.mem named s.Coverage.span_worker) then begin
                Hashtbl.add named s.Coverage.span_worker ();
                Chrome_trace.set_thread_name tr ~tid:s.Coverage.span_worker
                  (Printf.sprintf "worker %d" s.Coverage.span_worker)
              end;
              Chrome_trace.add_complete ~cat:"replay" tr
                ~name:s.Coverage.span_spec ~tid:s.Coverage.span_worker
                ~ts_us:s.Coverage.span_t0_us
                ~dur_us:(s.Coverage.span_t1_us -. s.Coverage.span_t0_us) ())
            o.Coverage.obs_spans;
          Chrome_trace.add_counter tr ~name:"counters" ~tid:0
            ~ts_us:(Obs.now_us ())
            (Obs.to_assoc o.Coverage.obs_counters);
          Chrome_trace.save tr path;
          Printf.printf "wrote %s\n" path
      | None -> ()));
  let race_code =
    match res.Coverage.reports with
    | [] ->
        print_endline "no determinacy races under any specification that ran";
        print_endline "racy locs:";
        0
    | reports ->
        Printf.printf "%d racy location(s):\n" (List.length reports);
        List.iter
          (fun r ->
            Printf.printf "  %s\n" (Report.to_string r);
            match Coverage.witness_spec res r.Report.subject with
            | Some spec ->
                Printf.printf "    reproduce with: --steal %s\n" spec.Steal_spec.name
            | None -> ())
          reports;
        (* stable one-line summary, byte-comparable with `rader verify` *)
        Printf.printf "racy locs:%s\n"
          (String.concat ""
             (List.map (fun l -> " " ^ string_of_int l) res.Coverage.racy_locs));
        1
  in
  if res.Coverage.complete then race_code
  else begin
    Printf.printf
      "PARTIAL COVERAGE: %d specification(s) incomplete — the §7 guarantee \
       does not hold for this sweep\n"
      (List.length res.Coverage.incomplete);
    List.iter
      (fun (name, f) -> Printf.printf "  %s: %s\n" name (Diag.to_string f))
      (let rec firstn n = function
         | x :: rest when n > 0 -> x :: firstn (n - 1) rest
         | _ -> []
       in
       firstn 10 res.Coverage.incomplete);
    (let n = List.length res.Coverage.incomplete in
     if n > 10 then Printf.printf "  ... and %d more\n" (n - 10));
    3
  end

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print per-specification results.")

let max_specs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-specs" ] ~docv:"N"
        ~doc:
          "Attempt at most N steal specifications; the rest are reported \
           as incomplete (exit 3).")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Shard the steal-specification sweep across N worker domains \
           ($(b,0) = one per core). Results are merged in specification \
           order, so the report is identical for every N.")

let prune_arg =
  Arg.(
    value
    & flag
    & info [ "prune" ]
        ~doc:
          "Drop steal specifications that provably cannot elicit a new \
           view-aware strand (see DESIGN.md §10) before sweeping. The \
           verdict — racy locations and reports — is unchanged; only \
           redundant replays are skipped.")

let coverage_cmd =
  let doc = "Exhaustively check every possible view-aware strand (paper §7)." in
  Cmd.v
    (Cmd.info "coverage" ~doc)
    Term.(
      const do_coverage $ program_arg $ scale_arg $ verbose_arg $ max_specs_arg
      $ max_events_arg $ deadline_arg $ jobs_arg $ prune_arg $ reach_arg
      $ metrics_arg $ trace_out_arg)

(* ---------- verify: symbolic whole-spec-space verification ---------- *)

let max_pairs_arg =
  Arg.(
    value
    & opt int 100_000
    & info [ "max-pairs" ] ~docv:"N"
        ~doc:
          "Per-location budget for the symbolic pair scan; past it the \
           scan is reported truncated and the no-steal replay is kept \
           (the verdict stays sound, the symbolic detail partial).")

let do_verify program scale json reach max_pairs jobs max_events deadline_s
    metrics =
  if jobs < 0 then begin
    Printf.eprintf "--jobs must be >= 0 (0 = one worker per core)\n";
    exit 2
  end;
  let prog = resolve_program ~scale program in
  let with_obs = metrics <> None in
  match
    An.Witness.verify ?reach ~max_pairs ~jobs ?max_events ?deadline:deadline_s
      ~with_obs ~name:program prog
  with
  | Error f ->
      Printf.printf "contained failure: %s\n" (Diag.to_string f);
      (match f with
      | Diag.Budget_exceeded _ -> ()
      | _ ->
          print_endline
            "(the recorded run crashed; run the enumerated sweep: rader \
             coverage)");
      3
  | Ok w ->
      if json then print_string (An.Witness.to_json w ^ "\n")
      else print_string (An.Witness.to_table w);
      (match (w.An.Witness.res.Coverage.obs, metrics) with
      | Some o, Some fmt ->
          print_metrics fmt o.Coverage.obs_counters ~phases:o.Coverage.obs_phases
      | _ -> ());
      if not w.An.Witness.complete then 3
      else if w.An.Witness.racy_locs <> [] then 1
      else 0

let verify_cmd =
  let doc =
    "Symbolically verify a program across the whole §7 steal-specification \
     family, replaying only the witness specifications; every verdict is \
     replay-confirmed and byte-identical to $(b,rader coverage)."
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the witness table as one JSON object.")
  in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(
      const do_verify $ program_arg $ scale_arg $ json_arg $ reach_arg
      $ max_pairs_arg $ jobs_arg $ max_events_arg $ deadline_arg $ metrics_arg)

(* ---------- lint ---------- *)

let do_lint program all scale reach json dot_out baseline write_baseline =
  let programs =
    match (program, all) with
    | Some p, false -> [ p ]
    | None, true -> program_names ()
    | Some _, true ->
        Printf.eprintf "PROGRAM and --all are mutually exclusive\n";
        exit 2
    | None, false ->
        Printf.eprintf "need a PROGRAM or --all\n";
        exit 2
  in
  let failures = ref 0 in
  let results =
    List.filter_map
      (fun name ->
        let prog = resolve_program ~scale name in
        match An.Ir.of_program prog with
        | Error f ->
            Printf.printf "%s: contained failure: %s\n" name (Diag.to_string f);
            incr failures;
            None
        | Ok ir ->
            (* every lint run doubles as a static/dynamic agreement check *)
            (match An.Verdict.cross_check ?reach prog ir with
            | Ok () -> ()
            | Error msg ->
                Printf.printf "%s: %s\n" name msg;
                incr failures);
            (* R006 needs the symbolic verification result; a crashing
               program just loses that rule (contained above). *)
            let verify =
              match An.Witness.verify ?reach ~name prog with
              | Ok w -> Some w
              | Error _ -> None
            in
            Some (name, ir, An.Lint.run ~program:prog ?verify ir))
      programs
  in
  let multi = List.length programs > 1 in
  List.iter
    (fun (name, _, findings) ->
      if json then print_string (An.Lint.to_json ~program:name findings ^ "\n")
      else begin
        if multi then Printf.printf "== %s ==\n" name;
        print_string (An.Lint.to_table findings)
      end)
    results;
  (match (dot_out, results) with
  | Some path, [ (_, ir, findings) ] ->
      let oc = open_out path in
      output_string oc (An.Lint.to_dot ir findings);
      close_out oc;
      Printf.printf "wrote %s\n" path
  | Some _, _ ->
      Printf.eprintf "--dot needs exactly one successfully linted program\n";
      exit 2
  | None, _ -> ());
  let lines =
    List.concat_map
      (fun (name, _, findings) -> An.Lint.baseline_lines ~program:name findings)
      results
  in
  (match write_baseline with
  | Some path ->
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      Printf.printf "wrote %d baseline line(s) to %s\n" (List.length lines) path
  | None -> ());
  let n_findings =
    List.fold_left (fun acc (_, _, fs) -> acc + List.length fs) 0 results
  in
  if !failures > 0 then 3
  else
    match baseline with
    | Some path ->
        let expected =
          let ic = open_in path in
          let rec loop acc =
            match input_line ic with
            | line -> loop (if line = "" then acc else line :: acc)
            | exception End_of_file ->
                close_in ic;
                List.rev acc
          in
          loop []
        in
        let missing = List.filter (fun l -> not (List.mem l lines)) expected in
        let extra = List.filter (fun l -> not (List.mem l expected)) lines in
        if missing = [] && extra = [] then begin
          Printf.printf "lint baseline OK (%d finding(s))\n" n_findings;
          0
        end
        else begin
          List.iter (fun l -> Printf.printf "-%s\n" l) missing;
          List.iter (fun l -> Printf.printf "+%s\n" l) extra;
          Printf.printf
            "lint baseline DRIFT: %d missing, %d new (regen with \
             --write-baseline)\n"
            (List.length missing) (List.length extra);
          1
        end
    | None -> if n_findings > 0 then 1 else 0

let lint_program_arg =
  let doc = "Program to lint (omit with $(b,--all))." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let lint_all_arg =
  Arg.(
    value & flag & info [ "all" ] ~doc:"Lint every benchmark and demo program.")

let lint_json_arg =
  Arg.(
    value
    & flag
    & info [ "json" ] ~doc:"Emit findings as JSON, one object per program.")

let lint_dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:
          "Write the SP parse tree with finding-bearing strands colored \
           (single-program mode only).")

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Compare findings against a checked-in expected-findings file; \
           exit 1 on any drift.")

let write_baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "write-baseline" ] ~docv:"FILE"
        ~doc:"Write the current findings as a baseline file.")

let lint_cmd =
  let doc =
    "Statically lint a program for reducer misuse (rules R001-R006) over \
     the canonical SP parse tree of one recorded run."
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const do_lint $ lint_program_arg $ lint_all_arg $ scale_arg $ reach_arg
      $ lint_json_arg $ lint_dot_arg $ baseline_arg $ write_baseline_arg)

(* ---------- chaos ---------- *)

let do_chaos program scale =
  let prog = resolve_program ~scale program in
  let outcomes = Rader_chaos.Chaos.run_all prog in
  List.iter
    (fun o -> print_endline (Rader_chaos.Chaos.outcome_to_string o))
    outcomes;
  let bad = List.filter (fun o -> not (Rader_chaos.Chaos.ok o)) outcomes in
  if bad = [] then begin
    Printf.printf "all %d perturbations contained\n" (List.length outcomes);
    0
  end
  else begin
    Printf.printf "%d of %d perturbations NOT contained\n" (List.length bad)
      (List.length outcomes);
    3
  end

let chaos_cmd =
  let doc =
    "Perturb a program with every fault class (raising strands, raising \
     reduce/identity, non-associative monoid, invalid spec, budget \
     blowouts) and verify the pipeline contains each one."
  in
  Cmd.v (Cmd.info "chaos" ~doc) Term.(const do_chaos $ program_arg $ scale_arg)

(* ---------- fuzz ---------- *)

let do_fuzz program scale seed runs workers =
  let prog = resolve_program ~scale program in
  let seeds = List.init runs (fun i -> seed + i) in
  let outs = Rader_sched.Schedule_gen.fuzz prog ~workers ~seeds in
  let values = List.sort_uniq compare (List.map snd outs) in
  Printf.printf "%d schedules (%d workers) -> %d distinct result(s)\n"
    (List.length outs) workers (List.length values);
  List.iter
    (fun v ->
      let names =
        List.filter_map (fun (n, v') -> if v = v' then Some n else None) outs
      in
      Printf.printf "  %d  (%d schedules, e.g. %s)\n" v (List.length names)
        (List.hd names))
    values;
  if List.length values > 1 then 1 else 0

let runs_arg =
  Arg.(value & opt int 16 & info [ "runs"; "n" ] ~docv:"N" ~doc:"Number of schedules.")

let workers_arg =
  Arg.(value & opt int 8 & info [ "workers"; "p" ] ~docv:"P" ~doc:"Simulated workers.")

let fuzz_cmd =
  let doc = "Run under randomized simulated work-stealing schedules." in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(const do_fuzz $ program_arg $ scale_arg $ seed_arg $ runs_arg $ workers_arg)

(* ---------- sim ---------- *)

let do_sim program scale seed =
  let prog = resolve_program ~scale program in
  let eng = Engine.create ~record:true () in
  ignore (Engine.run eng prog);
  Printf.printf "workers  makespan  speedup  steals\n";
  let t1 = ref 0 in
  List.iter
    (fun p ->
      let res = Rader_sched.Wsim.simulate ~workers:p ~seed eng in
      if p = 1 then t1 := res.Rader_sched.Wsim.makespan;
      Printf.printf "%7d %9d %8.2f %7d\n" p res.Rader_sched.Wsim.makespan
        (float_of_int !t1 /. float_of_int res.Rader_sched.Wsim.makespan)
        res.Rader_sched.Wsim.n_steals)
    [ 1; 2; 4; 8; 16; 32 ];
  0

let sim_cmd =
  let doc = "Simulate randomized work stealing over the recorded dag." in
  Cmd.v (Cmd.info "sim" ~doc) Term.(const do_sim $ program_arg $ scale_arg $ seed_arg)

(* ---------- online: work-stealing runtime, judged by serial replay ---------- *)

let do_online program scale seed runs workers density reach max_events
    deadline_s metrics trace_out =
  if workers < 1 then begin
    Printf.eprintf "rader online: --workers must be >= 1\n";
    exit 2
  end;
  if runs < 1 then begin
    Printf.eprintf "rader online: --runs must be >= 1\n";
    exit 2
  end;
  let module O = Rader_sched.Online in
  let prog = resolve_program ~scale program in
  let judge = O.judge ?reach prog in
  let obs_on = metrics <> None in
  let obs_was = Obs.enabled () in
  if obs_on then Obs.set_enabled true;
  let runtime_s = ref 0. and verdict_s = ref 0. in
  let timed acc f =
    let t0 = Obs.now_us () in
    let v = f () in
    acc := !acc +. ((Obs.now_us () -. t0) /. 1e6);
    v
  in
  let union : Report.t list ref = ref [] in
  let first_failure = ref None in
  let note_failure f = if !first_failure = None then first_failure := Some f in
  let total_events = ref 0 in
  let total_steals = ref 0 in
  let total_tasks = ref 0 in
  let total_deque = ref 0 in
  let counters = Obs.zero () in
  let racy_trace = ref None in
  let last_trace = ref None in
  for i = 0 to runs - 1 do
    let run_seed = seed + i in
    let deadline () =
      Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s
    in
    let cfg =
      {
        O.workers;
        seed = run_seed;
        density;
        max_events;
        deadline = deadline ();
        clock = None;
      }
    in
    let out = timed runtime_s (fun () -> O.run cfg prog) in
    total_events := !total_events + out.O.events;
    total_steals := !total_steals + out.O.n_structural_steals;
    total_tasks := !total_tasks + out.O.n_tasks;
    total_deque := !total_deque + out.O.n_deque_steals;
    Option.iter (fun c -> Obs.add ~into:counters c) out.O.counters;
    last_trace := Some out.O.trace;
    (* A run cut short made only part of its steals: it gets no verdict. *)
    let verdict =
      match out.O.value with
      | Error f ->
          note_failure f;
          None
      | Ok _ ->
          let snap = if obs_on then Some (Obs.snapshot ()) else None in
          let v =
            timed verdict_s (fun () ->
                O.verdict ?max_events ?deadline:(deadline ()) judge out.O.trace)
          in
          Option.iter (fun s -> Obs.add ~into:counters (Obs.since s)) snap;
          Some v
    in
    let races = match verdict with Some (Ok races) -> races | _ -> [] in
    if races <> [] && !racy_trace = None then racy_trace := Some out.O.trace;
    List.iter
      (fun r ->
        if
          not
            (List.exists
               (fun r' ->
                 r'.Report.kind = r.Report.kind
                 && r'.Report.subject = r.Report.subject)
               !union)
        then union := r :: !union)
      races;
    Printf.printf
      "run seed=%-6d workers=%d: %3d structural steals, %4d tasks, %3d deque \
       steals, %s%s\n"
      run_seed workers out.O.n_structural_steals out.O.n_tasks
      out.O.n_deque_steals
      (match out.O.value with
      | Ok v -> Printf.sprintf "result %d" v
      | Error f -> Printf.sprintf "contained: %s" (Diag.class_name f))
      (if races = [] then ""
       else Printf.sprintf ", %d race(s)" (List.length races));
    match verdict with
    | Some (Error f) ->
        note_failure f;
        Printf.printf "  replay: contained: %s\n" (Diag.class_name f)
    | _ -> ()
  done;
  Obs.set_enabled obs_was;
  let union =
    List.sort
      (fun a b ->
        match compare a.Report.kind b.Report.kind with
        | 0 -> compare a.Report.subject b.Report.subject
        | c -> c)
      !union
  in
  Printf.printf
    "%d run(s): %d structural steals, %d tasks, %d deque steals, %d events\n"
    runs !total_steals !total_tasks !total_deque !total_events;
  (match union with
  | [] -> print_endline "no races detected"
  | races -> print_races races);
  (match metrics with
  | None -> ()
  | Some fmt ->
      let dt = !runtime_s in
      Printf.printf "throughput %.0f events/s over %.3f s\n"
        (float_of_int !total_events /. (if dt > 0. then dt else 1e-9))
        dt;
      print_metrics fmt counters
        ~phases:[ ("runtime", !runtime_s); ("verdict", !verdict_s) ]);
  (match (trace_out, if !racy_trace <> None then !racy_trace else !last_trace) with
  | Some path, Some tr ->
      let oc = open_out path in
      output_string oc (Steal_trace.to_string tr);
      close_out oc;
      Printf.printf "wrote %s\n" path
  | _ -> ());
  match !first_failure with
  | Some f ->
      Printf.printf "contained failure: %s\n" (Diag.to_string f);
      3
  | None -> if union = [] then 0 else 1

let online_cmd =
  let doc =
    "Run a program on the real work-stealing runtime (OCaml domains); each \
     run's verdict is the serial detectors' under the steals it made."
  in
  let online_runs_arg =
    Arg.(
      value & opt int 8
      & info [ "runs"; "n" ] ~docv:"K"
          ~doc:"Number of online runs, with seeds SEED, SEED+1, ...")
  in
  let online_workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers"; "p" ] ~docv:"P" ~doc:"Worker domains (>= 1).")
  in
  let online_trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the steal trace of the first racy run (or the last run \
             when all are clean): a human-readable record of which \
             continuations were stolen. Nothing reads it back; each run's \
             verdict replays its trace in-process.")
  in
  Cmd.v
    (Cmd.info "online" ~doc)
    Term.(
      const do_online $ program_arg $ scale_arg $ seed_arg $ online_runs_arg
      $ online_workers_arg $ density_arg $ reach_arg $ max_events_arg
      $ deadline_arg $ metrics_arg $ online_trace_out_arg)

(* ---------- dag ---------- *)

let do_dag program scale seed spec_str density output =
  let spec = parse_spec ~seed ~density spec_str in
  let prog = resolve_program ~scale program in
  let eng = Engine.create ~spec ~record:true () in
  ignore (Engine.run eng prog);
  let dot = Rader_dag.Dag.to_dot (Trace.dag (Trace.of_engine eng)) in
  (match output with
  | None -> print_string dot
  | Some path ->
      let oc = open_out path in
      output_string oc dot;
      close_out oc;
      Printf.printf "wrote %s\n" path);
  0

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write dot to FILE instead of stdout.")

let dag_cmd =
  let doc = "Dump the performance dag of an execution as Graphviz dot." in
  Cmd.v
    (Cmd.info "dag" ~doc)
    Term.(
      const do_dag $ program_arg $ scale_arg $ seed_arg $ spec_arg $ density_arg
      $ output_arg)

(* ---------- tree: canonical SP parse tree (paper Fig. 4) ---------- *)

let do_tree program scale output =
  let prog = resolve_program ~scale program in
  let eng = Engine.create ~record:true () in
  ignore (Engine.run eng prog);
  let tree = Trace.sp_tree (Trace.of_engine eng) in
  let dot = Rader_dag.Sp_tree.to_dot tree in
  (match output with
  | None -> print_string dot
  | Some path ->
      let oc = open_out path in
      output_string oc dot;
      close_out oc;
      Printf.printf "wrote %s\n" path);
  0

let tree_cmd =
  let doc = "Dump the canonical SP parse tree of the serial execution as dot." in
  Cmd.v (Cmd.info "tree" ~doc) Term.(const do_tree $ program_arg $ scale_arg $ output_arg)

(* ---------- record / oracle (offline analysis of saved traces) ---------- *)

let do_record program scale seed spec_str density output =
  let spec = parse_spec ~seed ~density spec_str in
  let prog = resolve_program ~scale program in
  let eng = Engine.create ~spec ~record:true () in
  ignore (Engine.run eng prog);
  let tr = Trace.of_engine eng in
  Trace.save tr output;
  let stats = Engine.stats eng in
  Printf.printf "recorded %s under %s: %d strands, %d accesses -> %s\n" program
    spec_str stats.Engine.n_strands
    (stats.Engine.n_reads + stats.Engine.n_writes)
    output;
  0

let record_output_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Trace file to write.")

let record_cmd =
  let doc = "Execute a program with full recording and save the trace." in
  Cmd.v
    (Cmd.info "record" ~doc)
    Term.(
      const do_record $ program_arg $ scale_arg $ seed_arg $ spec_arg $ density_arg
      $ record_output_arg)

let do_oracle path =
  let tr =
    match Trace.load path with
    | Ok tr -> tr
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  let vr = Oracle.view_read_races_t tr in
  let dr = Oracle.determinacy_races_t tr in
  Printf.printf "trace: %d strands, %d accesses, %d merges\n" tr.Trace.n_strands
    (Array.length tr.Trace.acc_loc)
    (Array.length tr.Trace.merge_from);
  Printf.printf "view-read races: %d reducer(s)%s\n" (List.length vr)
    (if vr = [] then ""
     else " — " ^ String.concat ", " (List.map string_of_int vr));
  Printf.printf "determinacy races: %d location(s)%s\n" (List.length dr)
    (if dr = [] then ""
     else
       " — "
       ^ String.concat ", "
           (List.map (fun l -> Printf.sprintf "%d (%s)" l (Trace.loc_label tr l)) dr));
  if vr = [] && dr = [] then 0 else 1

let trace_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace file.")

let oracle_cmd =
  let doc = "Run the brute-force race oracles on a saved trace." in
  Cmd.v (Cmd.info "oracle" ~doc) Term.(const do_oracle $ trace_arg)

(* ---------- serve / submit / loadtest (the daemon) ---------- *)

module Server = Rader_serve.Server
module Sclient = Rader_serve.Client
module Sproto = Rader_serve.Proto
module Sload = Rader_serve.Load

let addr_conv =
  let parse s = Server.parse_addr s |> Result.map_error (fun m -> `Msg m) in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Server.addr_to_string a))

let addr_arg =
  Arg.(
    value
    & opt addr_conv (Server.Unix_path "/tmp/rader.sock")
    & info [ "addr"; "a" ] ~docv:"ADDR"
        ~doc:
          "Server address: $(b,unix:PATH) or $(b,tcp:HOST:PORT) \
           ($(b,tcp:127.0.0.1:0) picks a free port).")

let do_serve addr workers queue_depth max_deadline default_deadline
    max_events_cap restart_budget restart_window cache_cap retry_after_ms
    drain_grace chaos chaos_seed reach =
  if workers < 1 || queue_depth < 1 then begin
    Printf.eprintf "--workers and --queue-depth must be >= 1\n";
    exit 2
  end;
  let base = Server.default_config ~addr in
  let cfg =
    {
      base with
      Server.workers;
      queue_depth;
      max_deadline_s = max_deadline;
      default_deadline_s = default_deadline;
      max_events_cap;
      restart_budget;
      restart_window_s = restart_window;
      cache_cap;
      retry_after_ms;
      drain_grace_s = drain_grace;
      reach = Option.value reach ~default:base.Server.reach;
      chaos_cfg =
        (match chaos with
        | None -> None
        | Some rate ->
            Some
              {
                Server.crash_rate = rate;
                stall_rate = rate;
                chaos_seed;
              });
    }
  in
  let t = Server.start cfg in
  Server.install_sigterm t;
  Printf.printf "rader serve: listening on %s (%d worker(s), queue %d)\n%!"
    (Server.addr_to_string (Server.bound_addr t))
    workers queue_depth;
  let flush = Server.wait t in
  Printf.printf "rader serve: drained; final state:\n%s\n%!" flush;
  0

let serve_cmd =
  let doc = "Run the race-checking daemon (SIGTERM drains gracefully)." in
  let workers_arg =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue_arg =
    Arg.(
      value & opt int 16
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Admission queue bound; beyond it requests are shed.")
  in
  let max_deadline_arg =
    Arg.(
      value & opt float 30.0
      & info [ "max-deadline-s" ] ~docv:"S" ~doc:"Cap on per-request deadlines.")
  in
  let default_deadline_arg =
    Arg.(
      value & opt float 10.0
      & info [ "default-deadline-s" ] ~docv:"S"
          ~doc:"Deadline applied when a request names none.")
  in
  let max_events_cap_arg =
    Arg.(
      value & opt int 20_000_000
      & info [ "max-events-cap" ] ~docv:"N"
          ~doc:"Cap on per-request event budgets.")
  in
  let restart_budget_arg =
    Arg.(
      value & opt int 8
      & info [ "restart-budget" ] ~docv:"N"
          ~doc:"Worker respawns allowed per rolling window before the pool \
                degrades.")
  in
  let restart_window_arg =
    Arg.(
      value & opt float 10.0
      & info [ "restart-window-s" ] ~docv:"S" ~doc:"Restart-budget window.")
  in
  let cache_cap_arg =
    Arg.(
      value & opt int 256
      & info [ "cache-cap" ] ~docv:"N" ~doc:"LRU verdict-cache capacity.")
  in
  let retry_after_arg =
    Arg.(
      value & opt int 50
      & info [ "retry-after-ms" ] ~docv:"MS"
          ~doc:"Backoff hint attached to shed responses.")
  in
  let drain_grace_arg =
    Arg.(
      value & opt float 10.0
      & info [ "drain-grace-s" ] ~docv:"S"
          ~doc:"Drain wait before leftover queued requests are shed.")
  in
  let chaos_arg =
    Arg.(
      value
      & opt ~vopt:(Some 0.1) (some float) None
      & info [ "chaos" ] ~docv:"RATE"
          ~doc:
            "Inject worker crashes and stalls, each with probability RATE \
             per request (default 0.1 when given bare) — every degradation \
             path becomes reachable deterministically.")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 1337
      & info [ "chaos-seed" ] ~docv:"N" ~doc:"Chaos determinism seed.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const do_serve $ addr_arg $ workers_arg $ queue_arg $ max_deadline_arg
      $ default_deadline_arg $ max_events_cap_arg $ restart_budget_arg
      $ restart_window_arg $ cache_cap_arg $ retry_after_arg $ drain_grace_arg
      $ chaos_arg $ chaos_seed_arg $ reach_arg)

let print_verdict (v : Sproto.verdict) =
  (match v.Sproto.v_result with
  | Some r -> Printf.printf "program finished (result %d)%s\n" r
                (if v.Sproto.cached then " [cached]" else "")
  | None ->
      if v.Sproto.cached then print_endline "[cached]");
  Printf.printf "%d of %d specification(s) run\n" v.Sproto.n_run v.Sproto.n_specs;
  (match v.Sproto.races with
  | [] -> print_endline "no races detected"
  | races ->
      Printf.printf "%d race(s):\n" (List.length races);
      List.iter (fun r -> Printf.printf "  %s\n" r) races);
  List.iter
    (fun (cls, msg) -> Printf.printf "contained failure [%s]: %s\n" cls msg)
    v.Sproto.failures;
  match v.Sproto.status with
  | Sproto.Clean -> 0
  | Sproto.Races -> 1
  | Sproto.Partial -> 3

let do_submit addr mode program scale seed spec_str density max_events
    deadline_s prune health shutdown retries =
  match Sclient.connect addr with
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  | Ok c ->
      let finish code =
        Sclient.close c;
        code
      in
      if health then (
        match Sclient.health c with
        | Ok json ->
            print_endline json;
            finish 0
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            finish 2)
      else if shutdown then (
        match Sclient.shutdown c with
        | Ok () ->
            print_endline "server draining";
            finish 0
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            finish 2)
      else
        match program with
        | None ->
            Printf.eprintf "need a PROGRAM (or --health / --shutdown)\n";
            finish 2
        | Some program -> (
            let sub =
              {
                Sproto.kind =
                  (match mode with
                  | `Check -> Sproto.Check
                  | `Coverage -> Sproto.Coverage
                  | `Lint -> Sproto.Lint
                  | `Verify -> Sproto.Verify);
                program;
                scale;
                seed;
                spec = spec_str;
                density;
                max_events;
                deadline_s;
                prune;
              }
            in
            match Sclient.submit ~retries c sub with
            | Error msg ->
                Printf.eprintf "%s\n" msg;
                finish 2
            | Ok (Sclient.Verdict v) -> finish (print_verdict v)
            | Ok (Sclient.Fault msg) ->
                Printf.printf "internal fault: %s\n" msg;
                finish 3
            | Ok (Sclient.Rejected e) ->
                Printf.eprintf "rejected (%d): %s\n" e.Sproto.code e.Sproto.msg;
                finish 2
            | Ok Sclient.Shed ->
                Printf.printf "server busy: shed after %d retries\n" retries;
                finish 4)

let submit_cmd =
  let doc =
    "Submit a check to a running daemon (exit codes match $(b,rader check), \
     plus 4 when shed)."
  in
  let mode_arg =
    let m =
      Arg.enum
        [
          ("check", `Check);
          ("coverage", `Coverage);
          ("lint", `Lint);
          ("verify", `Verify);
        ]
    in
    Arg.(
      value & opt m `Check
      & info [ "mode"; "m" ] ~docv:"MODE"
          ~doc:
            "Request kind: $(b,check), $(b,coverage), $(b,lint) or \
             $(b,verify).")
  in
  let submit_program_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"PROGRAM"
          ~doc:"Program to analyze (omit with --health/--shutdown).")
  in
  let health_arg =
    Arg.(value & flag & info [ "health" ] ~doc:"Print the server's health JSON.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the server to drain and exit.")
  in
  let retries_arg =
    Arg.(
      value & opt int 5
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Backoff retries when the server sheds (capped exponential \
             with jitter).")
  in
  Cmd.v
    (Cmd.info "submit" ~doc)
    Term.(
      const do_submit $ addr_arg $ mode_arg $ submit_program_arg $ scale_arg
      $ seed_arg $ spec_arg $ density_arg $ max_events_arg $ deadline_arg
      $ prune_arg $ health_arg $ shutdown_arg $ retries_arg)

let do_loadtest addr program scale clients requests malformed_rate seed =
  (* distinct per-request seeds defeat the verdict cache, so the run
     measures the full service path rather than cache lookups *)
  let make i =
    {
      Sproto.kind = Sproto.Check;
      program;
      scale;
      seed = i;
      spec = "none";
      density = 0.5;
      max_events = None;
      deadline_s = None;
      prune = false;
    }
  in
  let res =
    Sload.run ~seed ~malformed_rate ~addr ~clients ~requests_per_client:requests
      ~make ()
  in
  let t = res.Sload.tally in
  Printf.printf
    "%d client(s) x %d request(s): %.1f checks/s over %.2f s\n\
    \  verdicts %d (cached %d)  partials %d  faults %d  sheds %d  rejected %d\n\
    \  malformed sent %d answered %d  transport errors %d\n"
    clients requests res.Sload.checks_per_s res.Sload.elapsed_s t.Sload.verdicts
    t.Sload.cached t.Sload.partials t.Sload.faults t.Sload.sheds
    t.Sload.rejected t.Sload.malformed_sent t.Sload.malformed_answered
    t.Sload.transport_errors;
  if Sload.answered t = t.Sload.sent && t.Sload.transport_errors = 0 then begin
    print_endline "every request answered";
    0
  end
  else begin
    Printf.printf "%d request(s) unanswered\n" (t.Sload.sent - Sload.answered t);
    1
  end

let loadtest_cmd =
  let doc = "Drive a running daemon with many concurrent clients." in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "c"; "clients" ] ~docv:"N" ~doc:"Client threads.")
  in
  let requests_arg =
    Arg.(
      value & opt int 25
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let malformed_arg =
    Arg.(
      value & opt float 0.0
      & info [ "malformed-rate" ] ~docv:"P"
          ~doc:"Probability of preceding a request with a hostile frame.")
  in
  Cmd.v
    (Cmd.info "loadtest" ~doc)
    Term.(
      const do_loadtest $ addr_arg $ program_arg $ scale_arg $ clients_arg
      $ requests_arg $ malformed_arg $ seed_arg)

let () =
  let doc = "race detection for Cilk-style programs that use reducer hyperobjects" in
  let info = Cmd.info "rader" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval'
      (Cmd.group info
         [
           check_cmd;
           coverage_cmd;
           verify_cmd;
           lint_cmd;
           chaos_cmd;
           fuzz_cmd;
           online_cmd;
           sim_cmd;
           dag_cmd;
           tree_cmd;
           record_cmd;
           oracle_cmd;
           serve_cmd;
           submit_cmd;
           loadtest_cmd;
         ])
  in
  (* cmdliner's 124/125 for CLI and internal errors fold into the
     documented usage-error code *)
  exit (if code = Cmd.Exit.cli_error || code = Cmd.Exit.internal_error then 2 else code)
