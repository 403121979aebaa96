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
     rader online   judge seeded structural steal sets; each run's
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
   such, and any races found are still printed. The rule is
   [Diag.status]; the daemon's verdicts follow it too. *)

open Cmdliner
open Rader_runtime
open Rader_core
open Rader_benchsuite
module Obs = Rader_obs.Obs
module Chrome_trace = Rader_obs.Chrome_trace
module An = Rader_analysis
module Reach = Rader_reach.Reach

(* ---------- shared pieces ---------- *)

let usage_error msg =
  prerr_endline msg;
  exit 2

let exit_status ~complete racy = Diag.exit_code (Diag.status ~complete ~racy)
let save path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* [emit out text] prints [text], or writes it to the file [out] names
   and says so. *)
let emit out text =
  match out with
  | None -> print_string text
  | Some path ->
      save path text;
      Printf.printf "wrote %s\n" path

(* [write_chrome_trace path ~process ~counters ~at add] saves a Chrome
   trace of the events [add] puts in, then [counters] at time [at]. *)
let write_chrome_trace path ~process ~counters ~at add =
  let tr = Chrome_trace.create () in
  Chrome_trace.set_process_name tr process;
  add tr;
  Chrome_trace.add_counter tr ~name:"counters" ~tid:0 ~ts_us:at (Obs.to_assoc counters);
  Chrome_trace.save tr path;
  Printf.printf "wrote %s\n" path

(* "$(b,a), $(b,b) or $(b,c)" *)
let bold_alts names =
  let bold = List.map (Printf.sprintf "$(b,%s)") names in
  match List.rev bold with
  | last :: (_ :: _ as rest) -> String.concat ", " (List.rev rest) ^ " or " ^ last
  | _ -> String.concat "" bold

(* ---------- argument convs ---------- *)

(* A conv whose values outside [ok] are a usage error. *)
let checked of_string pp ~expected ok =
  let parse s =
    match of_string s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, pp)

let checked_float = checked float_of_string_opt Format.pp_print_float
let checked_int = checked int_of_string_opt Format.pp_print_int
let positive_int = checked_int ~expected:"an integer >= 1" (fun n -> n >= 1)

let non_negative_float =
  checked_float ~expected:"a finite number >= 0" (fun x -> x >= 0.0 && Float.is_finite x)

let probability =
  checked_float ~expected:"a number in [0,1]" (fun p -> p >= 0.0 && p <= 1.0)

(* ---------- common options ---------- *)

(* An optional FILE flag: --trace-out, --dot, --output and the lint
   baselines. *)
let file_arg names doc =
  Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)

let program_arg =
  let doc =
    "Program to analyze: a benchmark ("
    ^ String.concat ", " Suite.names
    ^ ") or a demo (" ^ String.concat ", " Demos.demo_names ^ ")."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

(* A PROGRAM that may be left out: lint takes --all instead, submit
   --health or --shutdown. *)
let optional_program_arg doc =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let scale_arg =
  let positive =
    checked_float ~expected:"a finite number > 0" (fun x -> x > 0.0 && Float.is_finite x)
  in
  Arg.(
    value & opt positive 0.25 & info [ "scale" ] ~docv:"X" ~doc:"Workload scale factor.")

(* The registry lives in [Rader_benchsuite.Demos] so the serve daemon
   resolves exactly the same programs; here an unknown name is a usage
   error. *)
let resolve ~scale name =
  match Demos.resolve ~scale name with Ok prog -> prog | Error msg -> usage_error msg

(* The program a subcommand runs: its name and its resolved body. *)
let program_t =
  Term.(const (fun name scale -> (name, resolve ~scale name)) $ program_arg $ scale_arg)

let seed_arg =
  Arg.(value & opt int 20150613 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let spec_arg =
  let doc =
    "Steal specification: $(b,none), $(b,all), $(b,random) (with --density), or a \
     comma-separated list of sync-block continuation indices, e.g. $(b,1,2,3)."
  in
  Arg.(value & opt string "none" & info [ "steal"; "s" ] ~docv:"SPEC" ~doc)

let density_arg =
  Arg.(
    value
    & opt probability 0.5
    & info [ "density" ] ~docv:"P" ~doc:"Steal probability for --steal random.")

(* The steal specification: the --steal text and its parse. *)
let spec_t =
  let parse text seed density =
    match Steal_spec.parse ~seed ~density text with
    | Ok spec -> (text, spec)
    | Error msg -> usage_error msg
  in
  Term.(const parse $ spec_arg $ seed_arg $ density_arg)

let detector_arg =
  let names = List.map fst Detectors.table in
  let doc = "Detector: " ^ bold_alts names ^ "." in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) "sp+"
    & info [ "detector"; "d" ] ~docv:"NAME" ~doc)

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

(* The budgets: --max-events and --deadline-s. *)
let budgets_t =
  let max_events =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-events" ] ~docv:"N"
          ~doc:
            "Abort a run (exit 3) after N engine events (strand starts + \
             instrumented accesses); results cover the completed prefix.")
  in
  let deadline =
    Arg.(
      value
      & opt (some non_negative_float) None
      & info [ "deadline-s" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget in seconds; on expiry the run is contained \
             (exit 3) and results cover the completed prefix.")
  in
  Term.(const (fun m d -> (m, d)) $ max_events $ deadline)

(* The absolute deadline of a run that starts now. *)
let deadline_of deadline_s = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s

let jobs_arg =
  Arg.(
    value
    & opt (checked_int ~expected:"an integer >= 0" (fun n -> n >= 0)) 1
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

(* The outputs: --metrics and --trace-out. *)
let outputs_t =
  let trace_out =
    file_arg [ "trace-out" ]
      "Write a Chrome trace_event JSON file of the analysis — load it \
       in Perfetto or chrome://tracing. Implies counter collection."
  in
  Term.(const (fun m t -> (m, t)) $ metrics_arg $ trace_out)

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

(* The race list of check, online and submit. *)
let print_races = function
  | [] -> print_endline "no races detected"
  | races ->
      Printf.printf "%d race(s):\n" (List.length races);
      List.iter (Printf.printf "  %s\n") races

(* ---------- check ---------- *)

let do_check (spec_str, spec) (program, prog) detector reach (max_events, deadline_s)
    (metrics, trace_out) =
  let eng = Engine.create ~spec ?max_events ?deadline:(deadline_of deadline_s) () in
  let races = (List.assoc detector Detectors.table) ~reach eng in
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
  print_races (List.map Report.to_string races);
  (match (delta, metrics) with
  | Some c, Some fmt ->
      print_metrics fmt c ~phases:[ ("run", (t1_us -. t0_us) /. 1e6) ]
  | _ -> ());
  (match (delta, trace_out) with
  | Some counters, Some path ->
      write_chrome_trace path ~process:("rader check " ^ program) ~counters ~at:t1_us
        (fun tr ->
          Chrome_trace.set_thread_name tr ~tid:0 "main";
          Chrome_trace.add_complete ~cat:"run"
            ~args:[ ("spec", spec_str); ("detector", detector) ]
            tr ~name:program ~tid:0 ~ts_us:t0_us ~dur_us:(t1_us -. t0_us) ())
  | _ -> ());
  (match verdict with
  | Ok _ -> ()
  | Error f ->
      Printf.printf "contained failure: %s\n" (Diag.to_string f);
      if races <> [] then
        print_endline "(the races above cover the completed prefix only)");
  exit_status ~complete:(Result.is_ok verdict) (races <> [])

let check_cmd =
  let doc = "Run a program under a detector and steal specification." in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const do_check $ spec_t $ program_t $ detector_arg $ reach_arg $ budgets_t
      $ outputs_t)

(* ---------- coverage ---------- *)

let do_coverage (program, prog) verbose max_specs (max_events, deadline_s) jobs prune
    reach (metrics, trace_out) =
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
      Option.iter
        (fun fmt ->
          print_metrics fmt o.Coverage.obs_counters ~phases:o.Coverage.obs_phases)
        metrics;
      Option.iter
        (fun path ->
          write_chrome_trace path ~process:("rader coverage " ^ program)
            ~counters:o.Coverage.obs_counters ~at:(Obs.now_us ()) (fun tr ->
              List.iter
                (fun (s : Coverage.span) ->
                  let worker = s.Coverage.span_worker in
                  Chrome_trace.set_thread_name tr ~tid:worker
                    (Printf.sprintf "worker %d" worker);
                  Chrome_trace.add_complete ~cat:"replay" tr ~name:s.Coverage.span_spec
                    ~tid:worker ~ts_us:s.Coverage.span_t0_us
                    ~dur_us:(s.Coverage.span_t1_us -. s.Coverage.span_t0_us) ())
                o.Coverage.obs_spans))
        trace_out);
  (match res.Coverage.reports with
  | [] ->
      print_endline "no determinacy races under any specification that ran";
      print_endline "racy locs:"
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
           (List.map (fun l -> " " ^ string_of_int l) res.Coverage.racy_locs)));
  if not res.Coverage.complete then begin
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
    let n = List.length res.Coverage.incomplete in
    if n > 10 then Printf.printf "  ... and %d more\n" (n - 10)
  end;
  exit_status ~complete:res.Coverage.complete (res.Coverage.reports <> [])

let coverage_cmd =
  let doc = "Exhaustively check every possible view-aware strand (paper §7)." in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print per-specification results.")
  in
  let max_specs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-specs" ] ~docv:"N"
          ~doc:
            "Attempt at most N steal specifications; the rest are reported \
             as incomplete (exit 3).")
  in
  Cmd.v
    (Cmd.info "coverage" ~doc)
    Term.(
      const do_coverage $ program_t $ verbose_arg $ max_specs_arg $ budgets_t $ jobs_arg
      $ prune_arg $ reach_arg $ outputs_t)

(* ---------- verify: symbolic whole-spec-space verification ---------- *)

let do_verify (program, prog) json reach max_pairs jobs (max_events, deadline_s)
    metrics =
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
      exit_status ~complete:false false
  | Ok w ->
      if json then print_string (An.Witness.to_json w ^ "\n")
      else print_string (An.Witness.to_table w);
      (match (w.An.Witness.res.Coverage.obs, metrics) with
      | Some o, Some fmt ->
          print_metrics fmt o.Coverage.obs_counters ~phases:o.Coverage.obs_phases
      | _ -> ());
      exit_status ~complete:w.An.Witness.complete (w.An.Witness.racy_locs <> [])

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
  let max_pairs_arg =
    Arg.(
      value
      & opt int 100_000
      & info [ "max-pairs" ] ~docv:"N"
          ~doc:
            "Per-location budget for the symbolic pair scan; past it the \
             scan is reported truncated and the no-steal replay is kept \
             (the verdict stays sound, the symbolic detail partial).")
  in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(
      const do_verify $ program_t $ json_arg $ reach_arg $ max_pairs_arg $ jobs_arg
      $ budgets_t $ metrics_arg)

(* ---------- lint ---------- *)

let do_lint program all scale reach json dot_out baseline write_baseline =
  let programs =
    match (program, all) with
    | Some p, false -> [ p ]
    | None, true -> Demos.names ()
    | Some _, true -> usage_error "PROGRAM and --all are mutually exclusive"
    | None, false -> usage_error "need a PROGRAM or --all"
  in
  let expected =
    Option.map
      (fun path ->
        match In_channel.with_open_text path In_channel.input_lines with
        | lines -> List.filter (fun l -> l <> "") lines
        | exception Sys_error msg -> usage_error ("--baseline: " ^ msg))
      baseline
  in
  let failures = ref 0 in
  let results =
    List.filter_map
      (fun name ->
        let prog = resolve ~scale name in
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
  | Some _, [ (_, ir, findings) ] -> emit dot_out (An.Lint.to_dot ir findings)
  | Some _, _ -> usage_error "--dot needs exactly one successfully linted program"
  | None, _ -> ());
  let lines =
    List.concat_map
      (fun (name, _, findings) -> An.Lint.baseline_lines ~program:name findings)
      results
  in
  Option.iter
    (fun path ->
      save path (String.concat "" (List.map (fun l -> l ^ "\n") lines));
      Printf.printf "wrote %d baseline line(s) to %s\n" (List.length lines) path)
    write_baseline;
  let n_findings =
    List.fold_left (fun acc (_, _, fs) -> acc + List.length fs) 0 results
  in
  (* A contained failure decides the code alone: no baseline comparison. *)
  let racy =
    !failures = 0
    &&
    match expected with
    | Some expected ->
        let missing = List.filter (fun l -> not (List.mem l lines)) expected in
        let extra = List.filter (fun l -> not (List.mem l expected)) lines in
        if missing = [] && extra = [] then begin
          Printf.printf "lint baseline OK (%d finding(s))\n" n_findings;
          false
        end
        else begin
          List.iter (fun l -> Printf.printf "-%s\n" l) missing;
          List.iter (fun l -> Printf.printf "+%s\n" l) extra;
          Printf.printf
            "lint baseline DRIFT: %d missing, %d new (regen with \
             --write-baseline)\n"
            (List.length missing) (List.length extra);
          true
        end
    | None -> n_findings > 0
  in
  exit_status ~complete:(!failures = 0) racy

let lint_cmd =
  let doc =
    "Statically lint a program for reducer misuse (rules R001-R006) over \
     the canonical SP parse tree of one recorded run."
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Lint every benchmark and demo program.")
  in
  let json_arg =
    Arg.(
      value
      & flag
      & info [ "json" ] ~doc:"Emit findings as JSON, one object per program.")
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const do_lint
      $ optional_program_arg "Program to lint (omit with $(b,--all))."
      $ all_arg $ scale_arg $ reach_arg $ json_arg
      $ file_arg [ "dot" ]
          "Write the SP parse tree with finding-bearing strands colored \
           (single-program mode only)."
      $ file_arg [ "baseline" ]
          "Compare findings against a checked-in expected-findings file; \
           exit 1 on any drift."
      $ file_arg [ "write-baseline" ] "Write the current findings as a baseline file.")

(* ---------- chaos ---------- *)

let do_chaos (_, prog) =
  let outcomes = Rader_chaos.Chaos.run_all prog in
  List.iter
    (fun o -> print_endline (Rader_chaos.Chaos.outcome_to_string o))
    outcomes;
  let bad = List.filter (fun o -> not (Rader_chaos.Chaos.ok o)) outcomes in
  if bad = [] then Printf.printf "all %d perturbations contained\n" (List.length outcomes)
  else
    Printf.printf "%d of %d perturbations NOT contained\n" (List.length bad)
      (List.length outcomes);
  exit_status ~complete:(bad = []) false

let chaos_cmd =
  let doc =
    "Perturb a program with every fault class (raising strands, raising \
     reduce/identity, non-associative monoid, invalid spec, budget \
     blowouts) and verify the pipeline contains each one."
  in
  Cmd.v (Cmd.info "chaos" ~doc) Term.(const do_chaos $ program_t)

(* ---------- fuzz ---------- *)

let do_fuzz (_, prog) seed runs workers =
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
  exit_status ~complete:true (List.length values > 1)

let fuzz_cmd =
  let doc = "Run under randomized simulated work-stealing schedules." in
  let runs_arg =
    Arg.(value & opt int 16 & info [ "runs"; "n" ] ~docv:"N" ~doc:"Number of schedules.")
  in
  let workers_arg =
    Arg.(
      value & opt positive_int 8
      & info [ "workers"; "p" ] ~docv:"P" ~doc:"Simulated workers.")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(const do_fuzz $ program_t $ seed_arg $ runs_arg $ workers_arg)

(* ---------- online: structural steal sets, judged by serial replay ---------- *)

let do_online (_, prog) seed runs density reach (max_events, deadline_s) metrics
    trace_out =
  let module O = Rader_sched.Online in
  let judge = O.judge ?reach prog in
  let obs_was = Obs.enabled () in
  if metrics <> None then Obs.set_enabled true;
  let snap = Obs.snapshot () in
  let t0_us = Obs.now_us () in
  let union : Report.t list ref = ref [] in
  let first_failure = ref None in
  let total_steals = ref 0 in
  let racy_trace = ref None in
  let last_trace = ref None in
  for i = 0 to runs - 1 do
    let run_seed = seed + i in
    let run =
      O.run ?max_events ?deadline:(deadline_of deadline_s) judge ~seed:run_seed
        ~density
    in
    total_steals := !total_steals + Steal_trace.n_steals run.O.trace;
    last_trace := Some run.O.trace;
    if run.O.races <> [] && !racy_trace = None then racy_trace := Some run.O.trace;
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
      run.O.races;
    Printf.printf "run seed=%d: %d structural steals, %s%s\n" run_seed
      (Steal_trace.n_steals run.O.trace)
      (match run.O.value with
      | Ok v -> Printf.sprintf "result %d" v
      | Error f -> Printf.sprintf "contained: %s" (Diag.class_name f))
      (if run.O.races = [] then ""
       else Printf.sprintf ", %d race(s)" (List.length run.O.races));
    match run.O.value with
    | Error f when !first_failure = None -> first_failure := Some f
    | _ -> ()
  done;
  let verdict_s = (Obs.now_us () -. t0_us) /. 1e6 in
  let counters = Obs.since snap in
  Obs.set_enabled obs_was;
  let union =
    List.sort
      (fun a b ->
        match compare a.Report.kind b.Report.kind with
        | 0 -> compare a.Report.subject b.Report.subject
        | c -> c)
      !union
  in
  Printf.printf "%d run(s): %d structural steals\n" runs !total_steals;
  print_races (List.map Report.to_string union);
  Option.iter
    (fun fmt -> print_metrics fmt counters ~phases:[ ("verdict", verdict_s) ])
    metrics;
  (match (trace_out, if !racy_trace <> None then !racy_trace else !last_trace) with
  | Some _, Some tr -> emit trace_out (Steal_trace.to_string tr)
  | _ -> ());
  Option.iter
    (fun f -> Printf.printf "contained failure: %s\n" (Diag.to_string f))
    !first_failure;
  exit_status ~complete:(!first_failure = None) (union <> [])

let online_cmd =
  let doc =
    "Judge a program under seeded work-stealing schedules: each run steals \
     a structural set of continuations (a seeded hash of fork paths against \
     --density), and its verdict is the serial detectors' under those steals."
  in
  let runs_arg =
    Arg.(
      value & opt positive_int 8
      & info [ "runs"; "n" ] ~docv:"K"
          ~doc:"Number of online runs, with seeds SEED, SEED+1, ...")
  in
  let trace_out_arg =
    file_arg [ "trace-out" ]
      "Write the steal trace of the first racy run (or the last run \
       when all are clean): a human-readable record of which \
       continuations were stolen. Nothing reads it back."
  in
  Cmd.v
    (Cmd.info "online" ~doc)
    Term.(
      const do_online $ program_t $ seed_arg $ runs_arg $ density_arg $ reach_arg
      $ budgets_t $ metrics_arg $ trace_out_arg)

(* ---------- commands that record one run, then render it ---------- *)

(* A row: the name, the doc, the steal specification (dag and record take
   --steal) and the renderer, which reads the recorded engine. *)
let recorded_cmd (name, doc, steals_t, render_t) =
  let go (spec_str, spec) (program, prog) render =
    let eng = Engine.create ~spec ~record:true () in
    ignore (Engine.run eng prog);
    render ~program ~spec:spec_str eng;
    exit_status ~complete:true false
  in
  Cmd.v (Cmd.info name ~doc) Term.(const go $ steals_t $ program_t $ render_t)

let recorded_cmds =
  let no_steals = Term.const ("none", Steal_spec.none) in
  let dot_out = file_arg [ "output"; "o" ] "Write dot to FILE instead of stdout." in
  let trace_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Trace file to write.")
  in
  let dot to_dot =
    Term.(const (fun out ~program:_ ~spec:_ eng -> emit out (to_dot eng)) $ dot_out)
  in
  let record output ~program ~spec eng =
    Trace.save (Trace.of_engine eng) output;
    let stats = Engine.stats eng in
    Printf.printf "recorded %s under %s: %d strands, %d accesses -> %s\n" program spec
      stats.Engine.n_strands
      (stats.Engine.n_reads + stats.Engine.n_writes)
      output
  in
  let sim seed ~program:_ ~spec:_ eng =
    Printf.printf "workers  makespan  speedup  steals\n";
    let t1 = ref 0 in
    List.iter
      (fun p ->
        let res = Rader_sched.Wsim.simulate ~workers:p ~seed eng in
        if p = 1 then t1 := res.Rader_sched.Wsim.makespan;
        Printf.printf "%7d %9d %8.2f %7d\n" p res.Rader_sched.Wsim.makespan
          (float_of_int !t1 /. float_of_int res.Rader_sched.Wsim.makespan)
          res.Rader_sched.Wsim.n_steals)
      [ 1; 2; 4; 8; 16; 32 ]
  in
  List.map recorded_cmd
    [
      ( "sim",
        "Simulate randomized work stealing over the recorded dag.",
        no_steals,
        Term.(const sim $ seed_arg) );
      ( "dag",
        "Dump the performance dag of an execution as Graphviz dot.",
        spec_t,
        dot (fun eng -> Rader_dag.Dag.to_dot (Trace.dag (Trace.of_engine eng))) );
      ( "tree",
        "Dump the canonical SP parse tree of the serial execution as dot.",
        no_steals,
        dot (fun eng -> Rader_dag.Sp_tree.to_dot (Trace.sp_tree (Trace.of_engine eng))) );
      ( "record",
        "Execute a program with full recording and save the trace.",
        spec_t,
        Term.(const record $ trace_file) );
    ]

(* ---------- oracle (offline analysis of saved traces) ---------- *)

let do_oracle path =
  let tr = match Trace.load path with Ok tr -> tr | Error msg -> usage_error msg in
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
  exit_status ~complete:true (vr <> [] || dr <> [])

let oracle_cmd =
  let doc = "Run the brute-force race oracles on a saved trace." in
  let trace_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  Cmd.v (Cmd.info "oracle" ~doc) Term.(const do_oracle $ trace_arg)

(* ---------- serve / submit / loadtest (the daemon) ---------- *)

module Server = Rader_serve.Server
module Sclient = Rader_serve.Client
module Sproto = Rader_serve.Proto
module Sload = Rader_serve.Load

let addr_conv =
  let parse s = Server.parse_addr s |> Result.map_error (fun m -> `Msg m) in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Server.addr_to_string a))

let default_addr = Server.Unix_path "/tmp/rader.sock"

let addr_arg =
  Arg.(
    value
    & opt addr_conv default_addr
    & info [ "addr"; "a" ] ~docv:"ADDR"
        ~doc:
          "Server address: $(b,unix:PATH) or $(b,tcp:HOST:PORT) \
           ($(b,tcp:127.0.0.1:0) picks a free port).")

let do_serve cfg =
  let t = Server.start cfg in
  Server.install_sigterm t;
  Printf.printf "rader serve: listening on %s (%d worker(s), queue %d)\n%!"
    (Server.addr_to_string (Server.bound_addr t))
    cfg.Server.workers cfg.Server.queue_depth;
  let flush = Server.wait t in
  Printf.printf "rader serve: drained; final state:\n%s\n%!" flush;
  0

(* Each flag sets one field of the daemon's config; a field's default is
   its value in [Server.default_config]. *)
let serve_cmd =
  let doc = "Run the race-checking daemon (SIGTERM drains gracefully)." in
  let d = Server.default_config ~addr:default_addr in
  let field conv name docv doc default set =
    let arg = Arg.value (Arg.opt conv default (Arg.info [ name ] ~docv ~doc)) in
    Term.(const (fun v cfg -> set cfg v) $ arg)
  in
  let chaos_arg =
    Arg.(
      value
      & opt ~vopt:(Some 0.1) (some probability) None
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
  let chaos rate chaos_seed cfg =
    let chaos_cfg =
      Option.map (fun r -> { Server.crash_rate = r; stall_rate = r; chaos_seed }) rate
    in
    { cfg with Server.chaos_cfg }
  in
  let reach r cfg = match r with None -> cfg | Some reach -> { cfg with Server.reach } in
  let fields =
    [
      Term.(const (fun addr cfg -> { cfg with Server.addr }) $ addr_arg);
      field positive_int "workers" "N" "Worker domains." d.workers (fun c workers ->
          { c with Server.workers });
      field positive_int "queue-depth" "N"
        "Admission queue bound; beyond it requests are shed." d.queue_depth
        (fun c queue_depth -> { c with Server.queue_depth });
      field non_negative_float "max-deadline-s" "S" "Cap on per-request deadlines."
        d.max_deadline_s (fun c max_deadline_s -> { c with Server.max_deadline_s });
      field non_negative_float "default-deadline-s" "S"
        "Deadline applied when a request names none." d.default_deadline_s
        (fun c default_deadline_s -> { c with Server.default_deadline_s });
      field Arg.int "max-events-cap" "N" "Cap on per-request event budgets."
        d.max_events_cap (fun c max_events_cap -> { c with Server.max_events_cap });
      field Arg.int "restart-budget" "N"
        "Worker respawns allowed per rolling window before the pool degrades."
        d.restart_budget (fun c restart_budget -> { c with Server.restart_budget });
      field non_negative_float "restart-window-s" "S" "Restart-budget window."
        d.restart_window_s (fun c restart_window_s -> { c with Server.restart_window_s });
      field Arg.int "cache-cap" "N" "LRU verdict-cache capacity." d.cache_cap
        (fun c cache_cap -> { c with Server.cache_cap });
      field Arg.int "retry-after-ms" "MS" "Backoff hint attached to shed responses."
        d.retry_after_ms (fun c retry_after_ms -> { c with Server.retry_after_ms });
      field non_negative_float "drain-grace-s" "S"
        "Drain wait before leftover queued requests are shed." d.drain_grace_s
        (fun c drain_grace_s -> { c with Server.drain_grace_s });
      Term.(const chaos $ chaos_arg $ chaos_seed_arg);
      Term.(const reach $ reach_arg);
    ]
  in
  let config =
    List.fold_left
      (fun cfg set -> Term.(const (fun c f -> f c) $ cfg $ set))
      (Term.const d) fields
  in
  Cmd.v (Cmd.info "serve" ~doc) Term.(const do_serve $ config)

let print_verdict (v : Sproto.verdict) =
  (match v.Sproto.v_result with
  | Some r -> Printf.printf "program finished (result %d)%s\n" r
                (if v.Sproto.cached then " [cached]" else "")
  | None ->
      if v.Sproto.cached then print_endline "[cached]");
  Printf.printf "%d of %d specification(s) run\n" v.Sproto.n_run v.Sproto.n_specs;
  print_races v.Sproto.races;
  List.iter
    (fun (cls, msg) -> Printf.printf "contained failure [%s]: %s\n" cls msg)
    v.Sproto.failures;
  Diag.exit_code v.Sproto.status

let do_submit addr kind program scale seed spec density (max_events, deadline_s) prune
    health shutdown retries =
  let c = match Sclient.connect addr with Ok c -> c | Error msg -> usage_error msg in
  let fail msg =
    prerr_endline msg;
    2
  in
  let code =
    if health then
      match Sclient.health c with
      | Ok json ->
          print_endline json;
          0
      | Error msg -> fail msg
    else if shutdown then
      match Sclient.shutdown c with
      | Ok () ->
          print_endline "server draining";
          0
      | Error msg -> fail msg
    else
      match program with
      | None -> fail "need a PROGRAM (or --health / --shutdown)"
      | Some program -> (
          let sub =
            {
              Sproto.kind;
              program;
              scale;
              seed;
              spec;
              density;
              max_events;
              deadline_s;
              prune;
            }
          in
          match Sclient.submit ~retries c sub with
          | Error msg -> fail msg
          | Ok (Sclient.Verdict v) -> print_verdict v
          | Ok (Sclient.Fault msg) ->
              Printf.printf "internal fault: %s\n" msg;
              3
          | Ok (Sclient.Rejected e) ->
              fail (Printf.sprintf "rejected (%d): %s" e.Sproto.code e.Sproto.msg)
          | Ok Sclient.Shed ->
              Printf.printf "server busy: shed after %d retries\n" retries;
              4)
  in
  Sclient.close c;
  code

let submit_cmd =
  let doc =
    "Submit a check to a running daemon (exit codes match $(b,rader check), \
     plus 4 when shed)."
  in
  let kind_arg =
    let kinds =
      [
        ("check", Sproto.Check);
        ("coverage", Sproto.Coverage);
        ("lint", Sproto.Lint);
        ("verify", Sproto.Verify);
      ]
    in
    let doc = "Request kind: " ^ bold_alts (List.map fst kinds) ^ "." in
    Arg.(value & opt (enum kinds) Sproto.Check & info [ "mode"; "m" ] ~docv:"MODE" ~doc)
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
      const do_submit $ addr_arg $ kind_arg
      $ optional_program_arg "Program to analyze (omit with --health/--shutdown)."
      $ scale_arg $ seed_arg $ spec_arg $ density_arg $ budgets_t $ prune_arg
      $ health_arg $ shutdown_arg $ retries_arg)

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
         ([ check_cmd; coverage_cmd; verify_cmd; lint_cmd; chaos_cmd; fuzz_cmd ]
         @ (online_cmd :: recorded_cmds)
         @ [ oracle_cmd; serve_cmd; submit_cmd; loadtest_cmd ]))
  in
  (* cmdliner's 124/125 for CLI and internal errors fold into the
     documented usage-error code *)
  exit (if code = Cmd.Exit.cli_error || code = Cmd.Exit.internal_error then 2 else code)
