(* The command line end to end: each case runs the built rader binary and
   pins what it prints on stdout and the exit code it returns, in one file
   per case under test/golden/cli/. Stderr is not pinned (usage wording
   may change; exit code 2 may not). Cases are the deterministic
   invocations of every subcommand but the daemon: no --metrics phase
   timings.

   A case can write input files before its first run and pin files its
   runs write ([files]). An absolute deadline is printed as wall-clock
   time, so "deadline (T, unix time)" is masked to "deadline (T, ...)".

   To re-baseline intentionally:
     RADER_GOLDEN_REGEN=$PWD/test/golden dune runtest   (from the repo root)
   then review the diff like any other code change. *)

let rader = "../bin/rader.exe"

type case = {
  name : string;
  inputs : (string * string) list;  (** files written before the runs *)
  runs : string list list;  (** argument vectors, run in order *)
  files : string list;  (** files the runs write, pinned after them *)
}

let case ?(inputs = []) ?(files = []) name runs = { name; inputs; runs; files }
let one ?inputs ?files name args = case ?inputs ?files name [ args ]
let words = String.split_on_char ' '

let read_file path =
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  body

let write_file path body =
  let oc = open_out_bin path in
  output_string oc body;
  close_out oc

(* [run args] is rader's stdout and exit code; stderr is dropped. *)
let run args =
  let out = Filename.temp_file "rader-cli" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process rader (Array.of_list (rader :: args)) Unix.stdin fd null
  in
  Unix.close fd;
  Unix.close null;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 1000 + s
  in
  let text = read_file out in
  Sys.remove out;
  (text, code)

let mask_deadlines text =
  let re = Str.regexp "deadline ([0-9.]+, unix time)" in
  Str.global_replace re "deadline (T, unix time)" text

let render c =
  let b = Buffer.create 1024 in
  List.iter (fun (path, body) -> write_file path body) c.inputs;
  List.iter
    (fun args ->
      let out, code = run args in
      Printf.bprintf b "$ rader %s\n%s[exit %d]\n" (String.concat " " args)
        (mask_deadlines out) code)
    c.runs;
  List.iter (fun path -> Printf.bprintf b "== %s\n%s" path (read_file path)) c.files;
  Buffer.contents b

(* ---------- the cases ---------- *)

let detectors = [ "peerset"; "spbags"; "sporder"; "offsetspan"; "sp+" ]

let check_cases =
  List.map
    (fun d ->
      one ("check_fig1-buggy_all_" ^ d) (words ("check fig1-buggy -s all -d " ^ d)))
    detectors
  @ [
      one "check_racy-read_peerset" (words "check racy-read -d peerset");
      one "check_racy-read_peerset_depa"
        (words "check racy-read -d peerset --reach depa");
      one "check_fig1-buggy_all_depa" (words "check fig1-buggy -s all --reach depa");
      one "check_fib_all_depa" (words "check fib --scale 0.05 -s all --reach depa");
      one "check_fib_clean" (words "check fib --scale 0.05");
      one "check_fig1-buggy_steal_123" (words "check fig1-buggy --steal 1,2,3");
      one "check_fib_random"
        (words "check fib --scale 0.05 -s random --density 0.3 --seed 7");
      one "check_fib_impossible_spec" (words "check fib --steal 99");
      one "check_fib_max-events" (words "check fib --max-events 200");
      one "check_fib-racy_all_trace-out"
        (words "check fib-racy -s all --trace-out check.json");
    ]

let coverage_cases =
  [
    one "coverage_racy-read" (words "coverage racy-read");
    one "coverage_racy-read_max-specs" (words "coverage racy-read --max-specs 2");
    one "coverage_fib_prune_v" (words "coverage fib --scale 0.05 --prune -v");
    one "coverage_fig1-buggy_prune_v"
      (words "coverage fig1-buggy --scale 0.05 --prune -v");
    one "coverage_fib_jobs-2" (words "coverage fib --scale 0.05 --jobs 2");
    one "coverage_fig1-buggy_jobs-2_depa"
      (words "coverage fig1-buggy --scale 0.05 --jobs 2 --reach depa");
    one "coverage_fib_max-events" (words "coverage fib --scale 0.05 --max-events 200");
    one "coverage_fig1-buggy_trace-out"
      (words "coverage fig1-buggy --scale 0.05 --trace-out coverage.json");
  ]

let verify_cases =
  [
    one "verify_fig1-buggy_table" (words "verify fig1-buggy");
    one "verify_fig1-buggy_json" (words "verify fig1-buggy --json");
    one "verify_fig1-fixed_table" (words "verify fig1-fixed");
    one "verify_racy-read_max-pairs" (words "verify racy-read --max-pairs 7 --jobs 2");
    one "verify_fib_max-events" (words "verify fib --scale 0.05 --max-events 200");
  ]

let lint_cases =
  [
    one "lint_all_baseline"
      (words "lint --all --scale 0.05 --baseline lint_baseline.txt");
    one "lint_fig1-buggy" (words "lint fig1-buggy");
    one "lint_fig1-fixed" (words "lint fig1-fixed");
    one "lint_fig1-buggy_json" (words "lint fig1-buggy --json");
    one ~files:[ "lint.dot" ] "lint_fig1-buggy_dot"
      (words "lint fig1-buggy --dot lint.dot");
    one ~files:[ "lint_baseline.out" ] "lint_all_write-baseline"
      (words "lint --all --scale 0.05 --write-baseline lint_baseline.out");
  ]

let run_cases =
  [
    one "chaos_fib" (words "chaos fib --scale 0.05");
    one "chaos_fig1-buggy" (words "chaos fig1-buggy --scale 0.05");
    one "fuzz_racy-read" (words "fuzz racy-read");
    one "fuzz_fib" (words "fuzz fib --scale 0.05 -p 4 -n 8");
    one "sim_fib" (words "sim fib --scale 0.05 --seed 3");
    one "dag_fig1-buggy" (words "dag fig1-buggy");
    one ~files:[ "dag.dot" ] "dag_fig1-buggy_all_output"
      (words "dag fig1-buggy -s all -o dag.dot");
    one "tree_fig1-buggy" (words "tree fig1-buggy");
    one ~files:[ "tree.dot" ] "tree_fig1-fixed_output"
      (words "tree fig1-fixed -o tree.dot");
    case "record_oracle_fig1-buggy"
      [ words "record fig1-buggy -s all -o fig1.trace"; words "oracle fig1.trace" ];
    case "record_oracle_fib-racy"
      [ words "record fib-racy -s 1,2 -o fib-racy.trace"; words "oracle fib-racy.trace" ];
    one "online_fib-racy" (words "online fib-racy --seed 1 --runs 8");
    one "online_racy-read_depa" (words "online racy-read --runs 3 --reach depa");
    one "online_fib_replay-budget"
      (words "online fib --scale 0.05 --seed 1 --runs 2 --max-events 225000");
    one ~files:[ "online.steal-trace" ] "online_fig1-buggy_trace-out"
      (words "online fig1-buggy --runs 2 --trace-out online.steal-trace");
  ]

(* Each exits 2 (usage error) before anything runs. *)
let usage_cases =
  [
    one "usage_no-command" [];
    one "usage_unknown-command" [ "nosuch" ];
    one "usage_check_no-program" [ "check" ];
    one "usage_check_unknown-program" (words "check no-such-program");
    one "usage_check_bad-detector" (words "check fib -d nosuch");
    one "usage_check_bad-spec" (words "check fib -s bogus");
    one "usage_check_density" (words "check fib -s random --density 2.0");
    one "usage_check_scale-0" (words "check fib --scale 0");
    one "usage_coverage_jobs" (words "coverage fib --jobs -1");
    one "usage_coverage_jobs-negative" (words "coverage fib --jobs=-1");
    one "usage_verify_jobs" (words "verify fib --jobs -1");
    one "usage_verify_jobs-negative" (words "verify fib --jobs=-1");
    one "usage_online_runs" (words "online fib --runs 0");
    one "usage_lint_program-and-all" (words "lint fig1-buggy --all");
    one "usage_lint_nothing" [ "lint" ];
    one "usage_lint_dot_all" (words "lint --all --scale 0.05 --dot all.dot");
    one "usage_lint_missing-baseline" (words "lint fig1-buggy --baseline /nonexistent");
    one "usage_fuzz_workers" (words "fuzz fib --workers 0");
    one "usage_oracle_missing" (words "oracle no-such.trace");
    one ~inputs:[ ("v1.trace", "rader-trace 1\n") ] "usage_oracle_v1"
      (words "oracle v1.trace");
    one "usage_serve_workers" (words "serve --workers 0");
    one "usage_serve_queue-depth" (words "serve --queue-depth 0");
    (* each of these would otherwise start a daemon that never exits *)
    one "usage_serve_max-deadline-nan" (words "serve --max-deadline-s nan");
    one "usage_serve_default-deadline-inf" (words "serve --default-deadline-s inf");
    one "usage_serve_restart-window-negative" (words "serve --restart-window-s=-1");
    one "usage_serve_drain-grace-nan" (words "serve --drain-grace-s nan");
    one "usage_serve_chaos-rate" (words "serve --chaos 2");
    one "usage_submit_bad-addr" (words "submit --addr nowhere fib");
    one "usage_submit_no-server"
      (words "submit --addr unix:/nonexistent-dir/rader.sock fib");
    (* --deadline-s takes a finite number >= 0: NaN never expires, so it
       would turn the budget off *)
    one "usage_check_deadline-nan" (words "check fib --scale 1 --deadline-s nan");
    one "usage_check_deadline-inf" (words "check fib --deadline-s inf");
    one "usage_check_deadline-negative" (words "check fib --deadline-s=-1");
    one "usage_coverage_deadline-nan"
      (words "coverage fib --scale 0.05 --deadline-s nan");
    one "usage_verify_deadline-inf" (words "verify fib --scale 0.05 --deadline-s inf");
    one "usage_online_deadline-negative" (words "online fib --deadline-s=-1");
    one "usage_submit_deadline-nan"
      (words "submit --addr unix:/nonexistent-dir/rader.sock fib --deadline-s nan");
  ]

let cases =
  check_cases @ coverage_cases @ verify_cases @ lint_cases @ run_cases @ usage_cases

(* ---------- golden comparison ---------- *)

let golden_case c () =
  let rendered = render c in
  let file = c.name ^ ".golden" in
  match Sys.getenv_opt "RADER_GOLDEN_REGEN" with
  | Some dir -> write_file (Filename.concat (Filename.concat dir "cli") file) rendered
  | None ->
      let path = Filename.concat "golden/cli" file in
      if not (Sys.file_exists path) then
        Alcotest.failf
          "missing golden file cli/%s — generate with \
           RADER_GOLDEN_REGEN=$PWD/test/golden dune runtest"
          file;
      let expected = read_file path in
      if expected <> rendered then begin
        Printf.printf "--- expected (cli/%s)\n%s--- got\n%s" file expected rendered;
        Alcotest.failf
          "cli/%s: output drifted — if intentional, re-baseline with \
           RADER_GOLDEN_REGEN (see test_cli.ml)"
          file
      end

let subcommands =
  [
    "check"; "coverage"; "verify"; "lint"; "chaos"; "fuzz"; "online"; "sim"; "dag";
    "tree"; "record"; "oracle"; "serve"; "submit"; "loadtest";
  ]

(* Help text is cmdliner's rendering; only its exit code is pinned. *)
let help_case () =
  List.iter
    (fun args ->
      let _, code = run (args @ [ "--help=plain" ]) in
      Alcotest.(check int) (String.concat " " (args @ [ "--help=plain" ])) 0 code)
    ([] :: List.map (fun c -> [ c ]) subcommands)

let () =
  Alcotest.run "cli"
    [
      ( "golden",
        List.map (fun c -> Alcotest.test_case c.name `Quick (golden_case c)) cases );
      ("help", [ Alcotest.test_case "--help=plain exits 0" `Quick help_case ]);
    ]
