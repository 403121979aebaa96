(* Entry point: [main.exe --workload W --seed N --seconds S --trace 0|1].
   Prints progress and tables, then, as its last line, one JSON object
   with [correct], [attempted], [failed] and [metrics]: every end-to-end
   metric untraced, every per-layer metric traced. *)

let end_to_end =
  [ "setup_s"; "jobs_per_ref"; "verdict_p50_ref"; "verdict_tail_ref" ]

(* Every per-layer metric, in BENCHMARK.json order. A traced run reports
   all of them; a layer its workload does not exercise reads 0. *)
let per_layer =
  [
    (* check *)
    ("runtime.engine_over_plain", "x");
    ("runtime.steal_over_nosteal", "x");
    ("runtime.events_per_s", "1/s");
    ("core.sp_plus_over_engine.dset", "x");
    ("core.sp_plus_over_engine.depa", "x");
    ("core.peer_set_over_engine.dset", "x");
    ("core.peer_set_over_engine.depa", "x");
    ("reach.depa_over_dset", "x");
    ("benchsuite.plain_s", "s");
    ("dsets.ops_per_event", "ops");
    ("reach.fp_words_per_event", "words");
    ("reach.epoch_ops_per_event", "ops");
    ("memory.shadow_ops_per_event", "ops");
    ("runtime.steals", "count");
    ("runtime.reduce_calls", "count");
    (* family *)
    ("coverage.profile_s", "s");
    ("analysis.ir_s", "s");
    ("coverage.scan_s", "s");
    ("analysis.symbolic_s", "s");
    ("coverage.replay_s", "s");
    ("coverage.replays_per_verdict", "count");
    ("analysis.replays_avoided_frac", "ratio");
    ("analysis.scan_truncated", "count");
    ("analysis.verify_over_sweep", "x");
    (* serve *)
    ("serve.connect_s", "s");
    ("serve.hit_rtt_p50_s", "s");
    ("serve.miss_rtt_p50_s", "s");
    ("serve.overhead_p50_s", "s");
    ("serve.cache_hit_frac", "ratio");
    ("serve.sheds", "count");
    ("serve.retries", "count");
    ("proto.codec_s_per_req", "s");
    (* every workload *)
    ("overhead_vs_plain", "x");
    ("peak_heap_mb", "MB");
    ("gc.minor_words_per_job", "words");
    ("gc.major_collections", "count");
    ("obs.tracing_overhead", "x");
  ]

(* Order the workload's metrics as the catalog does, filling the layers
   it does not exercise with 0; a name outside the catalog is a bug. *)
let complete ~trace (got : Bench.metric list) =
  let catalog =
    if trace then per_layer
    else List.map (fun n -> (n, (List.find (fun x -> x.Bench.name = n) got).Bench.unit)) end_to_end
  in
  List.iter
    (fun x ->
      if not (List.mem_assoc x.Bench.name catalog) then
        failwith ("metric outside the catalog: " ^ x.Bench.name))
    got;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun x -> x.Bench.name = name) got with
      | Some x -> x
      | None -> Bench.m name unit 0.0)
    catalog

let () =
  let args =
    try Bench.parse_args Sys.argv
    with Failure msg ->
      prerr_endline msg;
      exit 2
  in
  let run =
    match args.Bench.workload with
    | "check" -> W_check.run
    | "family" -> W_family.run
    | "serve" -> W_serve.run
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ Bench.usage);
        exit 2
  in
  Bench.say "ledger_bench %s seed=%d seconds=%g trace=%b" args.Bench.workload
    args.Bench.seed args.Bench.seconds args.Bench.trace;
  let metrics = complete ~trace:args.Bench.trace (run args) in
  if args.Bench.trace then
    Bench.Trace.write
      (Printf.sprintf "ledger_bench/out/%s-seed%d.trace.json" args.Bench.workload
         args.Bench.seed);
  Bench.emit metrics
