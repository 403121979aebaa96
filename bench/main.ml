(* Benchmark harness reproducing the paper's evaluation (§8).

   Regenerates:
   - Figure 7: Rader's multiplicative overhead over running each benchmark
     WITHOUT instrumentation, for the four detector configurations
     (Check view-read race / No steals / Check updates / Check reductions);
   - Figure 8: the same runs normalized to the EMPTY TOOL (instrumentation
     dispatching to no-op callbacks);
   - S1: the §7 steal-specification family sizes (Theorems 6 & 7 shapes);
   - S2: SP+ running time as the number of simulated steals M grows
     (the O((T + Mτ) α) cost model of Theorem 5);
   - S3: work-stealing simulator speedup sanity (T₁/T_p);
   - S4: the multicore §7 coverage sweep — wall-clock at --jobs 1/2/4/ncores
     (job counts beyond the available cores are marked skipped, not timed
     as bogus <1x speedups) and the engine-reuse (Engine.reset) vs
     fresh-engine-per-spec ratio;
   - S5: serial detector comparison on reducer-free workloads (§9 baselines);
   - S6: the Rader_obs cost model — real detector operation counts (dset /
     bag / shadow / reach work per engine event) behind the Fig. 7/8
     overheads, per precedence backend (dset vs depa);
   - S7: relevance-guided steal-spec pruning — how much of each
     benchmark's §7 family Coverage.spec_relevant proves redundant;
   - S8: service throughput — checks/sec through the rader serve daemon
     at 1/4/16 clients, and the shed rate when a starved pool is
     deliberately overloaded (backpressure, not silence);
   - S9: precedence-backend comparison — detector ops/event and Fig. 8
     overhead for the dset (disjoint-set) vs depa (DePa fingerprint)
     reachability backends, same verdicts by construction;
   - S10: online throughput — events/sec through the real work-stealing
     runtime (effects scheduler, Chase-Lev deques) at 1/2/4 worker
     domains, and the time of each run's verdict (the serial SP+ and
     Peer-Set replay of its steals) as a separate column;
   plus a bechamel micro-benchmark group per figure table.

   Besides the printed tables, the harness persists a perf trajectory to
   BENCH_rader.json (schema-stable keys, see `schema` field) so later PRs
   can diff performance against this run. BENCH_rader.json itself is
   gitignored (host-dependent timings); BENCH_seed.json is a committed
   fast-mode snapshot giving trajectory diffs a stable starting point.

   Environment knobs:
     RADER_BENCH_SCALE      workload multiplier (default 4.0)
     RADER_BENCH_FAST=1     scale 1.0 and skip bechamel (CI smoke)
     RADER_BENCH_SKIP_BECHAMEL=1 *)

open Rader_runtime
open Rader_core
open Rader_benchsuite
module Stats = Rader_support.Stats
module Tablefmt = Rader_support.Tablefmt
module Rng = Rader_support.Rng
module Obs = Rader_obs.Obs
module Reach = Rader_reach.Reach

let fast = Sys.getenv_opt "RADER_BENCH_FAST" = Some "1"

let scale =
  if fast then 1.0
  else
    match Sys.getenv_opt "RADER_BENCH_SCALE" with
    | Some s -> float_of_string s
    | None -> 4.0

let skip_bechamel = fast || Sys.getenv_opt "RADER_BENCH_SKIP_BECHAMEL" = Some "1"

(* Noise-robust timing. A single run of a sub-millisecond region is
   dominated by clock granularity and scheduler jitter, and min-of-singles
   systematically underestimates the steady state. Every timed region is
   therefore repeated in a calibrated batch sized so that ONE clock pair
   spans at least [min_block] (50ms) of wall-clock; the block reports the
   per-iteration MEAN, and the best mean over a few blocks sheds
   whole-block outliers (GC, migrations). Batching the repetitions inside
   a single clock pair — rather than timing iterations one by one and
   summing, as this harness used to — keeps clock granularity and
   timer-call overhead out of the sub-100µs rows entirely: a fast-mode
   fib iteration is ~50µs, so its 50ms batch amortizes the two clock
   reads over ~1000 runs. Every fast-mode row now accumulates at least
   [min_block] per sample and the old [noisy] flag no longer trips. *)
let min_block = 0.05

let measure f =
  let blocks = 4 in
  (* calibration run: how many repetitions fit in one block? *)
  let _, dt0 = Stats.time_it f in
  let reps =
    if dt0 >= min_block then 1
    else max 1 (int_of_float (ceil (min_block /. max dt0 1e-9)))
  in
  let best = ref infinity in
  for _ = 1 to blocks do
    let total = ref 0.0 in
    let iters = ref 0 in
    (* the calibration estimate can be low (cold caches); keep adding
       batches until the block really spans [min_block] *)
    while !total < min_block do
      let _, dt =
        Stats.time_it (fun () ->
            for _ = 1 to reps do
              ignore (f ())
            done)
      in
      total := !total +. dt;
      iters := !iters + reps
    done;
    let mean = !total /. float_of_int !iters in
    if mean < !best then best := mean
  done;
  !best

(* ---------- detector configurations (paper Fig. 7 columns) ---------- *)

type mode = {
  mode_name : string;
  run : Bench_def.t -> k:int -> int;
      (** executes the benchmark once under this configuration *)
}

let with_detector attach ?(spec = Steal_spec.none) b =
  let eng = Engine.create ~spec () in
  attach eng;
  Engine.run eng b.Bench_def.cilk

let spec_updates ~k =
  (* "steals at continuation depth that's half of the maximum sync block
     size" (§8) *)
  Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ max 1 (k / 2) ]

let spec_reductions ~k ~seed =
  (* three random continuation positions per sync block, middle pair
     reduced first (§8's random steal points) *)
  let rng = Rng.create seed in
  let pick () = 1 + Rng.int rng (max 1 k) in
  let rec distinct3 () =
    let a = pick () and b = pick () and c = pick () in
    if a <> b && b <> c && a <> c then List.sort compare [ a; b; c ]
    else if k < 3 then [ 1; 2; 3 ]
    else distinct3 ()
  in
  Steal_spec.at_local_indices
    ~policy:(Steal_spec.Reduce_schedule (fun ord -> if ord = 3 then 1 else 0))
    (distinct3 ())

(* The four detector configurations, parameterized by the precedence
   backend. The dset instances feed the Fig. 7/8 tables (unchanged
   schema); the depa instances feed the S9 backend comparison. *)
let detector_modes ~reach =
  [
    {
      mode_name = "Check view-read race";
      run =
        (fun b ~k:_ ->
          with_detector (fun eng -> ignore (Peer_set.attach ~reach eng)) b);
    };
    {
      mode_name = "No steals";
      run =
        (fun b ~k:_ ->
          with_detector (fun eng -> ignore (Sp_plus.attach ~reach eng)) b);
    };
    {
      mode_name = "Check updates";
      run =
        (fun b ~k ->
          with_detector
            (fun eng -> ignore (Sp_plus.attach ~reach eng))
            ~spec:(spec_updates ~k) b);
    };
    {
      mode_name = "Check reductions";
      run =
        (fun b ~k ->
          with_detector
            (fun eng -> ignore (Sp_plus.attach ~reach eng))
            ~spec:(spec_reductions ~k ~seed:20150613)
            b);
    };
  ]

let modes =
  [
    { mode_name = "plain"; run = (fun b ~k:_ -> b.Bench_def.plain ()) };
    {
      mode_name = "empty tool";
      run = (fun b ~k:_ -> with_detector (fun _ -> ()) b);
    };
  ]
  @ detector_modes ~reach:Reach.Dset

(* Mode display names -> schema keys (stable even if table titles move). *)
let mode_key = function
  | "plain" -> "plain"
  | "empty tool" -> "empty_tool"
  | "Check view-read race" -> "check_view_read_race"
  | "No steals" -> "no_steals"
  | "Check updates" -> "check_updates"
  | "Check reductions" -> "check_reductions"
  | s -> s

type row = {
  bench : Bench_def.t;
  k : int;
  d : int;
  prof : Coverage.profile;
  times : (string * float) list; (* mode -> best per-iteration mean seconds *)
}

let time_suite () =
  let suite = Suite.all ~scale () in
  List.map
    (fun b ->
      Printf.printf "timing %-10s ...%!" b.Bench_def.name;
      let prof = Coverage.profile b.Bench_def.cilk in
      let k = prof.Coverage.k in
      (* correctness check: every mode must return the plain checksum *)
      let expected = b.Bench_def.plain () in
      List.iter
        (fun m ->
          let got = m.run b ~k in
          if got <> expected then
            failwith
              (Printf.sprintf "%s/%s: checksum mismatch" b.Bench_def.name m.mode_name))
        modes;
      let times = List.map (fun m -> (m.mode_name, measure (fun () -> m.run b ~k))) modes in
      Printf.printf " done\n%!";
      { bench = b; k; d = prof.Coverage.d; prof; times })
    suite

let ratio row m base = List.assoc m row.times /. List.assoc base row.times

let overhead_table ~title ~base rows =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let cols = [ "Check view-read race"; "No steals"; "Check updates"; "Check reductions" ] in
  let t = Tablefmt.create ([ "Benchmark"; "Input size"; "Description" ] @ cols) in
  List.iter
    (fun row ->
      Tablefmt.add_row t
        ([
           row.bench.Bench_def.name;
           row.bench.Bench_def.input;
           row.bench.Bench_def.descr;
         ]
        @ List.map (fun c -> Tablefmt.cell_f (ratio row c base)) cols))
    rows;
  Tablefmt.add_rule t;
  let geo c = Stats.geomean (List.map (fun r -> ratio r c base) rows) in
  Tablefmt.add_row t
    ([ "geometric mean"; ""; "" ] @ List.map (fun c -> Tablefmt.cell_f (geo c)) cols);
  let lo, hi =
    Stats.min_max (List.concat_map (fun r -> List.map (fun c -> ratio r c base) cols) rows)
  in
  Tablefmt.add_row t
    [ "range"; ""; ""; Printf.sprintf "%.2f - %.2f" lo hi ];
  Tablefmt.print t

(* Historically flagged sub-100µs plain baselines, whose per-iteration
   clock reads made overhead ratios swing by tens of percent run to run.
   [measure] now batches repetitions inside a single clock pair so every
   sample spans >= [min_block] regardless of per-iteration duration; the
   hazard is gone by construction, and the flag (kept for table/JSON
   schema continuity) is constant [false]. *)
let row_noisy (_ : row) = false

let base_times_table rows =
  Printf.printf "\nAbsolute base times (best of n)\n-------------------------------\n";
  let t =
    Tablefmt.create [ "Benchmark"; "K"; "D"; "plain (s)"; "empty tool (s)"; "noisy" ]
  in
  List.iter
    (fun row ->
      Tablefmt.add_row t
        [
          row.bench.Bench_def.name;
          string_of_int row.k;
          string_of_int row.d;
          Printf.sprintf "%.5f" (List.assoc "plain" row.times);
          Printf.sprintf "%.5f" (List.assoc "empty tool" row.times);
          (if row_noisy row then "yes (plain < 100us)" else "");
        ])
    rows;
  Tablefmt.print t

(* ---------- S1: §7 steal-specification family sizes ---------- *)

let s1_spec_families rows =
  Printf.printf
    "\nS1: coverage steal-specification family sizes (Theorems 6 & 7)\n\
     ---------------------------------------------------------------\n";
  let t =
    Tablefmt.create [ "K"; "update specs (K+D+1, D=4)"; "reduction specs"; "K^3/6" ]
  in
  List.iter
    (fun k ->
      Tablefmt.add_row t
        [
          string_of_int k;
          string_of_int (List.length (Coverage.specs_for_updates ~k ~d:4));
          string_of_int (List.length (Coverage.specs_for_reductions ~k));
          string_of_int (k * k * k / 6);
        ])
    [ 2; 4; 8; 12; 16; 24; 32 ];
  Tablefmt.print t;
  Printf.printf "\nPer-benchmark profile (K = max continuations per sync block):\n";
  let t = Tablefmt.create [ "Benchmark"; "K"; "D"; "specs for full coverage" ] in
  List.iter
    (fun row ->
      Tablefmt.add_row t
        [
          row.bench.Bench_def.name;
          string_of_int row.k;
          string_of_int row.d;
          string_of_int (List.length (Coverage.all_specs ~k:row.k ~d:row.d));
        ])
    rows;
  Tablefmt.print t

(* ---------- S2: SP+ cost vs number of steals (Theorem 5) ---------- *)

let s2_steal_sweep () =
  Printf.printf
    "\nS2: SP+ running time vs simulated steals M (fib workload)\n\
     ---------------------------------------------------------\n";
  let b = Suite.find ~scale:(Float.min scale 2.0) "fib" in
  let t = Tablefmt.create [ "steal density"; "steals M"; "reduce calls"; "time (s)"; "vs M=0" ] in
  let base = ref None in
  List.iter
    (fun density ->
      let spec =
        if density = 0.0 then Steal_spec.none
        else Steal_spec.random ~seed:7 ~density ()
      in
      let run () =
        let eng = Engine.create ~spec () in
        ignore (Sp_plus.attach eng);
        ignore (Engine.run eng b.Bench_def.cilk);
        Engine.stats eng
      in
      let stats = run () in
      let dt = measure (fun () -> ignore (run ())) in
      let b0 = match !base with None -> base := Some dt; dt | Some b0 -> b0 in
      Tablefmt.add_row t
        [
          Printf.sprintf "%.2f" density;
          string_of_int stats.Engine.n_steals;
          string_of_int stats.Engine.n_reduce_calls;
          Printf.sprintf "%.4f" dt;
          Tablefmt.cell_f (dt /. b0);
        ])
    [ 0.0; 0.05; 0.1; 0.25; 0.5; 0.75; 1.0 ];
  Tablefmt.print t

(* ---------- S3: work-stealing simulator speedup ---------- *)

let s3_wsim () =
  Printf.printf
    "\nS3: simulated work-stealing speedup (pbfs dag, unit-cost strands)\n\
     -----------------------------------------------------------------\n";
  let b = Suite.find ~scale:(Float.min scale 1.0) "pbfs" in
  let eng = Engine.create ~record:true () in
  ignore (Engine.run eng b.Bench_def.cilk);
  let t = Tablefmt.create [ "workers"; "makespan T_p"; "speedup T1/T_p"; "steals" ] in
  let t1 = ref 0 in
  List.iter
    (fun p ->
      let res = Rader_sched.Wsim.simulate ~workers:p ~seed:42 eng in
      if p = 1 then t1 := res.Rader_sched.Wsim.makespan;
      Tablefmt.add_row t
        [
          string_of_int p;
          string_of_int res.Rader_sched.Wsim.makespan;
          Printf.sprintf "%.2f"
            (float_of_int !t1 /. float_of_int res.Rader_sched.Wsim.makespan);
          string_of_int res.Rader_sched.Wsim.n_steals;
        ])
    [ 1; 2; 4; 8; 16 ];
  Tablefmt.print t

(* ---------- S4: multicore coverage sweep (paper §7 across domains) ---------- *)

(* A workload shaped for the sweep: K = [sweep_width] continuations in the
   root sync block (the acceptance floor is K >= 6), each spawn doing
   enough reducer updates that one spec replay has measurable work. *)
let sweep_width = 7
let sweep_work = if fast then 40 else 160

let sweep_program ctx =
  let r = Rmonoid.new_int_add ctx ~init:0 in
  for _ = 1 to sweep_width do
    ignore
      (Cilk.spawn ctx (fun ctx ->
           for i = 1 to sweep_work do
             Rmonoid.add ctx r i
           done))
  done;
  Cilk.sync ctx;
  ignore (Rmonoid.int_cell_value ctx r)

type s4_data = {
  s4_k : int;
  s4_d : int;
  s4_n_specs : int;
  s4_ncores : int;
  s4_times : (int * float option) list;
      (* jobs -> best sweep seconds; [None] = more jobs than cores, the
         speedup would be hardware-bound noise, so the row is skipped *)
  s4_fresh : float; (* N replays, fresh engine per spec *)
  s4_reset : float; (* N replays, one engine recycled via reset *)
  s4_reuse_iters : int;
}

let s4_parallel_sweep () =
  let ncores = Parallel_sweep.default_jobs () in
  let prof = Coverage.profile sweep_program in
  let n_specs =
    List.length (Coverage.all_specs ~k:prof.Coverage.k ~d:prof.Coverage.d)
  in
  let job_counts = List.sort_uniq compare [ 1; 2; 4; ncores ] in
  let times =
    List.map
      (fun jobs ->
        if jobs > ncores then (jobs, None)
        else
          let dt =
            measure (fun () ->
                let res = Coverage.exhaustive_check ~jobs sweep_program in
                assert res.Coverage.complete;
                0)
          in
          (jobs, Some dt))
      job_counts
  in
  (* Engine reuse: the same batch of spec replays with a fresh
     engine+detector per spec vs one pair recycled through
     Engine.reset ~tool / Sp_plus.reset. *)
  let spec =
    Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ 2; 4 ]
  in
  let reuse_iters = if fast then 200 else 400 in
  let fresh =
    measure (fun () ->
        for _ = 1 to reuse_iters do
          let eng = Engine.create ~spec () in
          let det = Sp_plus.attach eng in
          (match Engine.run_result eng sweep_program with
          | Ok _ -> ()
          | Error _ -> assert false);
          assert (Sp_plus.races det = [])
        done;
        0)
  in
  let reset =
    measure (fun () ->
        let eng = Engine.create () in
        let det = Sp_plus.attach eng in
        for _ = 1 to reuse_iters do
          Engine.reset ~tool:(Sp_plus.tool det) ~spec eng;
          Sp_plus.reset det;
          (match Engine.run_result eng sweep_program with
          | Ok _ -> ()
          | Error _ -> assert false);
          assert (Sp_plus.races det = [])
        done;
        0)
  in
  {
    s4_k = prof.Coverage.k;
    s4_d = prof.Coverage.d;
    s4_n_specs = n_specs;
    s4_ncores = ncores;
    s4_times = times;
    s4_fresh = fresh;
    s4_reset = reset;
    s4_reuse_iters = reuse_iters;
  }

let s4_print (s4 : s4_data) =
  Printf.printf
    "\nS4: multicore coverage sweep (K=%d D=%d workload, %d steal specs;\n\
     %d core(s) available — job counts beyond that are skipped)\n\
     ----------------------------------------------------------------\n"
    s4.s4_k s4.s4_d s4.s4_n_specs s4.s4_ncores;
  let t = Tablefmt.create [ "jobs"; "sweep (s)"; "speedup vs jobs=1" ] in
  let t1 = Option.get (List.assoc 1 s4.s4_times) in
  List.iter
    (fun (jobs, dt) ->
      match dt with
      | Some dt ->
          Tablefmt.add_row t
            [ string_of_int jobs; Printf.sprintf "%.4f" dt; Tablefmt.cell_f (t1 /. dt) ]
      | None ->
          Tablefmt.add_row t
            [
              string_of_int jobs;
              Printf.sprintf "skipped (%d core(s))" s4.s4_ncores;
              "-";
            ])
    s4.s4_times;
  Tablefmt.print t;
  Printf.printf
    "engine reuse (%d replays under one spec): fresh %.4fs, reset %.4fs -> \
     fresh/reset = %.2fx\n"
    s4.s4_reuse_iters s4.s4_fresh s4.s4_reset (s4.s4_fresh /. s4.s4_reset)

(* ---------- S5: detector comparison on view-oblivious workloads ---------- *)

let s5_detector_comparison () =
  Printf.printf
    "\nS5: serial detector comparison on reducer-free workloads\n\
     (overhead over the empty tool; SP-bags/SP-order/offset-span are the\n\
     related-work baselines of §9, SP+ degenerates to SP-bags here)\n\
     --------------------------------------------------------------\n";
  let workloads =
    [
      Bm_oblivious.fib_futures ~n:(if fast then 18 else 21);
      Bm_oblivious.stencil ~seed:1
        ~n:(if fast then 4096 else 16384)
        ~rounds:(if fast then 4 else 8)
        ~grain:32;
    ]
  in
  let detectors =
    [
      ("empty", fun _ -> ());
      ("SP-bags", fun eng -> ignore (Sp_bags.attach eng));
      ("SP-order", fun eng -> ignore (Sp_order.attach eng));
      ("offset-span", fun eng -> ignore (Offset_span.attach eng));
      ("SP+", fun eng -> ignore (Sp_plus.attach eng));
    ]
  in
  let t =
    Tablefmt.create
      ("Workload" :: "Input" :: List.map fst (List.tl detectors))
  in
  List.iter
    (fun b ->
      let time_of attach =
        measure (fun () ->
            let eng = Engine.create () in
            attach eng;
            ignore (Engine.run eng b.Bench_def.cilk))
      in
      let base = time_of (fun _ -> ()) in
      Tablefmt.add_row t
        (b.Bench_def.name :: b.Bench_def.input
        :: List.filter_map
             (fun (name, attach) ->
               if name = "empty" then None
               else Some (Tablefmt.cell_f (time_of attach /. base)))
             detectors))
    workloads;
  Tablefmt.print t

(* ---------- S7: relevance-guided steal-spec pruning ---------- *)

(* How much of each benchmark's §7 spec family the relevance profile
   (Coverage.spec_relevant, DESIGN.md §10) proves redundant. The suite
   benchmarks all use reducers, so only positions past the last
   instrumented event of a sync block prune; the reducer-free §9 workloads
   (fib-futures, stencil) prune their whole family down to the no-steal
   baseline. *)

type s7_row = {
  s7_name : string;
  s7_k : int;
  s7_d : int;
  s7_k_rel : int;
  s7_total : int;
  s7_kept : int;
}

let s7_of_profile name (prof : Coverage.profile) =
  let specs = Coverage.all_specs ~k:prof.Coverage.k ~d:prof.Coverage.d in
  let kept = Coverage.prune_specs prof specs in
  {
    s7_name = name;
    s7_k = prof.Coverage.k;
    s7_d = prof.Coverage.d;
    s7_k_rel = prof.Coverage.k_rel;
    s7_total = List.length specs;
    s7_kept = List.length kept;
  }

let s7_spec_pruning rows =
  let oblivious =
    [
      Bm_oblivious.fib_futures ~n:(if fast then 12 else 16);
      Bm_oblivious.stencil ~seed:1
        ~n:(if fast then 1024 else 4096)
        ~rounds:(if fast then 2 else 4)
        ~grain:32;
    ]
  in
  List.map (fun row -> s7_of_profile row.bench.Bench_def.name row.prof) rows
  @ List.map
      (fun b ->
        s7_of_profile b.Bench_def.name (Coverage.profile b.Bench_def.cilk))
      oblivious

let s7_pruned_pct r =
  100.0 *. float_of_int (r.s7_total - r.s7_kept) /. float_of_int r.s7_total

let s7_print s7rows =
  Printf.printf
    "\nS7: relevance-guided steal-spec pruning (specs kept vs full family)\n\
     -------------------------------------------------------------------\n";
  let t =
    Tablefmt.create [ "Benchmark"; "K"; "D"; "k_rel"; "specs"; "kept"; "pruned %" ]
  in
  List.iter
    (fun r ->
      Tablefmt.add_row t
        [
          r.s7_name;
          string_of_int r.s7_k;
          string_of_int r.s7_d;
          string_of_int r.s7_k_rel;
          string_of_int r.s7_total;
          string_of_int r.s7_kept;
          Printf.sprintf "%.0f%%" (s7_pruned_pct r);
        ])
    s7rows;
  Tablefmt.print t

(* ---------- S8: service throughput (rader serve) ---------- *)

(* Checks/sec through the full daemon stack — socket, framing, admission
   queue, worker-domain dispatch, arena reuse — at increasing client
   counts, plus the shed rate when a deliberately starved pool (one
   worker, depth-1 queue, no client retries) is overloaded: the daemon
   must answer every request even when it cannot serve them all. *)

module Serve = Rader_serve.Server
module Sload = Rader_serve.Load
module Sproto = Rader_serve.Proto

type s8_row = {
  s8_clients : int;
  s8_cps : float;
  s8_sent : int;
  s8_answered : int;
}

type s8_data = {
  s8_rows : s8_row list;
  s8_per_client : int;
  s8_over_sent : int;
  s8_over_sheds : int;
  s8_over_served : int;
}

let s8_addr tag =
  Serve.Unix_path
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "rader-bench-%d-%s.sock" (Unix.getpid ()) tag))

(* Distinct seeds defeat the verdict cache: S8 measures service, not
   cache lookups. *)
let s8_submit i =
  {
    Sproto.kind = Sproto.Check;
    program = "fig1-buggy";
    scale = 1.0;
    seed = i;
    spec = "all";
    density = 0.5;
    max_events = None;
    deadline_s = None;
    prune = false;
  }

let s8_service_throughput () =
  let per_client = if fast then 25 else 100 in
  let rows =
    List.map
      (fun clients ->
        let cfg =
          {
            (Serve.default_config ~addr:(s8_addr (string_of_int clients))) with
            Serve.workers = 2;
            queue_depth = 64;
          }
        in
        let t = Serve.start cfg in
        let r =
          Sload.run ~addr:(Serve.bound_addr t) ~clients
            ~requests_per_client:per_client ~make:s8_submit ()
        in
        ignore (Serve.stop t);
        {
          s8_clients = clients;
          s8_cps = r.Sload.checks_per_s;
          s8_sent = r.Sload.tally.Sload.sent;
          s8_answered = Sload.answered r.Sload.tally;
        })
      [ 1; 4; 16 ]
  in
  let cfg =
    {
      (Serve.default_config ~addr:(s8_addr "overload")) with
      Serve.workers = 1;
      queue_depth = 1;
      retry_after_ms = 1;
    }
  in
  let t = Serve.start cfg in
  let r =
    Sload.run ~retries:0 ~addr:(Serve.bound_addr t) ~clients:16
      ~requests_per_client:per_client ~make:s8_submit ()
  in
  ignore (Serve.stop t);
  let tally = r.Sload.tally in
  {
    s8_rows = rows;
    s8_per_client = per_client;
    s8_over_sent = tally.Sload.sent;
    s8_over_sheds = tally.Sload.sheds;
    s8_over_served = tally.Sload.verdicts + tally.Sload.partials;
  }

let s8_shed_pct s8 =
  100.0 *. float_of_int s8.s8_over_sheds /. float_of_int (max 1 s8.s8_over_sent)

let s8_print s8 =
  Printf.printf
    "\nS8: service throughput — checks/sec through the rader serve daemon\n\
     ------------------------------------------------------------------\n";
  let t = Tablefmt.create [ "Clients"; "Requests"; "Answered"; "Checks/s" ] in
  List.iter
    (fun r ->
      Tablefmt.add_row t
        [
          string_of_int r.s8_clients;
          string_of_int r.s8_sent;
          string_of_int r.s8_answered;
          Printf.sprintf "%.0f" r.s8_cps;
        ])
    s8.s8_rows;
  Tablefmt.print t;
  Printf.printf
    "overload (1 worker, depth-1 queue, 16 clients, no retries): %d requests, \
     %d served, %d shed (%.0f%%) — all answered\n"
    s8.s8_over_sent s8.s8_over_served s8.s8_over_sheds (s8_shed_pct s8)

(* ---------- S6: the obs-layer cost model behind Figures 7/8 ---------- *)

(* Re-run each benchmark under each detector configuration with counting
   on and derive the per-event detector work — the unit-cost model behind
   the measured Fig. 7/8 multipliers (Theorems 4/5 say this ratio is
   O(α), i.e. flat). These runs are separate from the timed ones above,
   so counting never pollutes the wall-clock numbers. *)

type s6_row = {
  s6_bench : string;
  s6_modes : (string * Obs.counters) list;
      (* schema mode key -> delta, under the dset backend *)
  s6_modes_depa : (string * Obs.counters) list;
      (* detector modes only, under the depa backend *)
}

let s6_mode_keys =
  [ "empty_tool"; "check_view_read_race"; "no_steals"; "check_updates"; "check_reductions" ]

(* Total detector work: disjoint-set + bag + shadow ops under dset,
   fingerprint-word + epoch ops (reach_ops) under depa — each backend
   bumps only its own family, so the sum is comparable across both. *)
let s6_detector_ops c =
  Obs.dset_ops c + Obs.bag_ops c + Obs.shadow_ops c + Obs.reach_ops c

let s6_ops_per_event c =
  float_of_int (s6_detector_ops c) /. float_of_int c.Obs.events

let s6_cost_model rows =
  List.map
    (fun row ->
      let deltas_of ms =
        List.filter_map
          (fun m ->
            if m.mode_name = "plain" then None
            else
              let _, delta = Obs.with_enabled (fun () -> m.run row.bench ~k:row.k) in
              Some (mode_key m.mode_name, delta))
          ms
      in
      {
        s6_bench = row.bench.Bench_def.name;
        s6_modes = deltas_of modes;
        s6_modes_depa = deltas_of (detector_modes ~reach:Reach.Depa);
      })
    rows

let s6_print s6rows =
  Printf.printf
    "\nS6: detector operations per engine event (obs counters;\n\
     predicted unit-cost overhead over the empty tool = 1 + ops/event;\n\
     one row per precedence backend — dset counts disjoint-set/bag work,\n\
     depa counts fingerprint words + epoch-table steps)\n\
     ----------------------------------------------------------------\n";
  let det_keys = List.filter (fun k -> k <> "empty_tool") s6_mode_keys in
  let t = Tablefmt.create ([ "Benchmark"; "reach"; "events" ] @ det_keys) in
  List.iter
    (fun r ->
      let events = (List.assoc "empty_tool" r.s6_modes).Obs.events in
      List.iter
        (fun (backend, l) ->
          Tablefmt.add_row t
            ([ r.s6_bench; backend; string_of_int events ]
            @ List.map
                (fun key -> Tablefmt.cell_f (s6_ops_per_event (List.assoc key l)))
                det_keys))
        [ ("dset", r.s6_modes); ("depa", r.s6_modes_depa) ])
    s6rows;
  Tablefmt.print t

(* ---------- S9: precedence-backend comparison (dset vs depa) ---------- *)

(* The verdict is backend-independent (property-tested); what the backend
   changes is the constant factor. S9 publishes that factor both ways it
   can be seen: counted detector ops per engine event (deterministic,
   noise-free) and the measured Fig. 8 overhead over the empty tool
   (wall-clock, so subject to the same noise flag as Fig. 7/8). *)

type s9_cell = {
  s9_ops_dset : float;
  s9_ops_depa : float;
  s9_fig8_dset : float;
  s9_fig8_depa : float;
}

type s9_row = {
  s9_bench : string;
  s9_noisy : bool;
  s9_cells : (string * s9_cell) list; (* schema mode key -> cell *)
}

let s9_backend_comparison rows s6rows =
  List.map2
    (fun row s6 ->
      Printf.printf "timing %-10s [depa] ...%!" row.bench.Bench_def.name;
      let empty_t = List.assoc "empty tool" row.times in
      let cells =
        List.map
          (fun m ->
            let key = mode_key m.mode_name in
            let t_depa = measure (fun () -> m.run row.bench ~k:row.k) in
            ( key,
              {
                s9_ops_dset = s6_ops_per_event (List.assoc key s6.s6_modes);
                s9_ops_depa = s6_ops_per_event (List.assoc key s6.s6_modes_depa);
                s9_fig8_dset = List.assoc m.mode_name row.times /. empty_t;
                s9_fig8_depa = t_depa /. empty_t;
              } ))
          (detector_modes ~reach:Reach.Depa)
      in
      Printf.printf " done\n%!";
      {
        s9_bench = row.bench.Bench_def.name;
        s9_noisy = row_noisy row;
        s9_cells = cells;
      })
    rows s6rows

let s9_print s9rows =
  Printf.printf
    "\nS9: precedence-backend comparison — dset (disjoint sets) vs depa\n\
     (DePa fingerprints); ops/event is deterministic, overheads are\n\
     wall-clock (noisy rows flagged as in the base-times table)\n\
     ----------------------------------------------------------------\n";
  let t =
    Tablefmt.create
      [
        "Benchmark";
        "mode";
        "ops/ev dset";
        "ops/ev depa";
        "depa/dset";
        "x empty dset";
        "x empty depa";
        "noisy";
      ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun (key, c) ->
          Tablefmt.add_row t
            [
              r.s9_bench;
              key;
              Tablefmt.cell_f c.s9_ops_dset;
              Tablefmt.cell_f c.s9_ops_depa;
              Tablefmt.cell_f (c.s9_ops_depa /. c.s9_ops_dset);
              Tablefmt.cell_f c.s9_fig8_dset;
              Tablefmt.cell_f c.s9_fig8_depa;
              (if r.s9_noisy then "yes" else "");
            ])
        r.s9_cells)
    s9rows;
  Tablefmt.add_rule t;
  let all_cells = List.concat_map (fun r -> List.map snd r.s9_cells) s9rows in
  let geo f = Stats.geomean (List.map f all_cells) in
  Tablefmt.add_row t
    [
      "geometric mean";
      "";
      Tablefmt.cell_f (geo (fun c -> c.s9_ops_dset));
      Tablefmt.cell_f (geo (fun c -> c.s9_ops_depa));
      Tablefmt.cell_f (geo (fun c -> c.s9_ops_depa /. c.s9_ops_dset));
      Tablefmt.cell_f (geo (fun c -> c.s9_fig8_dset));
      Tablefmt.cell_f (geo (fun c -> c.s9_fig8_depa));
      "";
    ];
  Tablefmt.print t

(* ---------- S10: online throughput (real work-stealing runtime) ---------- *)

(* Events/sec through the Online runtime — effects scheduler, Chase-Lev
   deques, view regions — at 1/2/4 worker domains, and beside it the
   run's verdict: the serial detectors under its steals (a no-steal
   Peer-Set recording plus one SP+ replay, timed with a fresh judge per
   repetition so each one records). The structural steal set is a
   pure function of (program, seed, density), so every row judges the
   same steals; what varies across rows is only genuine parallel
   execution. *)

module Online = Rader_sched.Online

type s10_row = {
  s10_workers : int;
  s10_runtime_s : float;
  s10_verdict_s : float;
  s10_events : int;
  s10_races : int;
}

type s10_prog = { s10_name : string; s10_rows : s10_row list }

let s10_worker_counts = [ 1; 2; 4 ]

let s10_online_throughput () =
  let s10_scale = if fast then 0.25 else 1.0 in
  let prog name =
    match Demos.resolve ~scale:s10_scale name with
    | Ok p -> p
    | Error m -> failwith m
  in
  let ok what = function
    | Ok v -> v
    | Error f -> failwith (Printf.sprintf "S10: %s failed: %s" what (Fault.to_string f))
  in
  List.map
    (fun name ->
      Printf.printf "timing %-10s [online] ...%!" name;
      let p = prog name in
      let rows =
        List.map
          (fun workers ->
            let cfg = Online.default ~workers ~seed:1 () in
            let last = ref None in
            let runtime_s =
              measure (fun () ->
                  let o = Online.run cfg p in
                  last := Some o;
                  ok "online run" o.Online.value)
            in
            let o = Option.get !last in
            let verdict () =
              ok "verdict" (Online.verdict (Online.judge p) o.Online.trace)
            in
            {
              s10_workers = workers;
              s10_runtime_s = runtime_s;
              s10_verdict_s = measure verdict;
              s10_events = o.Online.events;
              s10_races = List.length (verdict ());
            })
          s10_worker_counts
      in
      Printf.printf " done\n%!";
      { s10_name = name; s10_rows = rows })
    [ "fib"; "wordcount" ]

let s10_print progs =
  Printf.printf
    "\nS10: online throughput — events/sec on the real work-stealing\n\
     runtime at 1/2/4 worker domains, and the time of the run's verdict\n\
     (serial SP+ + Peer-Set replay of its steals, dset backend)\n\
     ----------------------------------------------------------------\n";
  let t =
    Tablefmt.create
      [
        "Program"; "workers"; "events"; "runtime s"; "events/s"; "speedup";
        "verdict s"; "races";
      ]
  in
  List.iter
    (fun p ->
      let w1 = (List.hd p.s10_rows).s10_runtime_s in
      List.iter
        (fun r ->
          Tablefmt.add_row t
            [
              p.s10_name;
              string_of_int r.s10_workers;
              string_of_int r.s10_events;
              Printf.sprintf "%.4f" r.s10_runtime_s;
              Printf.sprintf "%.3g" (float_of_int r.s10_events /. r.s10_runtime_s);
              Printf.sprintf "%.2f" (w1 /. r.s10_runtime_s);
              Printf.sprintf "%.4f" r.s10_verdict_s;
              string_of_int r.s10_races;
            ])
        p.s10_rows)
    progs;
  Tablefmt.print t

(* ---------- S11: symbolic verification vs the enumerated sweep ---------- *)

(* [rader verify] wall-clock against the enumerated §7 sweep on the same
   program, plus how many of the family's replays the symbolic layer
   eliminated (certified without running). Reducer-free programs
   (fib-futures, stencil) have an empty residual set, so the whole family
   collapses to the no-steal run — the replays-avoided column is the
   acceptance number. Parity (identical racy-location sets) is asserted,
   not just reported. *)

module Witness = Rader_analysis.Witness

type s11_row = {
  s11_name : string;
  s11_n_specs : int;
  s11_sweep_run : int;
  s11_sweep_s : float;
  s11_replays : int;
  s11_verify_s : float;
  s11_racy : int;
  s11_parity : bool;
}

let s11_avoided_pct r =
  100.0
  *. float_of_int (r.s11_n_specs - r.s11_replays)
  /. float_of_int (max 1 r.s11_n_specs)

let s11_symbolic_verify () =
  let s11_scale = if fast then 0.25 else 0.5 in
  let demo name =
    match Demos.resolve ~scale:s11_scale name with
    | Ok p -> (name, p)
    | Error m -> failwith m
  in
  let oblivious =
    [
      Bm_oblivious.fib_futures ~n:(if fast then 12 else 16);
      Bm_oblivious.stencil ~seed:1
        ~n:(if fast then 1024 else 4096)
        ~rounds:(if fast then 2 else 4)
        ~grain:32;
    ]
  in
  let corpus =
    List.map demo [ "fig1-buggy"; "fig1-fixed"; "fib"; "wordcount" ]
    @ List.map (fun b -> (b.Bench_def.name, b.Bench_def.cilk)) oblivious
  in
  List.map
    (fun (name, prog) ->
      Printf.printf "timing %-12s [verify] ...%!" name;
      let sweep, sweep_s =
        Stats.time_it (fun () -> Coverage.exhaustive_check prog)
      in
      let w, verify_s =
        Stats.time_it (fun () ->
            match Witness.verify ~name prog with
            | Ok w -> w
            | Error f -> failwith ("S11: verify failed: " ^ Diag.to_string f))
      in
      Printf.printf " done\n%!";
      {
        s11_name = name;
        s11_n_specs = sweep.Coverage.n_specs;
        s11_sweep_run = sweep.Coverage.n_run;
        s11_sweep_s = sweep_s;
        s11_replays = w.Witness.n_replays;
        s11_verify_s = verify_s;
        s11_racy = List.length w.Witness.racy_locs;
        s11_parity = w.Witness.racy_locs = sweep.Coverage.racy_locs;
      })
    corpus

let s11_print s11rows =
  Printf.printf
    "\nS11: symbolic verification (rader verify) vs the enumerated sweep —\n\
     replays eliminated by the closed-form scan, at identical verdicts\n\
     -------------------------------------------------------------------\n";
  let t =
    Tablefmt.create
      [
        "Benchmark";
        "specs";
        "sweep runs";
        "sweep s";
        "verify replays";
        "verify s";
        "avoided %";
        "speedup";
        "racy";
        "parity";
      ]
  in
  List.iter
    (fun r ->
      Tablefmt.add_row t
        [
          r.s11_name;
          string_of_int r.s11_n_specs;
          string_of_int r.s11_sweep_run;
          Printf.sprintf "%.3g" r.s11_sweep_s;
          string_of_int r.s11_replays;
          Printf.sprintf "%.3g" r.s11_verify_s;
          Printf.sprintf "%.0f%%" (s11_avoided_pct r);
          Printf.sprintf "%.2f" (r.s11_sweep_s /. r.s11_verify_s);
          string_of_int r.s11_racy;
          (if r.s11_parity then "ok" else "MISMATCH");
        ])
    s11rows;
  Tablefmt.print t;
  List.iter
    (fun r ->
      if not r.s11_parity then
        failwith ("S11: verify/sweep verdict mismatch on " ^ r.s11_name))
    s11rows

(* ---------- S12: engine event throughput ----------

   The hot-path overhaul's own yardstick: how many instrumentation events
   per second the serial engine pushes through

   - [Tool.null], whose callbacks do nothing (what Fig. 8 normalizes by),
   - the full SP+ and Peer-Set detectors,

   all under the same "check updates" steal specification so the
   steal/reduce machinery is exercised. "Events" is everything the tool
   interface can observe — frame enters + returns, syncs, steals, reduce
   merges and memory accesses — and is configuration-independent, so the
   rows divide through by the same numerator. *)

type s12_row = {
  s12_bench : string;
  s12_events : int;
  s12_eps : (string * float) list; (* config key -> events per second *)
}

let s12_configs =
  [
    ("null_tool", fun (_ : Engine.t) -> ());
    ("sp_plus", fun eng -> ignore (Sp_plus.attach ~reach:Reach.Dset eng));
    ("peer_set", fun eng -> ignore (Peer_set.attach ~reach:Reach.Dset eng));
  ]

let s12_event_count (st : Engine.stats) =
  (2 * st.Engine.n_frames) (* enter + return *)
  + st.Engine.n_syncs + st.Engine.n_steals + st.Engine.n_reduce_calls
  + st.Engine.n_reads + st.Engine.n_writes + st.Engine.n_reducer_reads

let s12_event_throughput rows =
  List.map
    (fun row ->
      let b = row.bench in
      Printf.printf "timing %-10s [events/s] ...%!" b.Bench_def.name;
      let spec = spec_updates ~k:row.k in
      let events =
        let eng = Engine.create ~spec () in
        ignore (Engine.run eng b.Bench_def.cilk);
        s12_event_count (Engine.stats eng)
      in
      let eps =
        List.map
          (fun (key, attach) ->
            let s =
              measure (fun () ->
                  let eng = Engine.create ~spec () in
                  attach eng;
                  Engine.run eng b.Bench_def.cilk)
            in
            (key, float_of_int events /. s))
          s12_configs
      in
      Printf.printf " done\n%!";
      { s12_bench = b.Bench_def.name; s12_events = events; s12_eps = eps })
    rows

let s12_print s12rows =
  Printf.printf
    "\nS12: engine event throughput under the \"check updates\" spec,\n\
     in observable events per second\n\
     --------------------------------------------------------------\n";
  let t =
    Tablefmt.create
      [
        "Benchmark";
        "events";
        "null tool Mev/s";
        "SP+ Mev/s";
        "Peer-Set Mev/s";
      ]
  in
  List.iter
    (fun r ->
      let mev key = Printf.sprintf "%.2f" (List.assoc key r.s12_eps /. 1e6) in
      Tablefmt.add_row t
        [
          r.s12_bench;
          string_of_int r.s12_events;
          mev "null_tool";
          mev "sp_plus";
          mev "peer_set";
        ])
    s12rows;
  Tablefmt.print t

(* ---------- bechamel micro-benchmarks: one Test.make per table ---------- *)

let bechamel_tables () =
  let open Bechamel in
  let tiny = Suite.all ~scale:0.25 () in
  let mk_fig7 b =
    Test.make ~name:b.Bench_def.name
      (Staged.stage (fun () ->
           let eng = Engine.create () in
           ignore (Sp_plus.attach eng);
           ignore (Engine.run eng b.Bench_def.cilk)))
  in
  let mk_fig8 b =
    Test.make ~name:b.Bench_def.name
      (Staged.stage (fun () ->
           let eng = Engine.create () in
           ignore (Engine.run eng b.Bench_def.cilk)))
  in
  let grouped =
    Test.make_grouped ~name:"bechamel"
      [
        Test.make_grouped ~name:"fig7-sp+" (List.map mk_fig7 tiny);
        Test.make_grouped ~name:"fig8-empty-tool" (List.map mk_fig8 tiny);
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~stabilize:false () in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf
    "\nBechamel micro-benchmarks (ns per whole-benchmark run, tiny inputs)\n\
     -------------------------------------------------------------------\n";
  let t = Tablefmt.create [ "test"; "ns/run"; "r^2" ] in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      Tablefmt.add_row t
        [ name; Printf.sprintf "%.0f" est; Printf.sprintf "%.4f" r2 ])
    (List.sort compare rows);
  Tablefmt.print t

(* ---------- BENCH_rader.json: the persisted perf trajectory ---------- *)

(* Hand-rolled emitter (no JSON dependency in the image). Keys are part of
   the schema: never rename them, only add — future PRs diff this file
   against their own run to see performance moves. *)
type json =
  | Num of float
  | Int of int
  | Bool of bool
  | Str of string
  | Obj of (string * json) list

let rec emit_json buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Str s ->
      Buffer.add_char buf '"';
      String.iter
        (function
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | c when Char.code c < 0x20 ->
              Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          emit_json buf (Str k);
          Buffer.add_char buf ':';
          emit_json buf v)
        fields;
      Buffer.add_char buf '}'

let bench_json rows (s4 : s4_data) s6rows s7rows (s8 : s8_data) s9rows s10progs
    s11rows s12rows =
  let overhead_grid base =
    Obj
      (List.map
         (fun row ->
           ( row.bench.Bench_def.name,
             Obj
               (List.filter_map
                  (fun (m, _) ->
                    if m = "plain" || m = "empty tool" then None
                    else Some (mode_key m, Num (ratio row m base)))
                  row.times) ))
         rows)
  in
  let base_times =
    Obj
      (List.map
         (fun row ->
           ( row.bench.Bench_def.name,
             Obj
               [
                 ("k", Int row.k);
                 ("d", Int row.d);
                 ("plain_s", Num (List.assoc "plain" row.times));
                 ("empty_tool_s", Num (List.assoc "empty tool" row.times));
                 ("noisy", Bool (row_noisy row));
               ] ))
         rows)
  in
  let t1 = Option.get (List.assoc 1 s4.s4_times) in
  (* skipped (hardware-bound) job counts serialize as null, and are listed
     under skipped_jobs, so trajectory diffs on bigger hosts see the hole *)
  let opt_num = function Some x -> Num x | None -> Num Float.nan in
  let s6_counters =
    (* depa deltas ride along as "<mode>_depa" keys — additive, so the
       rader-bench/4 keys keep their meaning (dset backend) *)
    let counters_obj c =
      Obj
        (List.map (fun (k, v) -> (k, Int v)) (Obs.to_assoc c)
        @ [
            ("detector_ops", Int (s6_detector_ops c));
            ("detector_ops_per_event", Num (s6_ops_per_event c));
          ])
    in
    Obj
      (List.map
         (fun r ->
           ( r.s6_bench,
             Obj
               (List.map (fun (mode, c) -> (mode, counters_obj c)) r.s6_modes
               @ List.map
                   (fun (mode, c) -> (mode ^ "_depa", counters_obj c))
                   r.s6_modes_depa) ))
         s6rows)
  in
  let s9_json =
    Obj
      (List.map
         (fun r ->
           ( r.s9_bench,
             Obj
               (("noisy", Bool r.s9_noisy)
               :: List.map
                    (fun (key, c) ->
                      ( key,
                        Obj
                          [
                            ("ops_per_event_dset", Num c.s9_ops_dset);
                            ("ops_per_event_depa", Num c.s9_ops_depa);
                            ("ops_ratio", Num (c.s9_ops_depa /. c.s9_ops_dset));
                            ("fig8_dset", Num c.s9_fig8_dset);
                            ("fig8_depa", Num c.s9_fig8_depa);
                          ] ))
                    r.s9_cells) ))
         s9rows)
  in
  let s7_json =
    Obj
      (List.map
         (fun r ->
           ( r.s7_name,
             Obj
               [
                 ("k", Int r.s7_k);
                 ("d", Int r.s7_d);
                 ("k_rel", Int r.s7_k_rel);
                 ("specs_total", Int r.s7_total);
                 ("specs_kept", Int r.s7_kept);
                 ("pruned_pct", Num (s7_pruned_pct r));
               ] ))
         s7rows)
  in
  let s10_json =
    Obj
      (List.map
         (fun p ->
           ( p.s10_name,
             Obj
               [
                 ( "by_workers",
                   Obj
                     (List.map
                        (fun r ->
                          ( string_of_int r.s10_workers,
                            Obj
                              [
                                ("runtime_s", Num r.s10_runtime_s);
                                ("verdict_s", Num r.s10_verdict_s);
                                ("events", Int r.s10_events);
                                ( "events_per_s",
                                  Num
                                    (float_of_int r.s10_events /. r.s10_runtime_s)
                                );
                                ("races", Int r.s10_races);
                              ] ))
                        p.s10_rows) );
               ] ))
         s10progs)
  in
  let s11_json =
    Obj
      (List.map
         (fun r ->
           ( r.s11_name,
             Obj
               [
                 ("n_specs", Int r.s11_n_specs);
                 ("sweep_runs", Int r.s11_sweep_run);
                 ("sweep_s", Num r.s11_sweep_s);
                 ("verify_replays", Int r.s11_replays);
                 ("verify_s", Num r.s11_verify_s);
                 ("replays_avoided_pct", Num (s11_avoided_pct r));
                 ("speedup_vs_sweep", Num (r.s11_sweep_s /. r.s11_verify_s));
                 ("racy_locs", Int r.s11_racy);
                 ("parity", Bool r.s11_parity);
               ] ))
         s11rows)
  in
  let s12_json =
    Obj
      (List.map
         (fun r ->
           ( r.s12_bench,
             Obj
               [
                 ("events", Int r.s12_events);
                 ( "events_per_s",
                   Obj (List.map (fun (k, v) -> (k, Num v)) r.s12_eps) );
               ] ))
         s12rows)
  in
  Obj
    [
      (* rader-bench/10: s10_online_throughput times each run's runtime
         and verdict (runtime_s, verdict_s) and has no serial-stack keys *)
      ("schema", Str "rader-bench/10");
      ("scale", Num scale);
      ("fast", Bool fast);
      ("ncores", Int s4.s4_ncores);
      ("fig7_overhead_vs_plain", overhead_grid "plain");
      ("fig8_overhead_vs_empty_tool", overhead_grid "empty tool");
      ("base_times", base_times);
      ( "s4_parallel_sweep",
        Obj
          [
            ("workload_k", Int s4.s4_k);
            ("workload_d", Int s4.s4_d);
            ("n_specs", Int s4.s4_n_specs);
            ("recommended_domain_count", Int s4.s4_ncores);
            ( "sweep_seconds_by_jobs",
              Obj
                (List.map (fun (j, dt) -> (string_of_int j, opt_num dt)) s4.s4_times)
            );
            ( "speedup_vs_jobs1",
              Obj
                (List.map
                   (fun (j, dt) ->
                     (string_of_int j, opt_num (Option.map (fun d -> t1 /. d) dt)))
                   s4.s4_times) );
            ( "skipped_jobs",
              Str
                (String.concat ","
                   (List.filter_map
                      (fun (j, dt) ->
                        if dt = None then Some (string_of_int j) else None)
                      s4.s4_times)) );
            ( "engine_reuse",
              Obj
                [
                  ("replays", Int s4.s4_reuse_iters);
                  ("fresh_engine_s", Num s4.s4_fresh);
                  ("reset_reuse_s", Num s4.s4_reset);
                  ("fresh_over_reset", Num (s4.s4_fresh /. s4.s4_reset));
                ] );
          ] );
      ("s6_counters", s6_counters);
      ("s7_spec_pruning", s7_json);
      ("s9_reach_backends", s9_json);
      ( "s8_service_throughput",
        Obj
          [
            ("requests_per_client", Int s8.s8_per_client);
            ( "checks_per_s_by_clients",
              Obj
                (List.map
                   (fun r -> (string_of_int r.s8_clients, Num r.s8_cps))
                   s8.s8_rows) );
            ( "overload",
              Obj
                [
                  ("workers", Int 1);
                  ("queue_depth", Int 1);
                  ("clients", Int 16);
                  ("sent", Int s8.s8_over_sent);
                  ("served", Int s8.s8_over_served);
                  ("shed", Int s8.s8_over_sheds);
                  ("shed_pct", Num (s8_shed_pct s8));
                ] );
          ] );
      ("s10_online_throughput", s10_json);
      ("s11_symbolic_verify", s11_json);
      ("s12_event_throughput", s12_json);
    ]

let write_bench_json rows s4 s6rows s7rows s8 s9rows s10progs s11rows s12rows =
  let buf = Buffer.create 4096 in
  emit_json buf
    (bench_json rows s4 s6rows s7rows s8 s9rows s10progs s11rows s12rows);
  Buffer.add_char buf '\n';
  let oc = open_out "BENCH_rader.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "\nwrote BENCH_rader.json\n"

let () =
  Printf.printf
    "Rader/OCaml benchmark harness — reproducing Lee & Schardl, SPAA'15 §8\n\
     scale=%.2f fast=%b\n\n%!"
    scale fast;
  let rows = time_suite () in
  overhead_table ~title:"Figure 7: overhead over no instrumentation" ~base:"plain" rows;
  overhead_table ~title:"Figure 8: overhead over an empty tool" ~base:"empty tool" rows;
  base_times_table rows;
  s1_spec_families rows;
  s2_steal_sweep ();
  s3_wsim ();
  let s4 = s4_parallel_sweep () in
  s4_print s4;
  s5_detector_comparison ();
  let s6rows = s6_cost_model rows in
  s6_print s6rows;
  let s7rows = s7_spec_pruning rows in
  s7_print s7rows;
  let s8 = s8_service_throughput () in
  s8_print s8;
  let s9rows = s9_backend_comparison rows s6rows in
  s9_print s9rows;
  let s10progs = s10_online_throughput () in
  s10_print s10progs;
  let s11rows = s11_symbolic_verify () in
  s11_print s11rows;
  let s12rows = s12_event_throughput rows in
  s12_print s12rows;
  write_bench_json rows s4 s6rows s7rows s8 s9rows s10progs s11rows s12rows;
  if not skip_bechamel then bechamel_tables ();
  Printf.printf "\ndone.\n"
