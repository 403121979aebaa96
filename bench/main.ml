(* Benchmark harness reproducing the paper's evaluation (§8).

   Regenerates:
   - Figure 7: Rader's multiplicative overhead over running each benchmark
     WITHOUT instrumentation, for the four detector configurations
     (Check view-read race / No steals / Check updates / Check reductions),
     under each precedence backend (dset, depa);
   - Figure 8: the same runs normalized to the EMPTY TOOL (instrumentation
     dispatching to no-op callbacks);
   - S2: SP+ running time as the number of simulated steals M grows
     (the O((T + Mτ) α) cost model of Theorem 5);
   - S4: the multicore §7 coverage sweep — wall-clock at --jobs 1/2/4/ncores
     (job counts beyond the available cores are marked skipped, not timed
     as bogus <1x speedups) and the engine-reuse (Engine.reset) vs
     fresh-engine-per-spec ratio;
   - S5: serial detector comparison on reducer-free workloads (§9 baselines);
   - S10: online throughput — events/sec through the real work-stealing
     runtime (effects scheduler, Chase-Lev deques) at 1/2/4 worker
     domains, and the time of each run's verdict (the serial SP+ and
     Peer-Set replay of its steals) as a separate column.

   Rows that something else measures are not repeated here: the §7
   family sizes (S1) and the pruning counts (S7) are exact tables in
   test_coverage and test_analysis, the simulated makespans (S3) in
   test_sched, detector operation counts (S6, S9) in test_complexity
   "obs-exact", and serve throughput (S8), verify against the sweep (S11)
   and engine events/s (S12) are ledger_bench metrics.

   Besides the printed tables, the harness writes BENCH_rader.json
   (schema rader-bench/11). It is gitignored (host-dependent timings);
   BENCH_seed.json, the per-cell median of ten fast-mode runs, is the
   committed baseline scripts/perf_gate.py compares a fast run against.

   Environment knobs:
     RADER_BENCH_SCALE      workload multiplier (default 4.0)
     RADER_BENCH_FAST=1     scale 1.0 and smaller side rows (CI smoke) *)

open Rader_runtime
open Rader_core
open Rader_benchsuite
module Stats = Rader_support.Stats
module Tablefmt = Rader_support.Tablefmt
module Rng = Rader_support.Rng
module Reach = Rader_reach.Reach

let fast = Sys.getenv_opt "RADER_BENCH_FAST" = Some "1"

let scale =
  if fast then 1.0
  else
    match Sys.getenv_opt "RADER_BENCH_SCALE" with
    | Some s -> float_of_string s
    | None -> 4.0

(* ---------- the one timing protocol ----------

   A timed row lists its configurations. Each is calibrated once: how
   many repetitions fill a block of at least [block_s]. Each of [rounds]
   rounds then times one block of every configuration, in an order
   rotated by one per round, so a drift of the host (clock frequency,
   neighbours, heap growth) reaches every configuration of a round
   alike. A block yields the mean seconds per repetition; repeating
   inside one clock pair keeps clock granularity out of sub-millisecond
   runs. A ratio is taken within each round, and every reported cell is
   the median over rounds with its interquartile range. *)

let block_s = 0.025
let rounds = 11

type cell = { med : float; q1 : float; q3 : float }

let cell_of xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let q p =
    let h = p *. float_of_int (Array.length a - 1) in
    let i = int_of_float h in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  in
  { med = q 0.5; q1 = q 0.25; q3 = q 0.75 }

let block reps f =
  let total = ref 0.0 and iters = ref 0 in
  while !total < block_s do
    let _, dt =
      Stats.time_it (fun () ->
          for _ = 1 to reps do
            f ()
          done)
    in
    total := !total +. dt;
    iters := !iters + reps
  done;
  !total /. float_of_int !iters

let calibrate f =
  let _, dt = Stats.time_it f in
  if dt >= block_s then 1 else int_of_float (ceil (block_s /. Float.max dt 1e-9))

(* [time_row configs] is each configuration's seconds per repetition,
   one sample per round. *)
let time_row configs =
  let fs = Array.of_list (List.map snd configs) in
  let n = Array.length fs in
  let reps = Array.map calibrate fs in
  let t = Array.make_matrix n rounds nan in
  for r = 0 to rounds - 1 do
    for j = 0 to n - 1 do
      let i = (j + r) mod n in
      t.(i).(r) <- block reps.(i) fs.(i)
    done
  done;
  List.mapi (fun i (name, _) -> (name, t.(i))) configs

let seconds samples a = cell_of (List.assoc a samples)

let ratio samples a b =
  cell_of (Array.map2 ( /. ) (List.assoc a samples) (List.assoc b samples))

let cell_s fmt c = Printf.sprintf "%s [%s-%s]" (fmt c.med) (fmt c.q1) (fmt c.q3)
let ratio_s = cell_s Tablefmt.cell_f
let ms_s = cell_s (fun s -> Printf.sprintf "%.3f" (1000. *. s))

(* ---------- detector configurations (paper Fig. 7 columns) ---------- *)

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

(* (schema key, column title, run) of the four detector configurations *)
let detectors =
  [
    ( "check_view_read_race",
      "Check view-read race",
      fun reach b ~k:_ ->
        with_detector (fun eng -> ignore (Peer_set.attach ~reach eng)) b );
    ( "no_steals",
      "No steals",
      fun reach b ~k:_ ->
        with_detector (fun eng -> ignore (Sp_plus.attach ~reach eng)) b );
    ( "check_updates",
      "Check updates",
      fun reach b ~k ->
        with_detector
          (fun eng -> ignore (Sp_plus.attach ~reach eng))
          ~spec:(spec_updates ~k) b );
    ( "check_reductions",
      "Check reductions",
      fun reach b ~k ->
        with_detector
          (fun eng -> ignore (Sp_plus.attach ~reach eng))
          ~spec:(spec_reductions ~k ~seed:20150613)
          b );
  ]

let detector_key reach key = Reach.show reach ^ "/" ^ key

(* The ten configurations of a Fig. 7/8 row, timed in one pass. *)
let fig_configs =
  ("plain", fun b ~k:_ -> b.Bench_def.plain ())
  :: ("empty_tool", fun b ~k:_ -> with_detector (fun _ -> ()) b)
  :: List.concat_map
       (fun reach ->
         List.map (fun (key, _, run) -> (detector_key reach key, run reach)) detectors)
       Reach.all

type row = {
  bench : Bench_def.t;
  k : int;
  d : int;
  samples : (string * float array) list;
}

let time_suite () =
  List.map
    (fun b ->
      Printf.printf "timing %-10s ...%!" b.Bench_def.name;
      let prof = Coverage.profile b.Bench_def.cilk in
      let k = prof.Coverage.k in
      (* correctness check: every configuration returns the plain checksum *)
      let expected = b.Bench_def.plain () in
      List.iter
        (fun (name, run) ->
          if run b ~k <> expected then
            failwith
              (Printf.sprintf "%s/%s: checksum mismatch" b.Bench_def.name name))
        fig_configs;
      let samples =
        time_row
          (List.map (fun (name, run) -> (name, fun () -> ignore (run b ~k))) fig_configs)
      in
      Printf.printf " done\n%!";
      { bench = b; k; d = prof.Coverage.d; samples })
    (Suite.all ~scale ())

(* Fig. 7 divides by the plain program, Fig. 8 by the empty tool. *)
let overhead ~base reach row key =
  ratio row.samples (detector_key reach key) base

let overhead_table ~title ~base reach rows =
  let title = Printf.sprintf "%s (%s backend)" title (Reach.show reach) in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let cols = List.map (fun (_, col, _) -> col) detectors in
  let t = Tablefmt.create ([ "Benchmark"; "Input size"; "Description" ] @ cols) in
  let med row key = (overhead ~base reach row key).med in
  List.iter
    (fun row ->
      Tablefmt.add_row t
        ([ row.bench.Bench_def.name; row.bench.Bench_def.input; row.bench.Bench_def.descr ]
        @ List.map (fun (key, _, _) -> ratio_s (overhead ~base reach row key)) detectors))
    rows;
  Tablefmt.add_rule t;
  let geo key = Stats.geomean (List.map (fun r -> med r key) rows) in
  Tablefmt.add_row t
    ([ "geometric mean of medians"; ""; "" ]
    @ List.map (fun (key, _, _) -> Tablefmt.cell_f (geo key)) detectors);
  let lo, hi =
    Stats.min_max
      (List.concat_map (fun r -> List.map (fun (key, _, _) -> med r key) detectors) rows)
  in
  Tablefmt.add_row t [ "range of medians"; ""; ""; Printf.sprintf "%.2f - %.2f" lo hi ];
  Tablefmt.print t

let base_times_table rows =
  Printf.printf
    "\nAbsolute base times (median [IQR] ms over %d rounds)\n\
     ----------------------------------------------------\n"
    rounds;
  let t = Tablefmt.create [ "Benchmark"; "K"; "D"; "plain (ms)"; "empty tool (ms)" ] in
  List.iter
    (fun row ->
      Tablefmt.add_row t
        [
          row.bench.Bench_def.name;
          string_of_int row.k;
          string_of_int row.d;
          ms_s (seconds row.samples "plain");
          ms_s (seconds row.samples "empty_tool");
        ])
    rows;
  Tablefmt.print t

(* ---------- S2: SP+ cost vs number of steals (Theorem 5) ---------- *)

let s2_steal_sweep () =
  Printf.printf
    "\nS2: SP+ running time vs simulated steals M (fib workload)\n\
     ---------------------------------------------------------\n";
  let b = Suite.find ~scale:(Float.min scale 2.0) "fib" in
  let densities = [ 0.0; 0.05; 0.1; 0.25; 0.5; 0.75; 1.0 ] in
  let run density =
    let spec =
      if density = 0.0 then Steal_spec.none
      else Steal_spec.random ~seed:7 ~density ()
    in
    let eng = Engine.create ~spec () in
    ignore (Sp_plus.attach eng);
    ignore (Engine.run eng b.Bench_def.cilk);
    Engine.stats eng
  in
  let samples =
    time_row
      (List.map (fun dn -> (string_of_float dn, fun () -> ignore (run dn))) densities)
  in
  let t = Tablefmt.create [ "steal density"; "steals M"; "reduce calls"; "time (ms)"; "vs M=0" ] in
  List.iter
    (fun dn ->
      let stats = run dn in
      let key = string_of_float dn in
      Tablefmt.add_row t
        [
          Printf.sprintf "%.2f" dn;
          string_of_int stats.Engine.n_steals;
          string_of_int stats.Engine.n_reduce_calls;
          ms_s (seconds samples key);
          ratio_s (ratio samples key (string_of_float 0.0));
        ])
    densities;
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
  s4_jobs : int list; (* every job count; those above [s4_ncores] are skipped *)
  s4_reuse_iters : int;
  s4_samples : (string * float array) list;
}

let jobs_key j = "jobs" ^ string_of_int j

let s4_parallel_sweep () =
  let ncores = Parallel_sweep.default_jobs () in
  let prof = Coverage.profile sweep_program in
  let n_specs =
    List.length (Coverage.all_specs ~k:prof.Coverage.k ~d:prof.Coverage.d)
  in
  let job_counts = List.sort_uniq compare [ 1; 2; 4; ncores ] in
  let sweep jobs () =
    let res = Coverage.exhaustive_check ~jobs sweep_program in
    assert res.Coverage.complete
  in
  (* Engine reuse: the same batch of spec replays with a fresh
     engine+detector per spec vs one pair recycled through
     Engine.reset ~tool / Sp_plus.reset. *)
  let spec =
    Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ 2; 4 ]
  in
  let reuse_iters = if fast then 200 else 400 in
  let replay eng det =
    (match Engine.run_result eng sweep_program with
    | Ok _ -> ()
    | Error _ -> assert false);
    assert (Sp_plus.races det = [])
  in
  let fresh () =
    for _ = 1 to reuse_iters do
      let eng = Engine.create ~spec () in
      replay eng (Sp_plus.attach eng)
    done
  in
  let reset () =
    let eng = Engine.create () in
    let det = Sp_plus.attach eng in
    for _ = 1 to reuse_iters do
      Engine.reset ~tool:(Sp_plus.tool det) ~spec eng;
      Sp_plus.reset det;
      replay eng det
    done
  in
  let samples =
    time_row
      (List.filter_map
         (fun j -> if j > ncores then None else Some (jobs_key j, sweep j))
         job_counts
      @ [ ("fresh", fresh); ("reset", reset) ])
  in
  {
    s4_k = prof.Coverage.k;
    s4_d = prof.Coverage.d;
    s4_n_specs = n_specs;
    s4_ncores = ncores;
    s4_jobs = job_counts;
    s4_reuse_iters = reuse_iters;
    s4_samples = samples;
  }

let s4_print (s4 : s4_data) =
  Printf.printf
    "\nS4: multicore coverage sweep (K=%d D=%d workload, %d steal specs;\n\
     %d core(s) available — job counts beyond that are skipped)\n\
     ----------------------------------------------------------------\n"
    s4.s4_k s4.s4_d s4.s4_n_specs s4.s4_ncores;
  let t = Tablefmt.create [ "jobs"; "sweep (ms)"; "speedup vs jobs=1" ] in
  List.iter
    (fun j ->
      if j > s4.s4_ncores then
        Tablefmt.add_row t
          [ string_of_int j; Printf.sprintf "skipped (%d core(s))" s4.s4_ncores; "-" ]
      else
        Tablefmt.add_row t
          [
            string_of_int j;
            ms_s (seconds s4.s4_samples (jobs_key j));
            ratio_s (ratio s4.s4_samples (jobs_key 1) (jobs_key j));
          ])
    s4.s4_jobs;
  Tablefmt.print t;
  Printf.printf
    "engine reuse (%d replays under one spec): fresh %s ms, reset %s ms -> \
     fresh/reset = %s\n"
    s4.s4_reuse_iters
    (ms_s (seconds s4.s4_samples "fresh"))
    (ms_s (seconds s4.s4_samples "reset"))
    (ratio_s (ratio s4.s4_samples "fresh" "reset"))

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
  (* Peer-Set checks reducer reads, which these workloads do not make *)
  let detectors =
    ("empty", fun _ -> ())
    :: List.filter_map
         (fun ((name, attach) : string * Detectors.attach) ->
           if name = "peerset" then None
           else Some (name, fun eng -> let _races = attach ~reach:None eng in ()))
         Detectors.table
  in
  let t = Tablefmt.create ("Workload" :: "Input" :: List.map fst (List.tl detectors)) in
  List.iter
    (fun b ->
      let samples =
        time_row
          (List.map
             (fun (name, attach) ->
               (name, fun () -> ignore (with_detector attach b)))
             detectors)
      in
      Tablefmt.add_row t
        (b.Bench_def.name :: b.Bench_def.input
        :: List.map
             (fun (name, _) -> ratio_s (ratio samples name "empty"))
             (List.tl detectors)))
    workloads;
  Tablefmt.print t

(* ---------- S10: online throughput (real work-stealing runtime) ---------- *)

(* Events/sec through the Online runtime — effects scheduler, Chase-Lev
   deques, view regions — at 1/2/4 worker domains, and beside it the
   run's verdict: the serial detectors under its steals (a no-steal
   Peer-Set run that observes the program's frames, plus one SP+ replay,
   timed with a fresh judge per repetition so each one makes that run).
   The structural steal set is a pure function of (program, seed,
   density), so every row judges the same steals; what varies across
   rows is only genuine parallel execution. *)

module Online = Rader_sched.Online

type s10_row = { s10_workers : int; s10_events : int; s10_races : int }

type s10_prog = {
  s10_name : string;
  s10_rows : s10_row list;
  s10_samples : (string * float array) list;
}

let s10_worker_counts = [ 1; 2; 4 ]
let runtime_key w = "runtime" ^ string_of_int w
let verdict_key w = "verdict" ^ string_of_int w

let s10_online_throughput () =
  let s10_scale = if fast then 0.25 else 1.0 in
  let ok what = function
    | Ok v -> v
    | Error f -> failwith (Printf.sprintf "S10: %s failed: %s" what (Fault.to_string f))
  in
  List.map
    (fun name ->
      Printf.printf "timing %-10s [online] ...%!" name;
      let p =
        match Demos.resolve ~scale:s10_scale name with
        | Ok p -> p
        | Error m -> failwith m
      in
      let runs =
        List.map
          (fun w ->
            let cfg = Online.default ~workers:w ~seed:1 () in
            let o = Online.run cfg p in
            ignore (ok "online run" o.Online.value);
            (w, cfg, o))
          s10_worker_counts
      in
      let verdict (o : Online.outcome) =
        ok "verdict" (Online.verdict (Online.judge p) o.Online.trace)
      in
      let samples =
        time_row
          (List.concat_map
             (fun (w, cfg, o) ->
               [
                 (runtime_key w, fun () -> ignore (ok "online run" (Online.run cfg p).Online.value));
                 (verdict_key w, fun () -> ignore (verdict o));
               ])
             runs)
      in
      Printf.printf " done\n%!";
      {
        s10_name = name;
        s10_rows =
          List.map
            (fun (w, _, o) ->
              {
                s10_workers = w;
                s10_events = o.Online.events;
                s10_races = List.length (verdict o);
              })
            runs;
        s10_samples = samples;
      })
    [ "fib"; "wordcount" ]

let s10_events_per_s p r =
  float_of_int r.s10_events /. (seconds p.s10_samples (runtime_key r.s10_workers)).med

let s10_print progs =
  Printf.printf
    "\nS10: online throughput — events/sec on the real work-stealing\n\
     runtime at 1/2/4 worker domains, and the time of the run's verdict\n\
     (serial SP+ + Peer-Set replay of its steals, dset backend)\n\
     ----------------------------------------------------------------\n";
  let t =
    Tablefmt.create
      [
        "Program"; "workers"; "events"; "runtime ms"; "events/s"; "speedup";
        "verdict ms"; "races";
      ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun r ->
          let w = r.s10_workers in
          Tablefmt.add_row t
            [
              p.s10_name;
              string_of_int w;
              string_of_int r.s10_events;
              ms_s (seconds p.s10_samples (runtime_key w));
              Printf.sprintf "%.3g" (s10_events_per_s p r);
              ratio_s (ratio p.s10_samples (runtime_key 1) (runtime_key w));
              ms_s (seconds p.s10_samples (verdict_key w));
              string_of_int r.s10_races;
            ])
        p.s10_rows)
    progs;
  Tablefmt.print t

(* ---------- BENCH_rader.json ---------- *)

(* Hand-rolled emitter (no JSON dependency in the image). A timed value
   is a cell object {median, q1, q3}; a skipped one is null. *)
type json = Num of float | Int of int | Bool of bool | Str of string | Obj of (string * json) list

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

let cell_json c = Obj [ ("median", Num c.med); ("q1", Num c.q1); ("q3", Num c.q3) ]

let bench_json rows (s4 : s4_data) s10progs =
  let overhead_grid base =
    Obj
      (List.map
         (fun reach ->
           ( Reach.show reach,
             Obj
               (List.map
                  (fun row ->
                    ( row.bench.Bench_def.name,
                      Obj
                        (List.map
                           (fun (key, _, _) -> (key, cell_json (overhead ~base reach row key)))
                           detectors) ))
                  rows) ))
         Reach.all)
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
                 ("plain_s", cell_json (seconds row.samples "plain"));
                 ("empty_tool_s", cell_json (seconds row.samples "empty_tool"));
               ] ))
         rows)
  in
  (* skipped (hardware-bound) job counts serialize as null *)
  let by_jobs f =
    Obj
      (List.map
         (fun j -> (string_of_int j, if j > s4.s4_ncores then Num nan else cell_json (f j)))
         s4.s4_jobs)
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
                          let w = r.s10_workers in
                          ( string_of_int w,
                            Obj
                              [
                                ("runtime_s", cell_json (seconds p.s10_samples (runtime_key w)));
                                ("verdict_s", cell_json (seconds p.s10_samples (verdict_key w)));
                                ("events", Int r.s10_events);
                                ("events_per_s", Num (s10_events_per_s p r));
                                ("races", Int r.s10_races);
                              ] ))
                        p.s10_rows) );
               ] ))
         s10progs)
  in
  Obj
    [
      (* rader-bench/11: every timed value is a cell (median and quartiles
         over rounds); Fig. 7/8 are keyed by backend first *)
      ("schema", Str "rader-bench/11");
      ("scale", Num scale);
      ("fast", Bool fast);
      ("ncores", Int s4.s4_ncores);
      ("rounds", Int rounds);
      ("block_s", Num block_s);
      ("fig7_overhead_vs_plain", overhead_grid "plain");
      ("fig8_overhead_vs_empty_tool", overhead_grid "empty_tool");
      ("base_times", base_times);
      ( "s4_parallel_sweep",
        Obj
          [
            ("workload_k", Int s4.s4_k);
            ("workload_d", Int s4.s4_d);
            ("n_specs", Int s4.s4_n_specs);
            ("recommended_domain_count", Int s4.s4_ncores);
            ("sweep_seconds_by_jobs", by_jobs (fun j -> seconds s4.s4_samples (jobs_key j)));
            ( "speedup_vs_jobs1",
              by_jobs (fun j -> ratio s4.s4_samples (jobs_key 1) (jobs_key j)) );
            ( "engine_reuse",
              Obj
                [
                  ("replays", Int s4.s4_reuse_iters);
                  ("fresh_engine_s", cell_json (seconds s4.s4_samples "fresh"));
                  ("reset_reuse_s", cell_json (seconds s4.s4_samples "reset"));
                  ("fresh_over_reset", cell_json (ratio s4.s4_samples "fresh" "reset"));
                ] );
          ] );
      ("s10_online_throughput", s10_json);
    ]

let write_bench_json rows s4 s10progs =
  let buf = Buffer.create 4096 in
  emit_json buf (bench_json rows s4 s10progs);
  Buffer.add_char buf '\n';
  let oc = open_out "BENCH_rader.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "\nwrote BENCH_rader.json\n"

let () =
  Printf.printf
    "Rader/OCaml benchmark harness — reproducing Lee & Schardl, SPAA'15 §8\n\
     scale=%.2f fast=%b; every cell is the median [IQR] over %d rounds of\n\
     rotated %.0f ms blocks, ratios taken within each round\n\n%!"
    scale fast rounds (1000. *. block_s);
  let rows = time_suite () in
  List.iter
    (fun reach ->
      overhead_table ~title:"Figure 7: overhead over no instrumentation" ~base:"plain"
        reach rows)
    Reach.all;
  List.iter
    (fun reach ->
      overhead_table ~title:"Figure 8: overhead over an empty tool" ~base:"empty_tool"
        reach rows)
    Reach.all;
  base_times_table rows;
  s2_steal_sweep ();
  let s4 = s4_parallel_sweep () in
  s4_print s4;
  s5_detector_comparison ();
  let s10progs = s10_online_throughput () in
  s10_print s10progs;
  write_bench_json rows s4 s10progs;
  Printf.printf "\ndone.\n"
