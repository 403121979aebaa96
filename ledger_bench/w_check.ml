(* Workload [check]: the paper's §8 traffic. Each of the six suite
   programs runs as eight jobs — Peer-Set with no steals, and SP+ with no
   steals, check-updates and check-reductions, each under the dset and the
   depa reachability backend. The engine, detector, reach and shadow
   layers do nearly all the work.

   Every round also times each program's plain-OCaml version, so the
   Fig. 7 overhead divides times taken at the same moment.

   The traced run adds the cost ledger: for every job it times the engine
   with the empty tool under no steals and under the job's spec, next to
   the detector run, so each job's Fig. 7 overhead splits into
   engine_over_plain x steal_over_nosteal x detector_over_engine. *)

open Rader_runtime
open Rader_core
open Rader_benchsuite
open Bench
module Reach = Rader_reach.Reach
module Obs = Rader_obs.Obs
module Rng = Rader_support.Rng

type prog = { b : Bench_def.t; checksum : int  (** from [Bench_def.plain] *) }
type detector = Peer | Sp

type job = {
  jid : int;
  prog : prog;
  config : string;  (** known-answer key, e.g. "sp_plus.updates" *)
  det : detector;
  reach : Reach.backend;
  spec : Steal_spec.t;
}

(* A quarter of the suite's default inputs keeps a round of 48 jobs near
   1.5 s; fib and knapsack do not shrink below scale 1. *)
let scale = 0.25

let job_name j = Printf.sprintf "%s/%s.%s" j.prog.b.Bench_def.name j.config (Reach.show j.reach)

(* §8's check-updates: steal at half the maximum sync-block width. *)
let spec_updates ~k =
  Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ max 1 (k / 2) ]

(* §8's check-reductions: three random continuation positions per sync
   block, the middle pair reduced first. The positions come from the
   workload seed. *)
let spec_reductions ~k ~seed =
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

(* The suite's inputs come from the workload seed, except knapsack's: its
   branch-and-bound search grows fivefold on some item sets, which would
   make every timing depend on the seed. Its items keep the suite's
   default seed. *)
let make_jobs ~seed =
  let knapsack = Suite.find ~scale "knapsack" in
  let progs =
    List.map
      (fun b ->
        let b = if b.Bench_def.name = "knapsack" then knapsack else b in
        (b, (Coverage.profile b.Bench_def.cilk).Coverage.k, b.Bench_def.plain ()))
      (Suite.all ~seed ~scale ())
  in
  List.concat_map
    (fun (b, k, checksum) ->
      let prog = { b; checksum } in
      let red_seed = seed + Hashtbl.hash b.Bench_def.name in
      List.concat_map
        (fun reach ->
          [
            ("peer_set.none", Peer, Steal_spec.none);
            ("sp_plus.none", Sp, Steal_spec.none);
            ("sp_plus.updates", Sp, spec_updates ~k);
            ("sp_plus.reductions", Sp, spec_reductions ~k ~seed:red_seed);
          ]
          |> List.map (fun (config, det, spec) -> (prog, config, det, reach, spec)))
        [ Reach.Dset; Reach.Depa ])
    progs
  |> List.mapi (fun jid (prog, config, det, reach, spec) -> { jid; prog; config; det; reach; spec })

let run_detector j =
  let eng = Engine.create ~spec:j.spec () in
  let racy =
    match j.det with
    | Peer ->
        let d = Peer_set.attach ~reach:j.reach eng in
        fun () -> List.length (Peer_set.races d)
    | Sp ->
        let d = Sp_plus.attach ~reach:j.reach eng in
        fun () -> List.length (Sp_plus.racy_locs d)
  in
  let r = Engine.run_result eng j.prog.b.Bench_def.cilk in
  (r, racy ())

let run_null spec j =
  let eng = Engine.create ~spec () in
  ignore (Engine.run eng j.prog.b.Bench_def.cilk)

let check_verdict j (r, racy) =
  let want = Known.check_racy ~program:j.prog.b.Bench_def.name ~config:j.config in
  verdict (job_name j)
    (match r with
    | Error f -> Some ("contained failure: " ^ Fault.to_string f)
    | Ok v when v <> j.prog.checksum ->
        Some (Printf.sprintf "checksum %d, plain says %d" v j.prog.checksum)
    | Ok _ when racy <> want -> Some (Printf.sprintf "%d racy, expected %d" racy want)
    | Ok _ -> None)

let det_layer j =
  Printf.sprintf "core.%s.%s" (match j.det with Peer -> "peer_set" | Sp -> "sp_plus") (Reach.show j.reach)

(* Runs per job and round. collision, ferret and dedup jobs finish in
   under 2 ms, the other three programs' in 10-300 ms. Repeating the short
   jobs steadies their medians. The counts also place the mix's median in
   the middle of dedup's 128 runs (32 faster runs below them, 26 slower
   above), clear of the gaps on either side, and give each run well over
   a thousand samples, so the tail is always its p99. knapsack's
   check-updates and check-reductions under depa, the two slowest jobs
   by a factor of two, run twice: with 4 of a round's 186 runs above it,
   the p99 falls in the middle of theirs, not on the gap below them. *)
let reps j =
  match (j.prog.b.Bench_def.name, j.config, j.reach) with
  | ("collision" | "ferret"), _, _ -> 2
  | "dedup", _, _ -> 16
  | "knapsack", ("sp_plus.updates" | "sp_plus.reductions"), Reach.Depa -> 2
  | _ -> 1

let geo_over jobs f = geomean (List.map f jobs)
(* each program's first job: [make_jobs] gives every program 8 in a row *)
let progs_of jobs = List.filter (fun j -> j.jid mod 8 = 0) jobs |> List.map (fun j -> j.prog)

(* Fig. 7 shape (EXPERIMENTS.md), per program over both backends: fib
   and knapsack carry the highest overheads, ferret and dedup the lowest,
   near 1 (below 3x: at this scale the engine's fixed per-run cost is a
   visible share of their sub-millisecond plain runs), and Peer-Set costs
   no more than any SP+ configuration. Configurations that cost nearly the
   same (ferret: 1.10 vs 1.11 in EXPERIMENTS.md) may cross within 10% plus
   their measured spread. *)
let paper_shape jobs samples ovh =
  let name j = j.prog.b.Bench_def.name in
  let progs = List.sort_uniq compare (List.map name jobs) in
  let of_prog p = List.filter (fun j -> name j = p) jobs in
  let per_prog p = geo_over (of_prog p) ovh in
  let ranked = List.sort (fun a b -> compare (per_prog b) (per_prog a)) progs in
  (match ranked with
  | a :: b :: _ when List.sort compare [ a; b ] = [ "fib"; "knapsack" ] -> ()
  | _ ->
      check_failed "paper shape: highest overheads are %s, expected fib and knapsack"
        (String.concat " > " ranked));
  (match List.rev ranked with
  | a :: b :: _ when List.sort compare [ a; b ] = [ "dedup"; "ferret" ] -> ()
  | _ ->
      check_failed "paper shape: lowest overheads are %s, expected ferret and dedup"
        (String.concat " < " (List.rev ranked)));
  List.iter
    (fun p ->
      if per_prog p >= 3.0 then check_failed "paper shape: %s overhead %.2f, expected near 1" p (per_prog p))
    [ "ferret"; "dedup" ];
  List.iter
    (fun p ->
      let config c = List.filter (fun j -> j.config = c) (of_prog p) in
      let spread js = rel_iqr (List.concat_map (fun j -> Samples.get samples j.jid) js) in
      let peer = config "peer_set.none" in
      List.iter
        (fun c ->
          let sp = config c in
          let tol = 0.10 +. spread peer +. spread sp in
          if geo_over peer ovh > (1.0 +. tol) *. geo_over sp ovh then
            check_failed "paper shape: %s Peer-Set overhead %.3f above %s %.3f (spread %.2f)" p
              (geo_over peer ovh) c (geo_over sp ovh) tol)
        [ "sp_plus.none"; "sp_plus.updates"; "sp_plus.reductions" ])
    progs

(* The cost ledger: per job, the product of the three layer ratios from
   the traced pass must land within the measured spread of the job's
   untraced overhead. The product is the traced detector time over the
   plain time, so the test compares the detector's traced and untraced
   times, each divided by the reference kernel time that opened its
   interval ([t_det_ref], [untraced_ref]): the two passes run half a
   minute apart, and the host's load moves raw times more than that. *)
let ledger jobs ~untraced ~untraced_ref ~plain ~t_det ~t_det_ref ~t_none ~t_spec =
  let med s j = Samples.med s j.jid in
  let eng_over_plain j = med t_none j /. Samples.med plain j.prog.b.Bench_def.name in
  let steal j = med t_spec j /. med t_none j in
  let det_over_eng j = med t_det j /. med t_spec j in
  let ovh j = med untraced j /. Samples.med plain j.prog.b.Bench_def.name in
  say "cost ledger (medians; overhead from the untraced pass; ref = traced over untraced in ref units):";
  say "  %-32s %9s %9s %9s %9s %9s %9s %6s" "job" "eng/plain" "steal" "det/eng" "product" "overhead"
    "ref" "spread";
  List.iter
    (fun j ->
      let product = eng_over_plain j *. steal j *. det_over_eng j in
      let in_ref = med t_det_ref j /. med untraced_ref j in
      let tol =
        0.25 +. rel_iqr (Samples.get t_det_ref j.jid) +. rel_iqr (Samples.get untraced_ref j.jid)
      in
      let ok = Float.abs (log in_ref) <= tol in
      say "  %-32s %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %6.2f%s" (job_name j) (eng_over_plain j)
        (steal j) (det_over_eng j) product (ovh j) in_ref tol (if ok then "" else "  MISMATCH");
      if not ok then
        check_failed "ledger: %s product %.3f vs overhead %.3f (%.3f in ref units) beyond spread %.2f"
          (job_name j) product (ovh j) in_ref tol)
    jobs;
  (eng_over_plain, steal, det_over_eng)

let run args =
  let plain = Samples.create () in
  let jobs, setup_s =
    setup (fun () ->
        let jobs = make_jobs ~seed:args.seed in
        List.iter
          (fun p -> Samples.add plain p.b.Bench_def.name (time_batched p.b.Bench_def.plain))
          (progs_of jobs);
        jobs)
  in
  let progs = progs_of jobs in
  say "check: %d jobs, %d runs per round, setup %.3f s" (List.length jobs)
    (List.fold_left (fun acc j -> acc + reps j) 0 jobs)
    setup_s;
  (* one round: every program's plain baseline, then every job, with the
     reference kernel timed before each program's eight *)
  let round ~refs ~each n =
    List.iter
      (fun p -> Samples.add plain p.b.Bench_def.name (time_batched ~samples:1 p.b.Bench_def.plain))
      progs;
    List.iter
      (fun j ->
        if j.jid mod 8 = 0 then Reference.sample refs;
        for _ = 1 to reps j do each n j done)
      jobs
  in
  let untraced = Samples.create () and busy = Samples.create () in
  let untraced_ref = Samples.create () in
  let refs = Reference.create () in
  let minor0 = minor_words () and major0 = major_collections () in
  ignore
    (rounds ~seconds:args.seconds
       (round ~refs ~each:(fun n j ->
            let res, dt = timed (fun () -> run_detector j) in
            check_verdict j res;
            Samples.add untraced j.jid dt;
            Samples.add untraced_ref j.jid (dt /. Reference.latest refs);
            Samples.add busy (n, Reference.interval refs) dt)));
  let minor = minor_words () -. minor0 and majors = major_collections () - major0 in
  let peak = peak_heap_mb () in
  let ovh j = Samples.med untraced j.jid /. Samples.med plain j.prog.b.Bench_def.name in
  say "  %-32s %10s %10s %9s" "job" "median s" "rel IQR" "overhead";
  List.iter
    (fun j ->
      let xs = Samples.get untraced j.jid in
      say "  %-32s %10.5f %10.3f %9.3f" (job_name j) (median xs) (rel_iqr xs) (ovh j))
    jobs;
  paper_shape jobs untraced ovh;
  let times = Samples.all untraced in
  if not args.trace then
    end_to_end ~setup_s ~busy ~refs
  else begin
    (* traced pass: the job itself, then its ledger runs, under one span *)
    let t_det = Samples.create () and t_none = Samples.create () in
    let t_spec = Samples.create () and t_det_ref = Samples.create () in
    let refs = Reference.create () in
    Trace.on := true;
    ignore
      (rounds ~seconds:args.seconds
         (round ~refs ~each:(fun _ j ->
              Trace.span ~job:j.jid (job_name j) (fun parent ->
                  let layer name s f =
                    let r, dt = Trace.timed ~parent ~job:j.jid name f in
                    Samples.add s j.jid dt;
                    (r, dt)
                  in
                  let res, dt = layer (det_layer j) t_det (fun () -> run_detector j) in
                  check_verdict j res;
                  Samples.add t_det_ref j.jid (dt /. Reference.latest refs);
                  ignore (layer "runtime.engine_null_none" t_none (fun () -> run_null Steal_spec.none j));
                  ignore (layer "runtime.engine_null_spec" t_spec (fun () -> run_null j.spec j))))));
    Trace.on := false;
    let eng_over_plain, steal, det_over_eng =
      ledger jobs ~untraced ~untraced_ref ~plain ~t_det ~t_det_ref ~t_none ~t_spec
    in
    Trace.print_self_times ();
    (* counting pass: one round, times thrown away *)
    let counts =
      List.map
        (fun j ->
          let res, c = Obs.with_enabled (fun () -> run_detector j) in
          check_verdict j res;
          (j, c))
        jobs
    in
    let sum_counts f js =
      float_of_int
        (List.fold_left (fun acc (j, c) -> if List.memq j js then acc + f c else acc) 0 counts)
    in
    let per_event f js = sum_counts f js /. sum_counts (fun c -> c.Obs.events) js in
    let sel f = List.filter f jobs in
    let dets d r = sel (fun j -> j.det = d && j.reach = r) in
    let dset_jobs = sel (fun j -> j.reach = Reach.Dset) in
    let depa_jobs = sel (fun j -> j.reach = Reach.Depa) in
    let med s j = Samples.med s j.jid in
    let depa_over_dset d =
      let z = List.find (fun z -> z.prog == d.prog && z.config = d.config && z.reach = Reach.Depa) jobs in
      med untraced z /. med untraced d
    in
    [
      m "runtime.engine_over_plain" "x"
        (geomean (List.map (fun p -> eng_over_plain (List.find (fun j -> j.prog == p) jobs)) progs));
      m "runtime.steal_over_nosteal" "x" (geo_over jobs steal);
      m "runtime.events_per_s" "1/s"
        (sum_counts (fun c -> c.Obs.events) jobs /. sum (List.map (med t_spec) jobs));
      m "core.sp_plus_over_engine.dset" "x" (geo_over (dets Sp Reach.Dset) det_over_eng);
      m "core.sp_plus_over_engine.depa" "x" (geo_over (dets Sp Reach.Depa) det_over_eng);
      m "core.peer_set_over_engine.dset" "x" (geo_over (dets Peer Reach.Dset) det_over_eng);
      m "core.peer_set_over_engine.depa" "x" (geo_over (dets Peer Reach.Depa) det_over_eng);
      m "reach.depa_over_dset" "x" (geo_over dset_jobs depa_over_dset);
      m "benchsuite.plain_s" "s" (sum (List.map (fun p -> Samples.med plain p.b.Bench_def.name) progs));
      m "dsets.ops_per_event" "ops" (per_event (fun c -> Obs.dset_ops c + Obs.bag_ops c) dset_jobs);
      m "reach.fp_words_per_event" "words" (per_event (fun c -> c.Obs.reach_fp_words) depa_jobs);
      m "reach.epoch_ops_per_event" "ops" (per_event (fun c -> c.Obs.reach_epoch_ops) depa_jobs);
      m "memory.shadow_ops_per_event" "ops" (per_event Obs.shadow_ops jobs);
      m "runtime.steals" "count" (sum_counts (fun c -> c.Obs.steals) jobs);
      m "runtime.reduce_calls" "count" (sum_counts (fun c -> c.Obs.reduce_calls) jobs);
    ]
    @ every_workload ~overhead:(geo_over jobs ovh) ~peak ~jobs:(List.length times) ~minor ~majors
        ~tracing_overhead:(geo_over jobs (fun j -> med t_det j /. med untraced j))
  end
