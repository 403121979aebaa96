(* Shared harness for the ledger benchmark: command line, clock,
   quantiles, the verdict tally, the span recorder behind the traced run,
   and the one-line JSON result.

   Every workload follows the same protocol. Set-up (input generation,
   plain-OCaml baselines, server start) runs [setup_reps] times and
   reports its median as [setup_s]. The untraced timed pass then runs
   whole rounds of jobs in a closed loop until its time is spent, timing
   the {!Reference} kernel every few jobs; every job's verdict is checked
   against the hand-written known answers in {!Known}. With [--trace 1] the untraced pass is followed by a traced
   pass of the same length (spans around every layer call), and the check
   workload adds one counting pass under [Obs.with_enabled] whose times
   are thrown away. *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage =
  "usage: main.exe --workload check|family|serve --seed N --seconds S --trace 0|1"

let parse_args argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | a :: _ -> failwith (Printf.sprintf "unexpected argument %S\n%s" a usage)
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0.0 ->
      { workload; seed; seconds; trace }
  | _ -> failwith usage

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------- statistics ---------- *)

(* Linear interpolation between closest ranks. *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Baseline timing for sub-millisecond runs: the median of [samples]
   5 ms batches. *)
let time_batched ?(samples = 5) f =
  let _, dt0 = timed f in
  let reps = max 1 (int_of_float (0.005 /. Float.max dt0 1e-7)) in
  let sample () =
    snd (timed (fun () -> for _ = 1 to reps do ignore (f ()) done)) /. float_of_int reps
  in
  median (List.init samples (fun _ -> sample ()))

(* Interquartile range as a share of the median. *)
let rel_iqr xs = (quantile xs 0.75 -. quantile xs 0.25) /. median xs

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

(* The highest percentile of a coarse ladder with at least ten samples
   beyond it. The ladder is coarse on purpose: a workload's sample count
   sits well inside one band, so run-to-run jitter in the count never
   switches the percentile being reported. *)
let tail xs =
  let n = List.length xs in
  let p =
    match List.find_opt (fun p -> float_of_int n *. (1.0 -. p) >= 10.0) [ 0.99; 0.9 ] with
    | Some p -> p
    | None -> 0.5
  in
  (p, quantile xs p, n)

(* ---------- the verdict tally ---------- *)

let attempted = Atomic.make 0
let failed = Atomic.make 0
let loud = ref [] (* failed whole-run checks: ledger, parity, paper shape *)
let out_mu = Mutex.create ()

let say fmt = Printf.ksprintf (fun s -> Mutex.protect out_mu (fun () -> print_endline s)) fmt

(* [verdict job check] counts one attempted job; [check] is [None] when
   the verdict matches the known answer, or the reason it does not. *)
let verdict job check =
  Atomic.incr attempted;
  match check with
  | None -> ()
  | Some why ->
      Atomic.incr failed;
      say "FAILED %s: %s" job why

let check_failed fmt =
  Printf.ksprintf
    (fun s ->
      say "CHECK FAILED: %s" s;
      loud := s :: !loud)
    fmt

(* ---------- set-up and the closed loop ---------- *)

let setup_reps = 7

(* [setup ~reps ~discard make] builds the workload state [reps] times
   (default [setup_reps]) and keeps the last; [discard] releases the
   earlier ones. Returns it with the median set-up time. A full collection, untimed, follows every
   build, so the garbage of the discarded ones neither slows the next
   build nor sets the heap's high-water mark. *)
let setup ?(reps = setup_reps) ?(discard = ignore) make =
  let rec go i acc prev =
    let st, dt = timed make in
    Option.iter discard prev;
    Gc.full_major ();
    if i = reps then (st, median (dt :: acc)) else go (i + 1) (dt :: acc) (Some st)
  in
  go 1 [] None

(* [rounds ~seconds round] runs whole rounds until [seconds] have passed
   (at least one) and returns the round count. *)
let rounds ~seconds round =
  let t0 = now () in
  let rec go n =
    round n;
    if now () -. t0 >= seconds then n + 1 else go (n + 1)
  in
  go 0

(* Per-key samples, safe across client threads. They are kept unboxed,
   one word each, so that what the harness keeps does not grow the heap
   whose high-water mark it reports. *)
module Samples = struct
  type buf = { mutable a : Float.Array.t; mutable n : int }
  type 'k t = { mu : Mutex.t; tbl : ('k, buf) Hashtbl.t }

  let create () = { mu = Mutex.create (); tbl = Hashtbl.create 64 }

  let add t k x =
    Mutex.protect t.mu (fun () ->
        let b =
          match Hashtbl.find_opt t.tbl k with
          | Some b -> b
          | None ->
              let b = { a = Float.Array.create 16; n = 0 } in
              Hashtbl.replace t.tbl k b;
              b
        in
        if b.n = Float.Array.length b.a then begin
          let a = Float.Array.create (2 * b.n) in
          Float.Array.blit b.a 0 a 0 b.n;
          b.a <- a
        end;
        Float.Array.set b.a b.n x;
        b.n <- b.n + 1)

  let to_list b = List.init b.n (Float.Array.get b.a)
  let get t k = match Hashtbl.find_opt t.tbl k with Some b -> to_list b | None -> []
  let fold f t acc = Hashtbl.fold (fun k b acc -> f k (to_list b) acc) t.tbl acc
  let all t = fold (fun _ xs acc -> xs @ acc) t []
  let med t k = median (get t k)
end

(* ---------- the reference kernel ---------- *)

(* On a shared host, other tenants' load on the caches and memory moves
   the speed of memory-heavy code by up to a half within seconds (on a
   two-vCPU VM), while a register-only loop stays within 5%. So every
   timed pass also times a fixed reference kernel every few jobs, and the
   end-to-end times are reported in units of the kernel's time around each
   job ("ref"). The kernel churns a 150 000-entry Stdlib hash table of small allocated
   values, about 12 MB: past the private caches, like the detectors'
   shadow memory. Timed every few hundred milliseconds around the check
   workload's jobs, a smaller table tracked their slowdowns less closely
   (regression slope 0.77 at 60 000 entries, 0.92 at 150 000). It is the
   benchmark's own code, and no library change can move it. *)
module Reference = struct
  let kernel () =
    let h = Hashtbl.create 16 in
    for i = 1 to 150_000 do
      Hashtbl.replace h (i * 7919 land 0xfffff) (i, [ i ])
    done;
    let s = ref 0 in
    for i = 1 to 150_000 do
      match Hashtbl.find_opt h (i * 31 land 0xfffff) with Some (a, _) -> s := !s + a | None -> ()
    done;
    !s

  (* One pass's kernel times, numbered in the order they were taken. The
     jobs timed after sample [i] and before sample [i + 1] form interval
     [i]. A full collection, untimed, comes before and after the
     kernel, so that it neither pays for the jobs' garbage nor leaves its
     own to the short jobs that follow it. *)
  type t = { times : (int, float) Hashtbl.t; mutable n : int }

  let create () = { times = Hashtbl.create 64; n = 0 }

  let sample r =
    Gc.full_major ();
    Hashtbl.replace r.times r.n (snd (timed (fun () -> Sys.opaque_identity (kernel ()))));
    Gc.full_major ();
    r.n <- r.n + 1

  (* the interval a job timed now falls in *)
  let interval r =
    if r.n = 0 then invalid_arg "Reference.interval: no sample yet";
    r.n - 1

  (* the kernel time of the sample that opened the current interval *)
  let latest r = Hashtbl.find r.times (interval r)

  (* The kernel time around interval [i]: the mean of the samples that
     open and close it, or the opening one alone for the last. *)
  let around r i =
    let a = Hashtbl.find r.times i in
    match Hashtbl.find_opt r.times (i + 1) with Some b -> (a +. b) /. 2.0 | None -> a

  let all r = Hashtbl.fold (fun _ x acc -> x :: acc) r.times []
end

let job_table rows =
  List.iter
    (fun (name, xs) -> say "  %-28s median %10.4g s  rel IQR %6.3f  n %d" name (median xs) (rel_iqr xs) (List.length xs))
    rows

(* ---------- heap and allocation ---------- *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let minor_words () = (Gc.quick_stat ()).Gc.minor_words
let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* ---------- spans ---------- *)

(* Spans are recorded by this benchmark around its own calls into each
   layer. Each carries the job it belongs to and the span that caused it
   (0 = none). They stay in memory and are written as a Chrome trace when
   the run ends. *)
module Trace = struct
  type span = {
    id : int;
    parent : int;
    job : int;
    tid : int;
    name : string;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let mu = Mutex.create ()
  let spans = ref []
  let next = ref 1

  (* [span ~job name f] runs [f id] inside a span; untraced, [id] is 0. *)
  let span ?(parent = 0) ?(tid = 0) ~job name f =
    if not !on then f 0
    else
      let id =
        Mutex.protect mu (fun () ->
            let i = !next in
            incr next;
            i)
      in
      let t0 = now () in
      Fun.protect
        (fun () -> f id)
        ~finally:(fun () ->
          let s = { id; parent; job; tid; name; t0; t1 = now () } in
          Mutex.protect mu (fun () -> spans := s :: !spans))

  (* [record ~job name t0 t1] adds a span timed by the caller, for spans
     named only once the call has returned. *)
  let record ?(parent = 0) ?(tid = 0) ~job name t0 t1 =
    if !on then
      Mutex.protect mu (fun () ->
          let id = !next in
          incr next;
          spans := { id; parent; job; tid; name; t0; t1 } :: !spans)

  (* [timed ~job name f] is {!span} returning the call's wall time. *)
  let timed ?parent ?tid ~job name f =
    span ?parent ?tid ~job name (fun _ -> timed f)

  (* Self time per span name: each span's duration minus the part of its
     interval that its child spans cover. Returns (name, total self
     seconds, span count), sorted by name. *)
  let self_times () =
    let kids = Hashtbl.create 256 in
    List.iter (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent s) !spans;
    let covered s =
      let iv =
        List.sort compare
          (List.map (fun c -> (Float.max c.t0 s.t0, Float.min c.t1 s.t1)) (Hashtbl.find_all kids s.id))
      in
      let total, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = Float.max a hi in
            if b > a then (acc +. (b -. a), b) else (acc, hi))
          (0.0, neg_infinity) iv
      in
      total
    in
    let by = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let self = s.t1 -. s.t0 -. covered s in
        let tot, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt by s.name) in
        Hashtbl.replace by s.name (tot +. self, n + 1))
      !spans;
    List.sort compare (Hashtbl.fold (fun k (t, n) acc -> (k, t, n) :: acc) by [])

  let self_of name =
    match List.find_opt (fun (n, _, _) -> n = name) (self_times ()) with
    | Some (_, t, _) -> t
    | None -> 0.0

  let print_self_times () =
    say "self time by layer (traced pass):";
    List.iter
      (fun (name, t, n) -> say "  %-34s %10.4f s  over %6d spans" name t n)
      (self_times ())

  (* Perfetto-loadable Chrome trace; spans go in start order so every
     thread row nests. *)
  let write path =
    let module C = Rader_obs.Chrome_trace in
    let t = C.create () in
    C.set_process_name t "ledger_bench";
    let ordered =
      List.sort (fun a b -> compare (a.t0, b.t1) (b.t0, a.t1)) !spans
    in
    List.iter
      (fun s ->
        C.add_complete t ~name:s.name ~tid:s.tid ~ts_us:(s.t0 *. 1e6)
          ~dur_us:((s.t1 -. s.t0) *. 1e6)
          ~args:
            [
              ("job", string_of_int s.job);
              ("span", string_of_int s.id);
              ("parent", string_of_int s.parent);
            ]
          ())
      ordered;
    (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
    C.save t path;
    say "wrote %s (%d spans)" path (List.length ordered)
end

(* ---------- metrics and the result line ---------- *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(* [by_round busy f] groups job times keyed by (round, interval) into
   rounds, each time mapped through [f interval]. *)
let by_round (busy : (int * int) Samples.t) f =
  let tbl = Hashtbl.create 64 in
  Samples.fold
    (fun (n, i) xs () ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl n) in
      Hashtbl.replace tbl n (List.map (f i) xs @ prev))
    busy ();
  Hashtbl.fold (fun _ xs acc -> xs :: acc) tbl []

(* The end-to-end metrics every workload reports, from [busy], its job
   times keyed by (round, reference interval), and [refs], the pass's
   reference-kernel samples. Each job time is divided by the kernel time
   around it. [jobs_per_ref] is the median over rounds of each round's
   jobs per reference unit of job time: a transient slowdown cannot drag
   it, and baseline timing between jobs does not count. The wall-time
   figures are printed next to them. *)
let end_to_end ~setup_s ~busy ~refs =
  let rounds = by_round busy (fun i x -> x /. Reference.around refs i) in
  let raw = by_round busy (fun _ x -> x) in
  let times = List.concat rounds and raw_times = List.concat raw in
  let rate xs = float_of_int (List.length xs) /. sum xs in
  let p, tail_v, n = tail times in
  say "verdict_tail_ref is p%g over %d samples (%d beyond it)" (100.0 *. p) n
    (int_of_float (float_of_int n *. (1.0 -. p)));
  let ks = Reference.all refs in
  say "reference kernel: median %.4f s, rel IQR %.3f over %d samples" (median ks) (rel_iqr ks)
    (List.length ks);
  say "wall time: %.4g jobs/s, p50 %.4g s, p%g %.4g s" (median (List.map rate raw))
    (median raw_times) (100.0 *. p) (quantile raw_times p);
  [
    m "setup_s" "s" setup_s;
    m "jobs_per_ref" "1/ref" (median (List.map rate rounds));
    m "verdict_p50_ref" "ref" (median times);
    m "verdict_tail_ref" "ref" tail_v;
  ]

(* Metrics every workload adds to its traced run: the untraced pass's
   [overhead_vs_plain], heap high-water mark and allocation, and traced
   over untraced wall time of the same jobs. [overhead_vs_plain] divides
   memory-heavy job times by plain runs that barely touch memory, so the
   host's load moves it by a fifth between runs. The serve workload's heap
   high-water mark grows with the pass's length and its request count,
   and spread 10-16% between runs. Both are reported here, without a
   bound. *)
let every_workload ~overhead ~peak ~jobs ~minor ~majors ~tracing_overhead =
  [
    m "overhead_vs_plain" "x" overhead;
    m "peak_heap_mb" "MB" peak;
    m "gc.minor_words_per_job" "words" (minor /. float_of_int (max 1 jobs));
    m "gc.major_collections" "count" (float_of_int majors);
    m "obs.tracing_overhead" "x" tracing_overhead;
  ]

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit metrics =
  let attempted = Atomic.get attempted and failed = Atomic.get failed in
  say "";
  List.iter (fun x -> say "  %-36s %-8s %.6g" x.name x.unit x.value) metrics;
  say "failed_frac = %d/%d" failed attempted;
  let correct = failed = 0 && !loud = [] && attempted > 0 in
  if not correct then say "RESULT INCORRECT";
  let body =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.name (json_num x.value) x.unit)
         metrics)
  in
  say "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    (max 1 attempted) failed body
