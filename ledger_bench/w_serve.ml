(* Workload [serve]: an in-process [Server] with one worker domain, and
   one client connection in a closed loop, sending its next request once
   the previous one is answered. The seeded mix is
   mostly [Check] of small demos with some [Verify]; about half of the
   requests (four in ten) repeat a recent (program, seed, spec) key.
   Engine work per request is small, so protocol, queue, hand-off and
   cache dominate, and hits (lookup) and misses (execute and insert) use
   the cache in two different ways. *)

open Rader_runtime
open Rader_core
open Bench
module Server = Rader_serve.Server
module Client = Rader_serve.Client
module Proto = Rader_serve.Proto
module Rng = Rader_support.Rng
module Demos = Rader_benchsuite.Demos

let scale = 0.25
(* One client connection. With two, the client threads, the worker
   domain and the main thread kept both of a two-vCPU host's CPUs busy,
   and about one run in ten lost a quarter of its throughput and more
   than doubled its p99 whenever another tenant took a CPU. *)
let clients = 1
let check_programs = [| "fig1-buggy"; "fib-racy"; "racy-read"; "wordcount"; "minimax" |]
let verify_programs = [| "fig1-buggy"; "minimax" |]
let specs = [| "none"; "all"; "1" |]
let mix_len = 100_000

(* check misses of the traced pass that are run again inline *)
let max_inline = 2000

let submit kind program spec seed =
  {
    Proto.kind;
    program;
    scale;
    seed;
    spec;
    density = 0.5;
    max_events = None;
    deadline_s = None;
    prune = false;
  }

(* Four requests in ten repeat one of the last 64 fresh keys, recent
   enough to still be in the server's 256-entry LRU cache; fresh keys carry
   a fresh seed. Hits answer in microseconds and misses in tenths of a
   millisecond, so a hit share of one half would put the median RTT on the
   gap between the two; four in ten keeps it inside the misses. One in
   thirty fresh keys is a [Verify] of a program whose whole family
   verifies in about a millisecond, so no single request holds the worker
   for long. Verify misses, the slowest answers, are then about 2% of
   requests, and the p99 RTT falls in the middle of theirs rather than in
   their upper tail, where scheduling hiccups on two shared vCPUs swung
   it by a tenth between runs. *)
let make_mix ~seed =
  let rng = Rng.create seed in
  let recent = Array.make 64 (submit Proto.Check "fib-racy" "none" 0) in
  let n_fresh = ref 0 in
  Array.init mix_len (fun _ ->
      if !n_fresh > 0 && Rng.bernoulli rng 0.4 then recent.(Rng.int rng (min 64 !n_fresh))
      else begin
        let pick a = a.(Rng.int rng (Array.length a)) in
        let s =
          if Rng.bernoulli rng (1.0 /. 30.0) then submit Proto.Verify (pick verify_programs) "none" !n_fresh
          else submit Proto.Check (pick check_programs) (pick specs) !n_fresh
        in
        recent.(!n_fresh mod 64) <- s;
        incr n_fresh;
        s
      end)

let resolve name =
  match Demos.resolve ~scale name with Ok p -> p | Error msg -> failwith msg

let expected_result (s : Proto.submit) =
  match (s.Proto.kind, s.Proto.program) with
  | Proto.Check, "fib-racy" -> Some (Known.fib_racy_result ~scale)
  | Proto.Check, "wordcount" -> Some (Known.wordcount_result ~scale)
  | _ -> None

let check_answer (s : Proto.submit) (v : Proto.verdict) =
  let want =
    match s.Proto.kind with
    | Proto.Check -> Known.serve_check_racy ~program:s.Proto.program ~spec:s.Proto.spec
    | _ -> Known.family_racy s.Proto.program
  in
  let status = if want = 0 then Proto.Clean else Proto.Races in
  if v.Proto.status <> status || List.length v.Proto.races <> want then
    Some (Printf.sprintf "%d races, expected %d" (List.length v.Proto.races) want)
  else
    match (expected_result s, v.Proto.v_result) with
    | Some r, Some r' when r <> r' -> Some (Printf.sprintf "result %d, expected %d" r' r)
    | _ -> None

let inline_check (s : Proto.submit) =
  match Steal_spec.parse ~seed:s.Proto.seed ~density:s.Proto.density s.Proto.spec with
  | Error msg -> failwith msg
  | Ok spec ->
      let eng = Engine.create ~spec () in
      let d = Sp_plus.attach eng in
      ignore (Engine.run_result eng (resolve s.Proto.program));
      ignore (Sp_plus.racy_locs d)

type st = {
  server : Server.t;
  clients : Client.t array;
  mix : Proto.submit array;
}

let n_setups = ref 0
let connect_s = ref []

let base_run p () = Engine.run (Engine.create ()) (resolve p)

let start ~seed =
  incr n_setups;
  (try Sys.mkdir "ledger_bench/out" 0o755 with Sys_error _ -> ());
  let addr =
    Server.Unix_path
      (Printf.sprintf "ledger_bench/out/serve-%d-%d.sock" (Unix.getpid ()) !n_setups)
  in
  let server = Server.start { (Server.default_config ~addr) with Server.workers = 1 } in
  let clients =
    Array.init clients (fun _ ->
        let c, dt = timed (fun () -> Client.connect (Server.bound_addr server)) in
        connect_s := dt :: !connect_s;
        match c with Ok c -> c | Error msg -> failwith msg)
  in
  { server; clients; mix = make_mix ~seed }

let stop st =
  Array.iter Client.close st.clients;
  ignore (Server.stop st.server)

type tally = {
  rtt : int Samples.t;  (** 0 = hit, 1 = [Check] miss, 2 = [Verify] miss *)
  mu : Mutex.t;
  mutable rtt_total : float;
  mutable base_total : float;
      (** uninstrumented runs of each answered request's program, timed
          by the client right after the answer *)
  mutable check_misses : Proto.submit list;  (** the first [max_inline] *)
  mutable n_check_misses : int;
  win : (int * int) Samples.t;
      (** RTTs by the one-second window they ran in and its reference
          interval *)
  sheds : int Atomic.t;
  retries : int Atomic.t;
}

let tally () =
  {
    rtt = Samples.create ();
    mu = Mutex.create ();
    rtt_total = 0.0;
    base_total = 0.0;
    check_misses = [];
    n_check_misses = 0;
    win = Samples.create ();
    sheds = Atomic.make 0;
    retries = Atomic.make 0;
  }

(* Client.submit with its own retries off, so every shed is counted. *)
let rec send t c s attempt =
  match Client.submit ~retries:0 c s with
  | Ok Client.Shed as r ->
      Atomic.incr t.sheds;
      if attempt = 5 then r
      else begin
        Atomic.incr t.retries;
        Thread.delay (0.001 *. (2.0 ** float_of_int attempt));
        send t c s (attempt + 1)
      end
  | r -> r

(* One window of the closed loop: each client thread takes the next
   request of the mix until [deadline]. *)
let client_loop st t next ~key ~deadline =
  let client i =
    let c = st.clients.(i) in
    while now () < deadline do
      let k = Atomic.fetch_and_add next 1 in
      let s = st.mix.(k mod mix_len) in
      let t0 = now () in
      let r = send t c s 0 in
      let t1 = now () in
      let job = Printf.sprintf "%s %s/%s" (if s.Proto.kind = Proto.Check then "check" else "verify")
          s.Proto.program s.Proto.spec in
      match r with
      | Ok (Client.Verdict v) ->
          verdict job (check_answer s v);
          let cls = if v.Proto.cached then 0 else if s.Proto.kind = Proto.Check then 1 else 2 in
          Samples.add t.rtt cls (t1 -. t0);
          Samples.add t.win key (t1 -. t0);
          Trace.record ~job:k ~tid:i (if v.Proto.cached then "serve.hit" else "serve.miss") t0 t1;
          let base = snd (timed (base_run s.Proto.program)) in
          Mutex.protect t.mu (fun () ->
              t.rtt_total <- t.rtt_total +. (t1 -. t0);
              t.base_total <- t.base_total +. base;
              if (not v.Proto.cached) && s.Proto.kind = Proto.Check && t.n_check_misses < max_inline
              then begin
                t.check_misses <- s :: t.check_misses;
                t.n_check_misses <- t.n_check_misses + 1
              end)
      | Ok Client.Shed -> verdict job (Some "shed after 5 retries")
      | Ok (Client.Fault msg) -> verdict job (Some ("internal fault: " ^ msg))
      | Ok (Client.Rejected e) -> verdict job (Some ("rejected: " ^ e.Proto.msg))
      | Error msg -> verdict job (Some ("transport: " ^ msg))
    done
  in
  let threads = List.init (Array.length st.clients) (fun i -> Thread.create client i) in
  List.iter Thread.join threads

(* The closed loop, in one-second windows. The clients stop between
   windows while the reference kernel is timed, so it runs alone. *)
let pass st t ~refs seconds =
  let next = Atomic.make 0 in
  let windows = max 1 (int_of_float (Float.round seconds)) in
  for w = 0 to windows - 1 do
    Reference.sample refs;
    client_loop st t next ~key:(w, Reference.interval refs)
      ~deadline:(now () +. (seconds /. float_of_int windows))
  done;
  Reference.sample refs;
  min (Atomic.get next) mix_len

(* Client-side protocol cost: encode each request, decode it as the
   server does, encode a verdict answer and decode it back. *)
let codec_s_per_req st n =
  let v =
    Proto.Verdict
      {
        Proto.status = Proto.Races;
        cached = false;
        v_result = Some 1;
        n_run = 1;
        n_specs = 1;
        races = [ "determinacy race on fib.hits: write by frame 9 vs read by frame 8" ];
        failures = [];
      }
  in
  let one s =
    ignore (Proto.decode_request (Proto.encode_request ~id:1 (Proto.Submit s)));
    ignore (Proto.decode_response (Proto.encode_response ~id:1 v))
  in
  let (), dt =
    Trace.timed ~job:0 "proto.codec" (fun () -> for k = 0 to n - 1 do one st.mix.(k) done)
  in
  dt /. float_of_int n

let run args =
  (* a set-up takes about 25 ms, scheduling-bound (a domain spawn, a
     connect); 21 of them steady the median *)
  let st, setup_s = setup ~reps:21 ~discard:stop (fun () -> start ~seed:args.seed) in
  say "serve: %d clients, 1 worker domain, setup %.3f s" (Array.length st.clients) setup_s;
  let untraced = tally () and refs = Reference.create () in
  let minor0 = minor_words () and major0 = major_collections () in
  let n_sent = pass st untraced ~refs args.seconds in
  let peak = peak_heap_mb () in
  let minor = minor_words () -. minor0 and majors = major_collections () - major0 in
  let times = Samples.all untraced.rtt in
  let hits = List.length (Samples.get untraced.rtt 0) in
  say "requests: %d answered (%d cache hits), %d sheds, %d retries" (List.length times) hits
    (Atomic.get untraced.sheds) (Atomic.get untraced.retries);
  job_table
    (List.map (fun (k, name) -> (name, Samples.get untraced.rtt k))
       [ (0, "hit"); (1, "check miss"); (2, "verify miss") ]);
  let metrics =
    if not args.trace then
      end_to_end ~setup_s ~busy:untraced.win ~refs
    else begin
      let traced = tally () in
      Trace.on := true;
      ignore (pass st traced ~refs:(Reference.create ()) args.seconds);
      (* the same checks run inline, after the pass so they do not load it *)
      let inline =
        traced.check_misses
        |> List.mapi (fun k s -> snd (Trace.timed ~job:k "serve.inline_check" (fun () -> inline_check s)))
      in
      let codec = codec_s_per_req st (max 1000 n_sent) in
      Trace.on := false;
      Trace.print_self_times ();
      let hit = Samples.get traced.rtt 0 and check_miss = Samples.get traced.rtt 1 in
      let miss = check_miss @ Samples.get traced.rtt 2 in
      let all_traced = Samples.all traced.rtt in
      [
        m "serve.connect_s" "s" (median !connect_s);
        m "serve.hit_rtt_p50_s" "s" (median hit);
        m "serve.miss_rtt_p50_s" "s" (median miss);
        m "serve.overhead_p50_s" "s" (median check_miss -. median inline);
        m "serve.cache_hit_frac" "ratio"
          (float_of_int hits /. float_of_int (max 1 (List.length times)));
        m "serve.sheds" "count" (float_of_int (Atomic.get untraced.sheds + Atomic.get traced.sheds));
        m "serve.retries" "count"
          (float_of_int (Atomic.get untraced.retries + Atomic.get traced.retries));
        m "proto.codec_s_per_req" "s" codec;
      ]
      @ every_workload ~overhead:(untraced.rtt_total /. untraced.base_total) ~peak ~jobs:(List.length times) ~minor ~majors
          ~tracing_overhead:(median all_traced /. median times)
    end
  in
  stop st;
  metrics
