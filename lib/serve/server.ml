(* The rader serve daemon.

   Thread/domain layout (no async runtime — Unix + threads + domains):

   - one accept thread owns the listener and spawns a thread per
     connection;
   - connection threads parse frames, answer Health inline, serve cache
     hits, and push Submit jobs onto a bounded admission queue (full
     queue => Retry_after, never blocking the socket);
   - a pool of worker *domains* drains the queue; each worker owns one
     engine + SP+ detector pair and recycles it per request
     (Engine.reset ~tool / Sp_plus.reset), so steady-state checking does no
     per-request arena allocation;
   - a supervisor thread joins dead workers and respawns them with fresh
     arenas under a restart budget (N restarts per rolling window);
     beyond the budget the pool degrades: queued and future requests are
     answered with Retry_after instead of silently hanging.

   Crash isolation: Engine.run_result is total over the Fault taxonomy,
   so a worker exception can only mean detector-infrastructure failure
   (or injected chaos). The in-flight request is answered with a
   structured Internal_fault, and the worker domain exits — its arenas
   are presumed corrupted — to be respawned by the supervisor. *)

module Obs = Rader_obs.Obs
module Engine = Rader_runtime.Engine
module Steal_spec = Rader_runtime.Steal_spec
module Sp_plus = Rader_core.Sp_plus
module Coverage = Rader_core.Coverage
module Diag = Rader_core.Diag
module Report = Rader_core.Report
module Demos = Rader_benchsuite.Demos
module An = Rader_analysis
module Rng = Rader_support.Rng
module Reach = Rader_reach.Reach

type addr = Unix_path of string | Tcp of string * int

let parse_addr s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if path = "" then Error "empty unix socket path" else Ok (Unix_path path)
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "tcp address %S needs HOST:PORT" rest)
      | Some j -> (
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          match int_of_string_opt port with
          | Some p when p >= 0 && p < 65536 -> Ok (Tcp (host, p))
          | _ -> Error (Printf.sprintf "bad port %S" port)))
  | _ ->
      Error
        (Printf.sprintf "cannot parse address %S (want unix:PATH or tcp:HOST:PORT)" s)

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

type chaos = { crash_rate : float; stall_rate : float; chaos_seed : int }

type config = {
  addr : addr;
  workers : int;
  queue_depth : int;
  max_deadline_s : float;
  default_deadline_s : float;
  max_events_cap : int;
  restart_budget : int;
  restart_window_s : float;
  cache_cap : int;
  retry_after_ms : int;
  drain_grace_s : float;
  chaos_cfg : chaos option;
  reach : Reach.backend;
}

let default_config ~addr =
  {
    addr;
    workers = 2;
    queue_depth = 16;
    max_deadline_s = 30.0;
    default_deadline_s = 10.0;
    max_events_cap = 20_000_000;
    restart_budget = 8;
    restart_window_s = 10.0;
    cache_cap = 256;
    retry_after_ms = 50;
    drain_grace_s = 10.0;
    chaos_cfg = None;
    reach = Reach.Dset;
  }

type conn = { fd : Unix.file_descr; cmu : Mutex.t; mutable alive : bool }

type job = {
  jid : int;  (* global admission index; seeds the per-job chaos roll *)
  req_id : int;
  sub : Proto.submit;
  jconn : conn;
  abs_deadline : float;
  eff_max_events : int;
}

type t = {
  cfg : config;
  listener : Unix.file_descr;
  bound : addr;  (* cfg.addr with a real port when Tcp port 0 was asked *)
  (* admission queue *)
  qmu : Mutex.t;
  qcond : Condition.t;  (* queue non-empty or stopping *)
  queue : job Queue.t;
  mutable stopping : bool;
  mutable in_flight : int;
  mutable job_counter : int;
  (* request counters, under qmu *)
  mutable admitted : int;
  mutable answered : int;
  mutable shed : int;
  mutable faults : int;
  mutable proto_errors : int;
  mutable dropped_replies : int;
  mutable cache_served : int;
  cache : (string, Proto.verdict) Cache.t;  (* under qmu *)
  (* obs aggregation *)
  omu : Mutex.t;
  obs_totals : Obs.counters;
  (* supervision, under smu *)
  smu : Mutex.t;
  scond : Condition.t;  (* a worker died or stopping *)
  mutable dead : (int * bool) list;  (* (slot, poisoned) *)
  domains : unit Domain.t option array;
  mutable live_workers : int;
  mutable degraded : bool;
  mutable restart_times : float list;
  mutable restarts : int;
  (* connections, under conns_mu *)
  conns_mu : Mutex.t;
  mutable conns : conn list;
  mutable accept_thread : Thread.t option;
  mutable supervisor_thread : Thread.t option;
  obs_was_enabled : bool;
}

exception Chaos_crash

(* ---------- replies ---------- *)

let send_on conn ~id resp =
  Mutex.lock conn.cmu;
  let ok =
    conn.alive
    &&
    match Proto.send conn.fd (Proto.encode_response ~id resp) with
    | () -> true
    | exception Unix.Unix_error (_, _, _) ->
        conn.alive <- false;
        false
  in
  Mutex.unlock conn.cmu;
  ok

(* Reply to a Submit and keep the books. *)
let answer t conn ~id resp =
  let ok = send_on conn ~id resp in
  Mutex.lock t.qmu;
  t.answered <- t.answered + 1;
  if not ok then t.dropped_replies <- t.dropped_replies + 1;
  (match resp with
  | Proto.Retry_after _ -> t.shed <- t.shed + 1
  | Proto.Internal_fault _ -> t.faults <- t.faults + 1
  | _ -> ());
  Mutex.unlock t.qmu;
  ok

(* ---------- the verdict cache ---------- *)

(* The precedence backend cannot change a verdict, but it is part of the
   key anyway: a stale entry computed under another backend would make
   "verdicts byte-identical per backend" unfalsifiable from the outside. *)
let cache_key ~reach (s : Proto.submit) =
  Printf.sprintf "%s|%d|%s|%h|%d|%s|%h|%s|%s|%b" (Reach.show reach)
    (match s.kind with
    | Proto.Check -> 0
    | Proto.Coverage -> 1
    | Proto.Lint -> 2
    | Proto.Verify -> 3)
    s.program s.scale s.seed s.spec s.density
    (match s.max_events with None -> "-" | Some n -> string_of_int n)
    (match s.deadline_s with None -> "-" | Some d -> Printf.sprintf "%h" d)
    s.prune

(* ---------- serving one job (on a worker domain) ---------- *)

let partial_deadline_verdict ~kind ~abs_deadline =
  let f = Diag.Budget_exceeded (Diag.Deadline abs_deadline) in
  Proto.Verdict
    {
      status = Proto.Partial;
      cached = false;
      v_result = None;
      n_run = 0;
      n_specs = (match kind with Proto.Coverage | Proto.Verify -> 0 | _ -> 1);
      races = [];
      failures = [ (Diag.class_name f, Diag.to_string f) ];
    }

let serve_check (eng, det) prog ~spec ~max_events ~deadline =
  Engine.reset ~tool:(Sp_plus.tool det) ~spec ~max_events ~deadline eng;
  Sp_plus.reset det;
  let verdict = Engine.run_result eng prog in
  let races = List.map Report.to_string (Sp_plus.races det) in
  match verdict with
  | Ok v ->
      Proto.Verdict
        {
          status = (if races = [] then Proto.Clean else Proto.Races);
          cached = false;
          v_result = Some v;
          n_run = 1;
          n_specs = 1;
          races;
          failures = [];
        }
  | Error f ->
      Proto.Verdict
        {
          status = Proto.Partial;
          cached = false;
          v_result = None;
          n_run = 1;
          n_specs = 1;
          races;
          failures = [ (Diag.class_name f, Diag.to_string f) ];
        }

let serve_coverage prog ~max_events ~remaining_s ~prune ~reach =
  let res =
    Coverage.exhaustive_check ~max_events ~deadline:remaining_s ~jobs:1 ~prune
      ~reach prog
  in
  let races = List.map Report.to_string res.Coverage.reports in
  let failures =
    List.map
      (fun (name, f) ->
        (Diag.class_name f, Printf.sprintf "%s: %s" name (Diag.to_string f)))
      res.Coverage.incomplete
  in
  let status =
    if not res.Coverage.complete then Proto.Partial
    else if races = [] then Proto.Clean
    else Proto.Races
  in
  Proto.Verdict
    {
      status;
      cached = false;
      v_result = None;
      n_run = res.Coverage.n_run;
      n_specs = res.Coverage.n_specs;
      races;
      failures;
    }

let serve_lint prog ~program_name =
  match An.Ir.of_program prog with
  | Error f ->
      Proto.Verdict
        {
          status = Proto.Partial;
          cached = false;
          v_result = None;
          n_run = 1;
          n_specs = 1;
          races = [];
          failures = [ (Diag.class_name f, Diag.to_string f) ];
        }
  | Ok ir ->
      let findings = An.Lint.run ~program:prog ir in
      let lines = An.Lint.baseline_lines ~program:program_name findings in
      Proto.Verdict
        {
          status = (if lines = [] then Proto.Clean else Proto.Races);
          cached = false;
          v_result = None;
          n_run = 1;
          n_specs = 1;
          races = lines;
          failures = [];
        }

let serve_verify prog ~program_name ~max_events ~remaining_s ~reach =
  match
    An.Witness.verify ~reach ~jobs:1 ~max_events ~deadline:remaining_s
      ~name:program_name prog
  with
  | Error f ->
      Proto.Verdict
        {
          status = Proto.Partial;
          cached = false;
          v_result = None;
          n_run = 1;
          n_specs = 0;
          races = [];
          failures = [ (Diag.class_name f, Diag.to_string f) ];
        }
  | Ok w ->
      let races = List.map Report.to_string w.An.Witness.reports in
      let failures =
        List.map
          (fun (name, f) ->
            (Diag.class_name f, Printf.sprintf "%s: %s" name (Diag.to_string f)))
          w.An.Witness.incomplete
      in
      let status =
        if not w.An.Witness.complete then Proto.Partial
        else if w.An.Witness.racy_locs = [] then Proto.Clean
        else Proto.Races
      in
      Proto.Verdict
        {
          status;
          cached = false;
          v_result = None;
          n_run = w.An.Witness.n_replays;
          n_specs = w.An.Witness.n_specs;
          races;
          failures;
        }

(* A program's inputs are built before its engine starts, so neither the
   deadline nor the event budget bounds them: a scale outside (0, 16] is
   refused before the program is resolved. At 16 the largest suite input,
   pbfs's graph, takes about 0.8 s and 166 MB to build (2-vCPU Xeon,
   OCaml 5.1). *)
let max_scale = 16.0

let serve_job t arena job =
  let sub = job.sub in
  (* deterministic per-job chaos roll: same seed, same jid => same fate,
     so every degradation path is replayable in tests *)
  let stalled =
    match t.cfg.chaos_cfg with
    | None -> false
    | Some c ->
        let rng = Rng.create (c.chaos_seed + (job.jid * 2_654_435_761)) in
        let crash = Rng.bernoulli rng c.crash_rate in
        let stall = Rng.bernoulli rng c.stall_rate in
        if crash then raise Chaos_crash;
        stall
  in
  let now = Unix.gettimeofday () in
  (* a stalled worker "wakes up" past the request deadline; and a request
     whose queue wait already exhausted its budget is charged the same
     way — the dispatch-time re-check mirrors Coverage's *)
  let abs_deadline = if stalled then now -. 1.0 else job.abs_deadline in
  if now > abs_deadline then partial_deadline_verdict ~kind:sub.kind ~abs_deadline
  else if not (sub.scale > 0.0 && sub.scale <= max_scale) then
    Proto.Proto_error
      {
        Proto.code = Proto.err_bad_field;
        msg = Printf.sprintf "scale %g is not in (0, %g]" sub.scale max_scale;
      }
  else
    match Demos.resolve ~scale:sub.scale sub.program with
    | Error msg ->
        Proto.Proto_error { Proto.code = Proto.err_unknown_program; msg }
    | Ok prog -> (
        match sub.kind with
        | Proto.Check -> (
            match
              Steal_spec.parse ~seed:sub.seed ~density:sub.density sub.spec
            with
            | Error msg ->
                Proto.Proto_error { Proto.code = Proto.err_bad_spec; msg }
            | Ok spec ->
                serve_check arena prog ~spec ~max_events:job.eff_max_events
                  ~deadline:abs_deadline)
        | Proto.Coverage ->
            serve_coverage prog ~max_events:job.eff_max_events
              ~remaining_s:(abs_deadline -. now) ~prune:sub.prune
              ~reach:t.cfg.reach
        | Proto.Lint -> serve_lint prog ~program_name:sub.program
        | Proto.Verify ->
            serve_verify prog ~program_name:sub.program
              ~max_events:job.eff_max_events ~remaining_s:(abs_deadline -. now)
              ~reach:t.cfg.reach)

(* ---------- workers ---------- *)

let dequeue t =
  Mutex.lock t.qmu;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.qcond t.qmu
  done;
  let job =
    if Queue.is_empty t.queue then None
    else begin
      t.in_flight <- t.in_flight + 1;
      Some (Queue.pop t.queue)
    end
  in
  Mutex.unlock t.qmu;
  job

let job_done t =
  Mutex.lock t.qmu;
  t.in_flight <- t.in_flight - 1;
  Mutex.unlock t.qmu

let store_verdict t key resp =
  match resp with
  | Proto.Verdict v when v.Proto.status <> Proto.Partial ->
      Mutex.lock t.qmu;
      Cache.add t.cache key v;
      Mutex.unlock t.qmu
  | _ -> ()

let worker_body t =
  let eng = Engine.create () in
  let det = Sp_plus.attach ~reach:t.cfg.reach eng in
  let continue = ref true in
  while !continue do
    match dequeue t with
    | None -> continue := false (* stopping and the queue is drained *)
    | Some job -> (
        let snap = Obs.snapshot () in
        match serve_job t (eng, det) job with
        | resp ->
            Mutex.lock t.omu;
            Obs.add ~into:t.obs_totals (Obs.since snap);
            Mutex.unlock t.omu;
            store_verdict t (cache_key ~reach:t.cfg.reach job.sub) resp;
            ignore (answer t job.jconn ~id:job.req_id resp);
            job_done t
        | exception e ->
            (* poisoned: the arenas may be corrupted mid-update. Answer
               the in-flight request, then die and let the supervisor
               respawn a fresh arena. *)
            ignore
              (answer t job.jconn ~id:job.req_id
                 (Proto.Internal_fault (Printexc.to_string e)));
            job_done t;
            raise e)
  done

let report_death t slot ~poisoned =
  Mutex.lock t.smu;
  t.dead <- (slot, poisoned) :: t.dead;
  t.live_workers <- t.live_workers - 1;
  Condition.signal t.scond;
  Mutex.unlock t.smu

let rec worker_domain t slot () =
  match worker_body t with
  | () -> report_death t slot ~poisoned:false
  | exception _ -> report_death t slot ~poisoned:true

(* must hold t.smu *)
and spawn_worker t slot =
  t.domains.(slot) <- Some (Domain.spawn (worker_domain t slot));
  t.live_workers <- t.live_workers + 1

(* ---------- supervisor ---------- *)

(* Flush every queued job with Retry_after: used when the pool degrades
   to zero workers — requests must be answered, not stranded. *)
let shed_queue t =
  let jobs = ref [] in
  Mutex.lock t.qmu;
  Queue.iter (fun j -> jobs := j :: !jobs) t.queue;
  Queue.clear t.queue;
  Mutex.unlock t.qmu;
  List.iter
    (fun j ->
      ignore
        (answer t j.jconn ~id:j.req_id (Proto.Retry_after t.cfg.retry_after_ms)))
    (List.rev !jobs)

let supervisor t () =
  let continue = ref true in
  while !continue do
    Mutex.lock t.smu;
    while t.dead = [] && not (t.stopping && t.live_workers = 0) do
      Condition.wait t.scond t.smu
    done;
    let deads = List.rev t.dead in
    t.dead <- [];
    (* join outside smu would race a concurrent respawn of the same slot;
       joins are immediate (the domain already exited), keep the lock *)
    List.iter
      (fun (slot, poisoned) ->
        (match t.domains.(slot) with
        | Some d ->
            Domain.join d;
            t.domains.(slot) <- None
        | None -> ());
        if (not t.stopping) && poisoned then begin
          let now = Unix.gettimeofday () in
          t.restart_times <-
            now
            :: List.filter
                 (fun ts -> now -. ts <= t.cfg.restart_window_s)
                 t.restart_times;
          if List.length t.restart_times <= t.cfg.restart_budget then begin
            t.restarts <- t.restarts + 1;
            spawn_worker t slot
          end
          else if t.live_workers = 0 then t.degraded <- true
        end)
      deads;
    let stop_now = t.stopping && t.live_workers = 0 && t.dead = [] in
    let degraded = t.degraded in
    Mutex.unlock t.smu;
    if degraded && not stop_now then shed_queue t;
    if stop_now then continue := false
  done

(* ---------- health ---------- *)

let health_json t =
  Mutex.lock t.smu;
  let live = t.live_workers
  and degraded = t.degraded
  and restarts = t.restarts in
  Mutex.unlock t.smu;
  Mutex.lock t.qmu;
  let qdepth = Queue.length t.queue
  and in_flight = t.in_flight
  and stopping = t.stopping
  and admitted = t.admitted
  and answered = t.answered
  and shed = t.shed
  and faults = t.faults
  and proto_errors = t.proto_errors
  and dropped = t.dropped_replies
  and cache_served = t.cache_served
  and clen = Cache.len t.cache
  and chits = Cache.hits t.cache
  and cmisses = Cache.misses t.cache
  and cevict = Cache.evictions t.cache in
  Mutex.unlock t.qmu;
  Mutex.lock t.omu;
  let obs = Obs.to_json_string t.obs_totals in
  Mutex.unlock t.omu;
  Printf.sprintf
    "{\"pool\":{\"workers\":%d,\"live\":%d,\"degraded\":%b,\"restarts\":%d},\
     \"queue\":{\"depth\":%d,\"cap\":%d,\"in_flight\":%d},\"draining\":%b,\
     \"reach\":\"%s\",\
     \"requests\":{\"admitted\":%d,\"answered\":%d,\"shed\":%d,\"faults\":%d,\
     \"proto_errors\":%d,\"dropped_replies\":%d,\"cache_served\":%d},\
     \"cache\":{\"len\":%d,\"cap\":%d,\"hits\":%d,\"misses\":%d,\
     \"evictions\":%d},\"obs\":%s}"
    t.cfg.workers live degraded restarts qdepth t.cfg.queue_depth in_flight
    stopping
    (Reach.show t.cfg.reach)
    admitted answered shed faults proto_errors dropped cache_served clen
    t.cfg.cache_cap chits cmisses cevict obs

(* ---------- admission (connection threads) ---------- *)

let admit t conn ~id sub =
  let now = Unix.gettimeofday () in
  let budget_s =
    min
      (Option.value sub.Proto.deadline_s ~default:t.cfg.default_deadline_s)
      t.cfg.max_deadline_s
  in
  let eff_max_events =
    min
      (Option.value sub.Proto.max_events ~default:t.cfg.max_events_cap)
      t.cfg.max_events_cap
  in
  Mutex.lock t.smu;
  let degraded = t.degraded || t.live_workers = 0 in
  Mutex.unlock t.smu;
  Mutex.lock t.qmu;
  let resp =
    if t.stopping || degraded then Some (Proto.Retry_after t.cfg.retry_after_ms)
    else
      match Cache.find t.cache (cache_key ~reach:t.cfg.reach sub) with
      | Some v ->
          t.cache_served <- t.cache_served + 1;
          Some (Proto.Verdict { v with Proto.cached = true })
      | None ->
          if Queue.length t.queue >= t.cfg.queue_depth then
            Some (Proto.Retry_after t.cfg.retry_after_ms)
          else begin
            let jid = t.job_counter in
            t.job_counter <- t.job_counter + 1;
            t.admitted <- t.admitted + 1;
            Queue.push
              {
                jid;
                req_id = id;
                sub;
                jconn = conn;
                abs_deadline = now +. budget_s;
                eff_max_events;
              }
              t.queue;
            Condition.signal t.qcond;
            None
          end
  in
  Mutex.unlock t.qmu;
  match resp with Some r -> ignore (answer t conn ~id r) | None -> ()

let request_stop t =
  Mutex.lock t.qmu;
  let already = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmu;
  Mutex.lock t.smu;
  Condition.broadcast t.scond;
  Mutex.unlock t.smu;
  if not already then begin
    (* wake the accept thread: closing the listener does not reliably
       interrupt a blocked accept, so poke it with a throwaway connect *)
    let domain, sockaddr =
      match t.bound with
      | Unix_path p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
      | Tcp (_, p) ->
          (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, p))
    in
    match
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      (try Unix.connect fd sockaddr with _ -> ());
      Unix.close fd
    with
    | () -> ()
    | exception _ -> ()
  end

let conn_loop t conn () =
  let continue = ref true in
  while !continue do
    match Proto.recv conn.fd with
    | exception _ ->
        conn.alive <- false;
        continue := false
    | Error `Eof -> continue := false
    | Error (`Err e) ->
        (* framing is broken: answer once, then close — resynchronizing
           an unframed byte stream is guesswork *)
        Mutex.lock t.qmu;
        t.proto_errors <- t.proto_errors + 1;
        Mutex.unlock t.qmu;
        ignore (send_on conn ~id:0 (Proto.Proto_error e));
        continue := false
    | Ok body -> (
        match Proto.decode_request body with
        | Error e ->
            (* the frame boundary held, only the body is malformed: the
               connection stays usable *)
            Mutex.lock t.qmu;
            t.proto_errors <- t.proto_errors + 1;
            Mutex.unlock t.qmu;
            ignore (send_on conn ~id:0 (Proto.Proto_error e))
        | Ok (id, Proto.Health) ->
            ignore (send_on conn ~id (Proto.Health_report (health_json t)))
        | Ok (id, Proto.Shutdown) ->
            ignore (send_on conn ~id Proto.Bye);
            request_stop t
        | Ok (id, Proto.Submit sub) -> admit t conn ~id sub)
  done;
  Mutex.lock conn.cmu;
  conn.alive <- false;
  (try Unix.close conn.fd with Unix.Unix_error (_, _, _) -> ());
  Mutex.unlock conn.cmu;
  Mutex.lock t.conns_mu;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.conns_mu

let accept_loop t () =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listener with
    | fd, _ ->
        Mutex.lock t.qmu;
        let stopping = t.stopping in
        Mutex.unlock t.qmu;
        if stopping then begin
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
          continue := false
        end
        else begin
          let conn = { fd; cmu = Mutex.create (); alive = true } in
          Mutex.lock t.conns_mu;
          t.conns <- conn :: t.conns;
          Mutex.unlock t.conns_mu;
          ignore (Thread.create (conn_loop t conn) ())
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        Mutex.lock t.qmu;
        let stopping = t.stopping in
        Mutex.unlock t.qmu;
        if stopping then continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

(* ---------- lifecycle ---------- *)

let bind_listener = function
  | Unix_path path ->
      (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Unix_path path)
  | Tcp (host, port) ->
      let ip =
        if host = "" || host = "localhost" then Unix.inet_addr_loopback
        else Unix.inet_addr_of_string host
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (ip, port));
      Unix.listen fd 64;
      let bound_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, Tcp (host, bound_port))

let start cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if cfg.queue_depth < 1 then
    invalid_arg "Server.start: queue_depth must be >= 1";
  (* a client that disconnects mid-reply must not SIGPIPE the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listener, bound = bind_listener cfg.addr in
  let obs_was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let t =
    {
      cfg;
      listener;
      bound;
      qmu = Mutex.create ();
      qcond = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      in_flight = 0;
      job_counter = 0;
      admitted = 0;
      answered = 0;
      shed = 0;
      faults = 0;
      proto_errors = 0;
      dropped_replies = 0;
      cache_served = 0;
      cache = Cache.create ~cap:cfg.cache_cap;
      omu = Mutex.create ();
      obs_totals = Obs.zero ();
      smu = Mutex.create ();
      scond = Condition.create ();
      dead = [];
      domains = Array.make cfg.workers None;
      live_workers = 0;
      degraded = false;
      restart_times = [];
      restarts = 0;
      conns_mu = Mutex.create ();
      conns = [];
      accept_thread = None;
      supervisor_thread = None;
      obs_was_enabled;
    }
  in
  Mutex.lock t.smu;
  for slot = 0 to cfg.workers - 1 do
    spawn_worker t slot
  done;
  Mutex.unlock t.smu;
  t.supervisor_thread <- Some (Thread.create (supervisor t) ());
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let bound_addr t = t.bound

let install_sigterm t =
  let handle = Sys.Signal_handle (fun _ -> request_stop t) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle

(* Wait until the queue is empty and nothing is in flight, or the grace
   period expires. Polling at 10 ms keeps this dependency-free. *)
let drain_wait t =
  let deadline = Unix.gettimeofday () +. t.cfg.drain_grace_s in
  let rec loop () =
    Mutex.lock t.qmu;
    let quiet = Queue.is_empty t.queue && t.in_flight = 0 in
    Mutex.unlock t.qmu;
    if (not quiet) && Unix.gettimeofday () < deadline then begin
      Thread.delay 0.01;
      loop ()
    end
  in
  loop ()

let wait t =
  (* block until a stop is requested *)
  let rec park () =
    Mutex.lock t.qmu;
    let stopping = t.stopping in
    Mutex.unlock t.qmu;
    if not stopping then begin
      Thread.delay 0.05;
      park ()
    end
  in
  park ();
  (* graceful drain: admission is already shut (conn threads shed on
     [stopping]); finish queued and in-flight work within the grace
     period — each request's deadline is capped, so this terminates *)
  drain_wait t;
  (* any job still queued after a blown grace period gets a shed reply
     rather than silence (each pop is exclusive, so this cannot
     double-answer a job a worker grabs concurrently) *)
  shed_queue t;
  (* release the workers and the supervisor *)
  Mutex.lock t.qmu;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmu;
  (match t.supervisor_thread with Some th -> Thread.join th | None -> ());
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (try Unix.close t.listener with Unix.Unix_error (_, _, _) -> ());
  (match t.bound with
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error (_, _, _) -> ())
  | Tcp _ -> ());
  (* drop live connections so their threads unblock and exit *)
  Mutex.lock t.conns_mu;
  let conns = t.conns in
  Mutex.unlock t.conns_mu;
  List.iter
    (fun c ->
      Mutex.lock c.cmu;
      c.alive <- false;
      (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
       with Unix.Unix_error (_, _, _) -> ());
      Mutex.unlock c.cmu)
    conns;
  Obs.set_enabled t.obs_was_enabled;
  (* the final flush: cumulative request counters and detector totals *)
  health_json t

let stop t =
  request_stop t;
  wait t
