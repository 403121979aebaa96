open Rader_runtime
module Report = Rader_core.Report
module Steal_trace = Rader_core.Steal_trace
module Sp_plus = Rader_core.Sp_plus
module Peer_set = Rader_core.Peer_set
module Ws_deque = Rader_support.Ws_deque
module Dynarr = Rader_support.Dynarr
module Obs = Rader_obs.Obs

type config = {
  workers : int;
  seed : int;
  density : float;
  max_events : int option;
  deadline : float option;
  clock : (unit -> float) option;
}

let default ?(workers = 2) ?(seed = 1) ?(density = 0.5) () =
  { workers; seed; density; max_events = None; deadline = None; clock = None }

type outcome = {
  value : (int, Fault.failure) result;
  trace : Steal_trace.t;
  n_structural_steals : int;
  n_tasks : int;
  n_deque_steals : int;
  n_parks : int;
  events : int;
  counters : Obs.counters option;
}

(* Raised inside worker tasks once another worker has recorded the run's
   first failure: unwinds the task quietly, reported by nobody. *)
exception Cancelled

let err fmt = Printf.ksprintf (fun s -> raise (Engine.Cilk_error s)) fmt

(* ---------- runtime data structures ---------- *)

(* A view region. Created at root entry and at every structural steal;
   owns the reducer views that live in it ([reducer id -> view]). The
   Cilk view invariant gives single-owner access: at any moment exactly
   one serial chain of strands runs "in" a region, so its table needs no
   lock — region {e handoff} (spawn publication, sync join, merge) is
   ordered by the deque atomics and the frame lock. *)
type oregion = { orid : int; oviews : (int, Obj.t) Hashtbl.t }

(* One live user frame. Structural fields ([rpath], [phash], [fid],
   [base]) are written once at creation; the mutable counters are only
   ever touched by the frame's current executor (frame bodies are a
   single logical thread even when their segments migrate across
   workers); [outstanding]/[parked] are the sync join state, guarded by
   [lock]. *)
type ofr = {
  fid : int;
  mutable block : int;  (* current sync block *)
  mutable nuser : int;  (* user children created (spawn + call) *)
  mutable nspawns : int;  (* spawns performed, across blocks *)
  mutable region : oregion;  (* current view region *)
  base : oregion;  (* entry region: everything merges back here *)
  mutable opens : oregion list;  (* steal-opened regions, newest first *)
  lock : Mutex.t;
  mutable outstanding : int;  (* stolen children not yet returned *)
  mutable parked : (unit -> unit) option;  (* suspended sync resumption *)
  rpath : int list;  (* user-child ordinals, frame -> root (reversed) *)
  phash : int;  (* rolling structural hash of [rpath] *)
}

(* The [Obj.t] payload behind [Engine.ctx]: which frame, and whether we
   are inside a view-aware auxiliary callback of it. *)
type ost = { fr : ofr; aux_kind : Tool.frame_kind }

let ost_of ctx : ost = Obj.obj (Engine.ctx_ost ctx)

type rt = {
  eng : Engine.t;
  cfg : config;
  clock : unit -> float;
  deques : (unit -> unit) Ws_deque.t array;
  finished : bool Atomic.t;
  cancel : bool Atomic.t;
  fail_mu : Mutex.t;
  mutable failure : Fault.failure option;  (* first failure wins *)
  result : int option Atomic.t;
  events : int Atomic.t;
  next_fid : int Atomic.t;
  next_rid : int Atomic.t;
  trace_mu : Mutex.t;
  trace : Steal_trace.entry Dynarr.t;
  n_struct : int Atomic.t;
  n_tasks : int Atomic.t;
  n_deque_steals : int Atomic.t;
  n_parks : int Atomic.t;
}

let origin_of rt =
  {
    Fault.o_frame = -1;
    o_kind = Tool.User_fn;
    o_depth = -1;
    o_strand = -1;
    o_spec =
      Printf.sprintf "online(seed=%d,density=%g)" rt.cfg.seed rt.cfg.density;
  }

let record_failure rt f =
  Mutex.lock rt.fail_mu;
  if rt.failure = None then rt.failure <- Some f;
  Mutex.unlock rt.fail_mu;
  Atomic.set rt.cancel true

let contain rt = function
  | Cancelled -> ()
  | Fault.Stop b -> record_failure rt (Fault.Budget_exceeded b)
  | Engine.Cilk_error m ->
      record_failure rt (Fault.Engine_invariant { what = m; origin = origin_of rt })
  | e ->
      let backtrace = Printexc.get_backtrace () in
      record_failure rt
        (Fault.User_program_exn
           { exn = Printexc.to_string e; backtrace; origin = origin_of rt })

(* Global event budget: cancellation, event cap, deadline (checked every
   64 events, same cadence class as the serial engine's). *)
let bump rt =
  if Atomic.get rt.cancel then raise Cancelled;
  let n = 1 + Atomic.fetch_and_add rt.events 1 in
  (match rt.cfg.max_events with
  | Some m when n > m -> raise (Fault.Stop (Fault.Max_events m))
  | _ -> ());
  match rt.cfg.deadline with
  | Some dl when (n land 63 = 0 || n = 1) && rt.clock () > dl ->
      raise (Fault.Stop (Fault.Deadline dl))
  | _ -> ()

let fresh_region rt =
  { orid = Atomic.fetch_and_add rt.next_rid 1; oviews = Hashtbl.create 4 }

let mk_frame rt ~region ~rpath ~phash =
  {
    fid = Atomic.fetch_and_add rt.next_fid 1;
    block = 0;
    nuser = 0;
    nspawns = 0;
    region;
    base = region;
    opens = [];
    lock = Mutex.create ();
    outstanding = 0;
    parked = None;
    rpath;
    phash;
  }

(* ---------- structural steal decisions ---------- *)

(* [Hashtbl.hash] is deterministic across runs and domains, which is all
   the decision needs; the victim-selection rng (placement only) is the
   seeded one. *)
let child_phash parent_phash ord = Hashtbl.hash (parent_phash, ord, 0x9e3779b9)

let steal_decision rt fr sord =
  let h = Hashtbl.hash (rt.cfg.seed, fr.phash, sord, 0x85ebca6b) land 0xffffff in
  float_of_int h < rt.cfg.density *. 16777216.

(* A new user child of [fr]: spawned and called children alike take the
   next ordinal of its fork path. *)
let user_child rt fr =
  let ord = fr.nuser in
  fr.nuser <- ord + 1;
  mk_frame rt ~region:fr.region ~rpath:(ord :: fr.rpath)
    ~phash:(child_phash fr.phash ord)

(* ---------- worker identity and task queue ---------- *)

let wid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let push_my rt task =
  let w = Domain.DLS.get wid_key in
  Ws_deque.push rt.deques.(w) task

(* ---------- effects ---------- *)

type _ Effect.t +=
  | Spawned : (unit -> unit) -> unit Effect.t
        (* publish my continuation as a stealable task, then run the
           child (child-first discipline) *)
  | Park : ofr -> unit Effect.t
        (* suspend until the frame's last outstanding child returns *)

(* Run a fresh computation under the scheduler's handler. Continuation
   tasks are resumed bare ([Effect.Deep.continue]): deep handlers travel
   with the continuation, so their effects and exceptions still land
   here. *)
let run_comp rt (f : unit -> unit) : unit =
  Effect.Deep.match_with f ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> contain rt e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Spawned child ->
              Some
                (fun (k : (b, unit) Effect.Deep.continuation) ->
                  push_my rt (fun () -> Effect.Deep.continue k ());
                  child ())
          | Park fr ->
              Some
                (fun (k : (b, unit) Effect.Deep.continuation) ->
                  Mutex.lock fr.lock;
                  if fr.outstanding = 0 then begin
                    Mutex.unlock fr.lock;
                    Effect.Deep.continue k ()
                  end
                  else begin
                    fr.parked <- Some (fun () -> Effect.Deep.continue k ());
                    Mutex.unlock fr.lock;
                    Atomic.incr rt.n_parks;
                    if Obs.enabled () then Obs.bump_online_park ()
                  end)
          | _ -> None);
    }

let child_done rt parent =
  Mutex.lock parent.lock;
  parent.outstanding <- parent.outstanding - 1;
  let resume =
    if parent.outstanding = 0 then (
      let p = parent.parked in
      parent.parked <- None;
      p)
    else None
  in
  Mutex.unlock parent.lock;
  match resume with Some tk -> push_my rt tk | None -> ()

(* ---------- region merging (at-sync policy) ---------- *)

(* Fold the steal-opened regions back into the frame's entry region,
   newest first — the same merge order as the serial engine's repeated
   [merge_top_two] at a sync. Runs on the frame's executor after every
   child has joined, so the regions involved have no other owner. *)
let merge_regions ctx fr =
  let do_merge ~from ~into =
    fr.region <- into;
    Engine.online_merge ctx ~from_region:from.orid ~into_region:into.orid;
    Hashtbl.reset from.oviews
  in
  let rec go = function
    | [] -> ()
    | [ r1 ] -> do_merge ~from:r1 ~into:fr.base
    | r1 :: (r2 :: _ as rest) ->
        do_merge ~from:r1 ~into:r2;
        go rest
  in
  go fr.opens;
  fr.opens <- [];
  fr.region <- fr.base

let frame_sync rt ctx fr =
  bump rt;
  Mutex.lock fr.lock;
  let pending = fr.outstanding > 0 in
  Mutex.unlock fr.lock;
  if pending then Effect.perform (Park fr);
  merge_regions ctx fr;
  fr.block <- fr.block + 1

(* ---------- DSL operations ---------- *)

let user_ctx rt fr =
  Engine.online_ctx rt.eng (Obj.repr { fr; aux_kind = Tool.User_fn })

let require_user o what =
  if o.aux_kind <> Tool.User_fn then
    err "%s is not allowed inside view-aware (update/reduce/identity) code" what

(* Run [f] as the body of frame [child], including the implicit sync,
   and return its result. *)
let child_body rt child f =
  let cctx = user_ctx rt child in
  let v = f cctx in
  frame_sync rt cctx child;
  v

let spawn_impl : type a. rt -> Engine.ctx -> (Engine.ctx -> a) -> a Engine.future =
 fun rt ctx f ->
  let o = ost_of ctx in
  require_user o "spawn";
  let fr = o.fr in
  bump rt;
  let child = user_child rt fr in
  let sord = fr.nspawns in
  fr.nspawns <- sord + 1;
  let fut = Engine.online_future_make ~owner:fr.fid ~born_block:fr.block in
  let run_child () =
    bump rt;
    Engine.online_future_fill fut (child_body rt child f)
  in
  if steal_decision rt fr sord then begin
    Mutex.lock rt.trace_mu;
    Dynarr.push rt.trace
      { Steal_trace.e_path = List.rev fr.rpath; e_ord = sord };
    Mutex.unlock rt.trace_mu;
    Atomic.incr rt.n_struct;
    Mutex.lock fr.lock;
    fr.outstanding <- fr.outstanding + 1;
    Mutex.unlock fr.lock;
    (* The continuation resumes in a fresh region, exactly as if stolen:
       switch the frame's region before publishing the continuation. *)
    let nr = fresh_region rt in
    fr.opens <- nr :: fr.opens;
    fr.region <- nr;
    Effect.perform
      (Spawned
         (fun () ->
           run_comp rt (fun () ->
               run_child ();
               child_done rt fr)))
  end
  else
    (* Not stolen: the child runs to completion on this worker before the
       continuation — its parks suspend the whole serial chain, which is
       the continuation's serial position anyway. *)
    run_child ();
  fut

let call_impl : type a. rt -> Engine.ctx -> (Engine.ctx -> a) -> a =
 fun rt ctx f ->
  let o = ost_of ctx in
  require_user o "call";
  let fr = o.fr in
  bump rt;
  let child = user_child rt fr in
  bump rt;
  child_body rt child f

let get_impl : type a. Engine.ctx -> a Engine.future -> a =
 fun ctx fut ->
  let o = ost_of ctx in
  if o.fr.fid <> Engine.future_owner fut then
    err "future read from a frame other than the spawning one";
  if o.fr.block <= Engine.future_born_block fut then
    err "future read before sync (the spawned child may still be running)";
  match Engine.online_future_peek fut with
  | Some v -> v
  | None -> err "future has no value"

let sync_impl rt ctx =
  let o = ost_of ctx in
  require_user o "sync";
  frame_sync rt ctx o.fr

let run_aux_impl : type a. rt -> Engine.ctx -> Tool.frame_kind -> (Engine.ctx -> a) -> a =
 fun rt ctx kind f ->
  let o = ost_of ctx in
  bump rt;
  f (Engine.online_ctx rt.eng (Obj.repr { fr = o.fr; aux_kind = kind }))

(* Resolve a region id against the frame's reachable regions: its current
   region, its entry region, and its steal-opened regions. Merge closures
   only ever name regions of the frame performing the sync, and ordinary
   reducer operations name the current region, so this never needs a
   global table. *)
let region_lookup (o : ost) rid =
  let fr = o.fr in
  if fr.region.orid = rid then fr.region
  else if fr.base.orid = rid then fr.base
  else
    match List.find_opt (fun r -> r.orid = rid) fr.opens with
    | Some r -> r
    | None -> err "view region %d is not reachable from the current frame" rid

(* ---------- worker loop ---------- *)

let exec rt task =
  Atomic.incr rt.n_tasks;
  if Obs.enabled () then Obs.bump_online_task ();
  task ()

let stopped rt = Atomic.get rt.finished || Atomic.get rt.cancel

(* Idle backoff. With more workers than cores, a domain that spins on
   [Domain.cpu_relax] takes CPU from the ones holding work, so after
   [spin_rounds] failed pop-and-steal rounds an idle worker sleeps, 1 us
   longer each further round, up to [max_sleep_s]. Running a task resets
   the count. *)
let spin_rounds = 64
let max_sleep_s = 100e-6

let back_off idle =
  if idle < spin_rounds then Domain.cpu_relax ()
  else
    Unix.sleepf (Float.min max_sleep_s (1e-6 *. float_of_int (idle - spin_rounds + 1)))

let worker rt w first =
  Domain.DLS.set wid_key w;
  (match first with Some tk -> exec rt tk | None -> ());
  (* Victim choice only affects placement, never the steal set. *)
  let rng = Rader_support.Rng.create (rt.cfg.seed + (w * 7919) + 1) in
  let p = Array.length rt.deques in
  let idle = ref 0 in
  let run tk =
    idle := 0;
    exec rt tk
  in
  let wait () =
    back_off !idle;
    incr idle
  in
  while not (stopped rt) do
    match Ws_deque.pop rt.deques.(w) with
    | Some tk -> run tk
    | None ->
        if p > 1 then begin
          let v = (w + 1 + Rader_support.Rng.int rng (p - 1)) mod p in
          match Ws_deque.steal rt.deques.(v) with
          | Some tk ->
              Atomic.incr rt.n_deque_steals;
              if Obs.enabled () then Obs.bump_online_deque_steal ();
              run tk
          | None -> wait ()
        end
        else wait ()
  done

(* ---------- entry point ---------- *)

let run cfg program =
  if cfg.workers < 1 then invalid_arg "Online.run: workers must be >= 1";
  if not (cfg.density >= 0. && cfg.density <= 1.) then
    invalid_arg "Online.run: density must be in [0, 1]";
  let eng = Engine.create () in
  let rt =
    {
      eng;
      cfg;
      clock = (match cfg.clock with Some c -> c | None -> Unix.gettimeofday);
      deques = Array.init cfg.workers (fun _ -> Ws_deque.create ());
      finished = Atomic.make false;
      cancel = Atomic.make false;
      fail_mu = Mutex.create ();
      failure = None;
      result = Atomic.make None;
      events = Atomic.make 0;
      next_fid = Atomic.make 0;
      next_rid = Atomic.make 0;
      trace_mu = Mutex.create ();
      trace = Dynarr.create ();
      n_struct = Atomic.make 0;
      n_tasks = Atomic.make 0;
      n_deque_steals = Atomic.make 0;
      n_parks = Atomic.make 0;
    }
  in
  Engine.set_online eng
    {
      Engine.oo_spawn = (fun ctx f -> spawn_impl rt ctx f);
      oo_get = get_impl;
      oo_sync = (fun ctx -> sync_impl rt ctx);
      oo_call = (fun ctx f -> call_impl rt ctx f);
      oo_run_aux = (fun ctx kind f -> run_aux_impl rt ctx kind f);
      oo_event = (fun () -> bump rt);
      oo_current_region = (fun ctx -> (ost_of ctx).fr.region.orid);
      oo_view_find =
        (fun ctx ~region ~reducer ->
          let r = region_lookup (ost_of ctx) region in
          Hashtbl.find_opt r.oviews reducer);
      oo_view_set =
        (fun ctx ~region ~reducer v ->
          let r = region_lookup (ost_of ctx) region in
          Hashtbl.replace r.oviews reducer v);
    };
  let root = mk_frame rt ~region:(fresh_region rt) ~rpath:[] ~phash:0 in
  let root_task () =
    run_comp rt (fun () ->
        let v = child_body rt root program in
        Atomic.set rt.result (Some v);
        Atomic.set rt.finished true)
  in
  let obs_on = Obs.enabled () in
  let merged = if obs_on then Some (Obs.zero ()) else None in
  let merge_mu = Mutex.create () in
  let body w first () =
    let snap = if obs_on then Some (Obs.snapshot ()) else None in
    worker rt w first;
    match (snap, merged) with
    | Some snap, Some into ->
        let delta = Obs.since snap in
        Mutex.lock merge_mu;
        Obs.add ~into delta;
        Mutex.unlock merge_mu
    | _ -> ()
  in
  let others =
    Array.init (cfg.workers - 1) (fun i ->
        Domain.spawn (fun () -> body (i + 1) None ()))
  in
  body 0 (Some root_task) ();
  Array.iter Domain.join others;
  Engine.clear_online eng;
  let value =
    match rt.failure with
    | Some f -> Error f
    | None -> (
        match Atomic.get rt.result with
        | Some v -> Ok v
        | None ->
            Error
              (Fault.Engine_invariant
                 {
                   what = "online run finished without a result";
                   origin = origin_of rt;
                 }))
  in
  {
    value;
    trace =
      Steal_trace.make ~workers:cfg.workers ~seed:cfg.seed ~density:cfg.density
        (Dynarr.to_list rt.trace);
    n_structural_steals = Atomic.get rt.n_struct;
    n_tasks = Atomic.get rt.n_tasks;
    n_deque_steals = Atomic.get rt.n_deque_steals;
    n_parks = Atomic.get rt.n_parks;
    events = Atomic.get rt.events;
    counters = merged;
  }

(* ---------- verdicts: the serial detectors under the run's steals ---------- *)

type judge = {
  j_program : Engine.ctx -> unit;
  j_reach : Rader_reach.Reach.backend option;
  (* the no-steal run: Peer-Set's reports and the trace-to-spec map *)
  mutable j_base :
    (Report.t list * (Steal_trace.t -> (Steal_spec.t, string) result)) option;
}

let judge ?reach program =
  {
    j_program = (fun ctx -> ignore (program ctx));
    j_reach = reach;
    j_base = None;
  }

let by_kind_subject a b =
  match compare a.Report.kind b.Report.kind with
  | 0 -> compare a.Report.subject b.Report.subject
  | c -> c

let verdict ?max_events ?deadline j (trace : Steal_trace.t) =
  let ( let* ) = Result.bind in
  let* view_reads, to_spec =
    match j.j_base with
    | Some base -> Ok base
    | None ->
        let eng = Engine.create ?max_events ?deadline () in
        let pe = Peer_set.create ?reach:j.j_reach eng in
        let tool, frames = Steal_trace.observe (Peer_set.tool pe) in
        Engine.set_tool eng tool;
        let* () = Engine.run_result eng j.j_program in
        let base = (Peer_set.races pe, Steal_trace.to_spec (frames ())) in
        j.j_base <- Some base;
        Ok base
  in
  let* spec =
    Result.map_error
      (fun reason ->
        Fault.Invalid_steal_spec
          {
            spec =
              Printf.sprintf "online-trace(seed=%d,density=%g)"
                trace.Steal_trace.seed trace.Steal_trace.density;
            reason;
          })
      (to_spec trace)
  in
  let eng = Engine.create ~spec ?max_events ?deadline () in
  let sp = Sp_plus.attach ?reach:j.j_reach eng in
  let* () = Engine.run_result eng j.j_program in
  Ok (List.sort by_kind_subject (Sp_plus.races sp @ view_reads))
