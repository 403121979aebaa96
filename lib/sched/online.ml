open Rader_runtime
module Fp = Rader_reach.Reach.Fp
module Report = Rader_core.Report
module Steal_trace = Rader_core.Steal_trace
module Ws_deque = Rader_support.Ws_deque
module Dynarr = Rader_support.Dynarr
module Obs = Rader_obs.Obs
module Loc = Rader_memory.Loc

type config = {
  workers : int;
  seed : int;
  density : float;
  stripes : int option;
  max_events : int option;
  deadline : float option;
  clock : (unit -> float) option;
}

let default ?(workers = 2) ?(seed = 1) ?(density = 0.5) () =
  {
    workers;
    seed;
    density;
    stripes = None;
    max_events = None;
    deadline = None;
    clock = None;
  }

type outcome = {
  value : (int, Fault.failure) result;
  races : Report.t list;
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

(* One live user frame. Structural fields ([rs], [rpath], [phash],
   [cum_entry], [fid], [base]) are written once at creation; the mutable
   counters are only ever touched by the frame's current executor (frame
   bodies are a single logical thread even when their segments migrate
   across workers); [outstanding]/[parked] are the sync join state,
   guarded by [lock]. *)
type ofr = {
  fid : int;
  rs : Fp.frame;
  mutable seq : int;  (* per-frame child-creation counter *)
  mutable block : int;  (* current sync block *)
  mutable nuser : int;  (* user children created (spawn + call) *)
  mutable nspawns : int;  (* spawns performed, across blocks *)
  mutable ls : int;  (* spawns since the last sync (Peer-Set [ls]) *)
  cum_entry : int;  (* chain-spawn stamp at frame entry *)
  sc_entry : int;  (* serial spawn count at frame entry (Peer-Set [anc]) *)
  mutable region : oregion;  (* current view region *)
  base : oregion;  (* entry region: everything merges back here *)
  mutable opens : oregion list;  (* steal-opened regions, newest first *)
  lock : Mutex.t;
  mutable outstanding : int;  (* stolen children not yet returned *)
  mutable parked : (unit -> unit) option;  (* suspended sync resumption *)
  rpath : int list;  (* user-child ordinals, frame -> root (reversed) *)
  phash : int;  (* rolling structural hash of [rpath] *)
  items : oitem Dynarr.t;
      (* the frame's serial-order event skeleton (children, aux frames,
         syncs), pushed only by the frame's current executor — enough to
         replay the serial engine's frame/strand numbering post-run *)
  mutable in_merge : bool;  (* executing this frame's sync-time merges *)
}

(* One serially-ordered event on a frame. Mirrors exactly what consumes a
   frame, strand, location or reducer id in the serial engine: a user
   child (fresh fid, enter strand, subtree, implicit sync strand, then a
   continue strand on this frame), an auxiliary frame (fresh fid + one
   strand; a continue strand unless it is a reduce running inside a
   merge), a sync (unconditionally one strand, after the merge reduces),
   an allocation of [n] locations starting at online id [base], or a
   reducer registration under online id [rid]. *)
and oitem =
  | It_user of ofr
  | It_aux of { continue : bool }
  | It_sync
  | It_alloc of { base : int; n : int }
  | It_reducer of int

(* The [Obj.t] payload behind [Engine.ctx]: which frame, whether we are
   inside a view-aware auxiliary callback of it, and — if so — which
   [It_aux] item of the frame that callback is ([-1] for user code). *)
type ost = { fr : ofr; aux_kind : Tool.frame_kind; aux_item : int }

(* A race endpoint, recorded at access time and resolved to the serial
   replay's (frame, strand) ids after the run: either user code on [ep_fr]
   after [ep_item] recorded items, or the auxiliary frame at item index
   [ep_item]. *)
type ep = { ep_fr : ofr; ep_item : int; ep_aux : bool }

let ep_of (o : ost) =
  if o.aux_item >= 0 then { ep_fr = o.fr; ep_item = o.aux_item; ep_aux = true }
  else
    { ep_fr = o.fr; ep_item = Dynarr.length o.fr.items; ep_aux = false }

let ost_of ctx : ost = Obj.obj (Engine.ctx_ost ctx)

let point_of (o : ost) =
  let fr = o.fr in
  {
    Fp.p_frame = fr.rs;
    p_block = fr.block;
    p_seq = fr.seq;
    p_rid = fr.region.orid;
    p_cum = fr.cum_entry + fr.nspawns;
  }

(* ---------- lock-striped shadow spaces ---------- *)

(* Stripe width: an explicit [stripes] rounds up to a power of two (the
   slot index is a mask); the default scales with the worker count so
   contention stays flat as domains are added, floored at the historical
   64-way layout. *)
let next_pow2 n =
  let rec go k = if k >= n then k else go (k * 2) in
  go 1

let stripe_count cfg =
  match cfg.stripes with
  | None -> max 64 (next_pow2 (cfg.workers * 16))
  | Some s ->
      if s < 1 then invalid_arg "Online.run: stripes must be >= 1";
      next_pow2 s

(* Determinacy shadow: serially-last writer plus serially-least and
   -greatest readers per location, each with the endpoint descriptor that
   produced it. The SP-order retention lemma (if x is parallel to a
   dropped reader r with min <= r <= max in serial order, then x is
   parallel to min or to max) makes the racy-location set independent of
   the order workers reach the table. *)
type dslot = {
  mutable w : (Fp.point * bool * ep) option;  (* point, view_aware, endpoint *)
  mutable rmin : (Fp.point * bool * ep) option;
  mutable rmax : (Fp.point * bool * ep) option;
}

(* Peer-Set shadow: serially-least/-greatest reducer-read per reducer,
   each with its serial spawn count (the number of outstanding spawns on
   the reading frame's ancestor chain — Lemma 3's peer-set key). *)
type pslot = {
  mutable pmin : (Fp.point * int * ep) option;
  mutable pmax : (Fp.point * int * ep) option;
}

type 'slot stripes = { mus : Mutex.t array; tbls : (int, 'slot) Hashtbl.t array }

let stripes n =
  {
    mus = Array.init n (fun _ -> Mutex.create ());
    tbls = Array.init n (fun _ -> Hashtbl.create 64);
  }

let with_slot st key ~fresh f =
  let i = key land (Array.length st.mus - 1) in
  Mutex.lock st.mus.(i);
  Fun.protect
    ~finally:(fun () -> Mutex.unlock st.mus.(i))
    (fun () ->
      let slot =
        match Hashtbl.find_opt st.tbls.(i) key with
        | Some s -> s
        | None ->
            let s = fresh () in
            Hashtbl.add st.tbls.(i) key s;
            s
      in
      f slot)

(* ---------- the runtime ---------- *)

(* A race recorded during the run, with raw endpoint descriptors and the
   subject's online id; the serial (frame, strand, subject) ids are
   resolved after all workers join, by replaying the serial engine's
   numbering over the recorded item skeleton. *)
type proto = {
  pr_kind : Report.race_kind;
  pr_subject : int;
  pr_first : ep;
  pr_first_access : Report.access_kind;
  pr_second : ep;
  pr_second_access : Report.access_kind;
  pr_second_aware : bool;
}

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
  merges_mu : Mutex.t;
  merges : (Engine.ctx -> from_region:int -> into_region:int -> unit) Dynarr.t;
  alloc_mu : Mutex.t;
  dshadow : dslot stripes;
  pshadow : pslot stripes;
  races_mu : Mutex.t;
  protos : proto Dynarr.t;
  seen : (Report.race_kind * int, unit) Hashtbl.t;  (* per-subject dedup *)
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

let mk_frame rt ~rs ~cum_entry ~sc_entry ~region ~rpath ~phash =
  {
    fid = Atomic.fetch_and_add rt.next_fid 1;
    rs;
    seq = 0;
    block = 0;
    nuser = 0;
    nspawns = 0;
    ls = 0;
    cum_entry;
    sc_entry;
    region;
    base = region;
    opens = [];
    lock = Mutex.create ();
    outstanding = 0;
    parked = None;
    rpath;
    phash;
    items = Dynarr.create ();
    in_merge = false;
  }

(* ---------- structural steal decisions ---------- *)

(* [Hashtbl.hash] is deterministic across runs and domains, which is all
   the decision needs; the victim-selection rng (placement only) is the
   seeded one. *)
let child_phash parent_phash ord = Hashtbl.hash (parent_phash, ord, 0x9e3779b9)

let steal_decision rt fr sord =
  let h = Hashtbl.hash (rt.cfg.seed, fr.phash, sord, 0x85ebca6b) land 0xffffff in
  float_of_int h < rt.cfg.density *. 16777216.

(* ---------- worker identity and task queue ---------- *)

let wid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

(* The frame whose code this domain is executing. Allocation and reducer
   registration carry no context ([Cell.make eng], [Rvec] growth), so they
   find their frame here; it is set wherever a worker starts or resumes a
   frame's code: a child's start, the return from an inline child or a
   call, and the resumption after [Spawned] or [Park]. Auxiliary callbacks
   need nothing: they run inside their frame's code, on its executor, and
   cannot spawn, call or sync. *)
let cur_key : ofr option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let set_current fr = Domain.DLS.set cur_key (Some fr)

let push_my rt task =
  let w = Domain.DLS.get wid_key in
  Ws_deque.push rt.deques.(w) task

(* ---------- detection ---------- *)

(* Record a proto-report, first race per (kind, subject) wins — the same
   dedup rule as [Report.collector]. *)
let record_proto rt p =
  Mutex.lock rt.races_mu;
  let key = (p.pr_kind, p.pr_subject) in
  if not (Hashtbl.mem rt.seen key) then begin
    Hashtbl.add rt.seen key ();
    Dynarr.push rt.protos p
  end;
  Mutex.unlock rt.races_mu

let report_determinacy rt loc ~first ~first_access ~second ~second_access
    ~second_aware =
  record_proto rt
    {
      pr_kind = Report.Determinacy_race;
      pr_subject = loc;
      pr_first = first;
      pr_first_access = first_access;
      pr_second = second;
      pr_second_access = second_access;
      pr_second_aware = second_aware;
    }

let report_view_read rt reducer ~first ~second =
  record_proto rt
    {
      pr_kind = Report.View_read_race;
      pr_subject = reducer;
      pr_first = first;
      pr_first_access = Report.Reducer_read;
      pr_second = second;
      pr_second_access = Report.Reducer_read;
      pr_second_aware = false;
    }

(* SP+ determinacy rule on a (stored, current) pair: parallel, and — when
   the serially-later endpoint is view-aware — operating on views that
   are still distinct at the later endpoint ([earlier_entry_rid] is the
   earlier side's surviving region under the at-sync policy). *)
let determinacy_races (sp, s_aware) (cp, c_aware) =
  match Fp.relate sp cp with
  | Fp.Serial _ -> false
  | Fp.Parallel { a_before_b; earlier_entry_rid } ->
      let later_rid, later_aware =
        if a_before_b then (cp.Fp.p_rid, c_aware) else (sp.Fp.p_rid, s_aware)
      in
      (not later_aware) || earlier_entry_rid <> later_rid

(* Peer-Set rule (Lemma 3): two reads have the same peer set iff they
   have the same serial spawn count and neither is in a P bag relative
   to the other. SP-parallel implies P-bag membership, and a spawn-count
   mismatch is racy outright; what we drop is the remaining bag case (an
   SP-serial pair whose earlier read sits in a returned spawned subtree
   yet whose counts coincide) — an under-approximation, so no false
   positives. Both kept tests are arrival-order independent: counts by
   the connected-compare-graph argument, parallelism because detection
   order is a linear extension of the SP order (a read executes only
   after all its SP predecessors), so the first completed parallel pair
   always has one endpoint retained as the serial max. *)
let peer_races (sp, ssc) (cp, csc) =
  match Fp.relate sp cp with
  | Fp.Parallel _ -> true
  | Fp.Serial _ -> ssc <> csc

let shadow_read rt loc pt aware ep =
  with_slot rt.dshadow loc
    ~fresh:(fun () -> { w = None; rmin = None; rmax = None })
    (fun s ->
      (match s.w with
      | Some (wp, w_aware, w_ep) when determinacy_races (wp, w_aware) (pt, aware)
        ->
          report_determinacy rt loc ~first:w_ep ~first_access:Report.Write
            ~second:ep ~second_access:Report.Read ~second_aware:aware
      | _ -> ());
      (match s.rmin with
      | None -> s.rmin <- Some (pt, aware, ep)
      | Some (m, _, _) ->
          if Fp.serial_before pt m then s.rmin <- Some (pt, aware, ep));
      match s.rmax with
      | None -> s.rmax <- Some (pt, aware, ep)
      | Some (m, _, _) ->
          if Fp.serial_before m pt then s.rmax <- Some (pt, aware, ep))

let shadow_write rt loc pt aware ep =
  with_slot rt.dshadow loc
    ~fresh:(fun () -> { w = None; rmin = None; rmax = None })
    (fun s ->
      let races = function
        | Some (sp, s_aware, _) -> determinacy_races (sp, s_aware) (pt, aware)
        | None -> false
      in
      (* report against the first racing stored endpoint, writer first *)
      (match
         List.find_opt
           (fun (stored, _) -> races stored)
           [ (s.w, Report.Write); (s.rmin, Report.Read); (s.rmax, Report.Read) ]
       with
      | Some (Some (_, _, s_ep), first_access) ->
          report_determinacy rt loc ~first:s_ep ~first_access ~second:ep
            ~second_access:Report.Write ~second_aware:aware
      | _ -> ());
      match s.w with
      | None -> s.w <- Some (pt, aware, ep)
      | Some (wp, _, _) -> if Fp.serial_before wp pt then s.w <- Some (pt, aware, ep))

let peer_read rt reducer pt sc ep =
  with_slot rt.pshadow reducer
    ~fresh:(fun () -> { pmin = None; pmax = None })
    (fun s ->
      let races = function
        | Some (sp, ssc, _) -> peer_races (sp, ssc) (pt, sc)
        | None -> false
      in
      (match
         List.find_opt races [ s.pmin; s.pmax ] |> Option.join
       with
      | Some (_, _, s_ep) -> report_view_read rt reducer ~first:s_ep ~second:ep
      | None -> ());
      (match s.pmin with
      | None -> s.pmin <- Some (pt, sc, ep)
      | Some (m, _, _) -> if Fp.serial_before pt m then s.pmin <- Some (pt, sc, ep));
      match s.pmax with
      | None -> s.pmax <- Some (pt, sc, ep)
      | Some (m, _, _) -> if Fp.serial_before m pt then s.pmax <- Some (pt, sc, ep))

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
let merge_regions rt ctx fr =
  let do_merge ~from ~into =
    fr.region <- into;
    let closures =
      Mutex.lock rt.merges_mu;
      let l = Dynarr.to_list rt.merges in
      Mutex.unlock rt.merges_mu;
      l
    in
    List.iter
      (fun merge -> merge ctx ~from_region:from.orid ~into_region:into.orid)
      closures;
    Hashtbl.reset from.oviews
  in
  let rec go = function
    | [] -> ()
    | [ r1 ] -> do_merge ~from:r1 ~into:fr.base
    | r1 :: (r2 :: _ as rest) ->
        do_merge ~from:r1 ~into:r2;
        go rest
  in
  fr.in_merge <- true;
  Fun.protect
    ~finally:(fun () -> fr.in_merge <- false)
    (fun () -> go fr.opens);
  fr.opens <- [];
  fr.region <- fr.base

let frame_sync rt ctx fr =
  bump rt;
  Mutex.lock fr.lock;
  let pending = fr.outstanding > 0 in
  Mutex.unlock fr.lock;
  if pending then begin
    Effect.perform (Park fr);
    set_current fr
  end;
  merge_regions rt ctx fr;
  (* the serial engine allocates a sync strand unconditionally, after the
     merge reduces *)
  Dynarr.push fr.items It_sync;
  fr.block <- fr.block + 1;
  fr.ls <- 0

(* ---------- DSL operations ---------- *)

let user_ctx rt fr =
  Engine.online_ctx rt.eng
    (Obj.repr { fr; aux_kind = Tool.User_fn; aux_item = -1 })

let require_user o what =
  if o.aux_kind <> Tool.User_fn then
    err "%s is not allowed inside view-aware (update/reduce/identity) code" what

(* Run [f] as a child User_fn frame of [child], including the implicit
   sync, fill its future, then run [after] (join bookkeeping for stolen
   children, nothing for inline ones). *)
let child_main rt child fut f ~after =
  bump rt;
  set_current child;
  let cctx = user_ctx rt child in
  let v = f cctx in
  frame_sync rt cctx child;
  Engine.online_future_fill fut v;
  after ()

let spawn_impl : type a. rt -> Engine.ctx -> (Engine.ctx -> a) -> a Engine.future =
 fun rt ctx f ->
  let o = ost_of ctx in
  require_user o "spawn";
  let fr = o.fr in
  bump rt;
  let ord = fr.nuser in
  fr.nuser <- ord + 1;
  let sord = fr.nspawns in
  fr.nspawns <- sord + 1;
  fr.ls <- fr.ls + 1;
  let seq = fr.seq in
  fr.seq <- seq + 1;
  let entry_region = fr.region in
  let cum_entry = fr.cum_entry + fr.nspawns in
  (* A spawned child's entry count includes its own spawn (Peer-Set's
     [anc] is read after the parent's [ls] bump). *)
  let sc_entry = fr.sc_entry + fr.ls in
  let rs =
    Fp.child fr.rs ~ord ~spawned:true ~block:fr.block ~seq
      ~rid_entry:entry_region.orid ~cum_entry
  in
  let child =
    mk_frame rt ~rs ~cum_entry ~sc_entry ~region:entry_region
      ~rpath:(ord :: fr.rpath)
      ~phash:(child_phash fr.phash ord)
  in
  Dynarr.push fr.items (It_user child);
  let fut = Engine.online_future_make ~owner:fr.fid ~born_block:fr.block in
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
               child_main rt child fut f ~after:(fun () -> child_done rt fr))))
  end
  else
    (* Not stolen: the child runs to completion on this worker before the
       continuation — its parks suspend the whole serial chain, which is
       the continuation's serial position anyway. *)
    child_main rt child fut f ~after:(fun () -> ());
  set_current fr;
  fut

let call_impl : type a. rt -> Engine.ctx -> (Engine.ctx -> a) -> a =
 fun rt ctx f ->
  let o = ost_of ctx in
  require_user o "call";
  let fr = o.fr in
  bump rt;
  let ord = fr.nuser in
  fr.nuser <- ord + 1;
  let seq = fr.seq in
  fr.seq <- seq + 1;
  let cum_entry = fr.cum_entry + fr.nspawns in
  let sc_entry = fr.sc_entry + fr.ls in
  let rs =
    Fp.child fr.rs ~ord ~spawned:false ~block:fr.block ~seq
      ~rid_entry:fr.region.orid ~cum_entry
  in
  let child =
    mk_frame rt ~rs ~cum_entry ~sc_entry ~region:fr.region
      ~rpath:(ord :: fr.rpath)
      ~phash:(child_phash fr.phash ord)
  in
  Dynarr.push fr.items (It_user child);
  bump rt;
  set_current child;
  let cctx = user_ctx rt child in
  let v = f cctx in
  frame_sync rt cctx child;
  set_current fr;
  v

let get_impl : type a. rt -> Engine.ctx -> a Engine.future -> a =
 fun _rt ctx fut ->
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

let run_aux_impl : type a.
    rt -> reducer:int -> Engine.ctx -> Tool.frame_kind -> (Engine.ctx -> a) -> a
    =
 fun rt ~reducer:_ ctx kind f ->
  let o = ost_of ctx in
  bump rt;
  let fr = o.fr in
  let idx = Dynarr.length fr.items in
  (* a reduce inside a sync-time merge does not continue the frame's
     strand afterwards (serial [in_reduce]); everything else does *)
  Dynarr.push fr.items
    (It_aux { continue = not (kind = Tool.Reduce_fn && fr.in_merge) });
  f (Engine.online_ctx rt.eng (Obj.repr { fr; aux_kind = kind; aux_item = idx }))

let emit_read_impl rt ctx loc =
  let o = ost_of ctx in
  bump rt;
  match o.aux_kind with
  | Tool.Reduce_fn -> ()
  | k -> shadow_read rt loc (point_of o) (k <> Tool.User_fn) (ep_of o)

let emit_write_impl rt ctx loc =
  let o = ost_of ctx in
  bump rt;
  match o.aux_kind with
  | Tool.Reduce_fn -> ()
  | k -> shadow_write rt loc (point_of o) (k <> Tool.User_fn) (ep_of o)

let emit_reducer_read_impl rt ctx red =
  let o = ost_of ctx in
  bump rt;
  if o.aux_kind = Tool.User_fn then
    peer_read rt red (point_of o) (o.fr.sc_entry + o.fr.ls) (ep_of o)

(* Ids are handed out in arrival order; the item pushed on the current
   frame lets the post-run walk renumber them in serial order. *)
let current_frame () =
  match Domain.DLS.get cur_key with
  | Some fr -> fr
  | None -> err "allocation outside any frame's code"

let register_reducer_impl rt ~merge =
  let fr = current_frame () in
  Mutex.lock rt.merges_mu;
  let id = Dynarr.length rt.merges in
  Dynarr.push rt.merges merge;
  Mutex.unlock rt.merges_mu;
  Dynarr.push fr.items (It_reducer id);
  id

let alloc_locs_impl rt ~label n =
  let fr = current_frame () in
  Mutex.lock rt.alloc_mu;
  let base = Engine.raw_alloc_locs rt.eng ~label n in
  Mutex.unlock rt.alloc_mu;
  Dynarr.push fr.items (It_alloc { base; n });
  base

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

let worker rt w first =
  Domain.DLS.set wid_key w;
  (match first with Some tk -> exec rt tk | None -> ());
  (* Victim choice only affects placement, never the verdict. *)
  let rng = Rader_support.Rng.create (rt.cfg.seed + (w * 7919) + 1) in
  let p = Array.length rt.deques in
  while not (stopped rt) do
    match Ws_deque.pop rt.deques.(w) with
    | Some tk -> exec rt tk
    | None ->
        if p > 1 then begin
          let v = (w + 1 + Rader_support.Rng.int rng (p - 1)) mod p in
          match Ws_deque.steal rt.deques.(v) with
          | Some tk ->
              Atomic.incr rt.n_deque_steals;
              if Obs.enabled () then Obs.bump_online_deque_steal ();
              exec rt tk
          | None -> Domain.cpu_relax ()
        end
        else Domain.cpu_relax ()
  done

(* ---------- endpoint attribution ---------- *)

(* Replay the serial engine's frame/strand numbering over the recorded
   item skeleton. The serial engine allocates frame ids in creation
   (preorder) order and strand ids in execution order, with fixed rules:
   every frame gets an "enter" strand on entry; a user child's whole
   subtree (ending in its implicit sync strand) precedes a "cont" strand
   on the parent; an auxiliary frame consumes a fresh frame id plus one
   strand, then a "cont" strand unless it was a reduce inside a merge;
   every sync allocates one strand after its merge reduces; locations
   and reducer ids are handed out in allocation order. A depth-first
   walk applying those rules to [items] therefore reproduces the exact
   ids a serial replay of the recorded steal trace assigns (trace replays
   use the at-sync reduce policy, so no merges happen at steal time). *)
type serial_ids = {
  si_fids : (int, int) Hashtbl.t;  (* online fid -> serial fid *)
  si_segs : (int, int array) Hashtbl.t;
      (* online fid -> strand after k recorded items, k = 0..n *)
  si_auxs : (int * int, int * int) Hashtbl.t;
      (* (online fid, item index) -> aux (serial fid, strand) *)
  si_locs : int array;  (* online location id -> serial id *)
  si_reducers : int array;  (* online reducer id -> serial id *)
}

let resolve_serial_ids root ~n_locs ~n_reducers =
  let next_fid = ref 0 and next_strand = ref 0 in
  let next_loc = ref 0 and next_reducer = ref 0 in
  let fresh r =
    let v = !r in
    incr r;
    v
  in
  let ids =
    {
      si_fids = Hashtbl.create 64;
      si_segs = Hashtbl.create 64;
      si_auxs = Hashtbl.create 16;
      si_locs = Array.make n_locs (-1);
      si_reducers = Array.make n_reducers (-1);
    }
  in
  let rec dfs fr =
    Hashtbl.replace ids.si_fids fr.fid (fresh next_fid);
    let n = Dynarr.length fr.items in
    let seg = Array.make (n + 1) 0 in
    seg.(0) <- fresh next_strand;
    (* "enter" / root "main" *)
    for i = 0 to n - 1 do
      seg.(i + 1) <-
        (match Dynarr.get fr.items i with
        | It_user child ->
            dfs child;
            fresh next_strand (* "cont" *)
        | It_aux { continue } ->
            let afid = fresh next_fid in
            let astrand = fresh next_strand in
            Hashtbl.replace ids.si_auxs (fr.fid, i) (afid, astrand);
            if continue then fresh next_strand else seg.(i)
        | It_sync -> fresh next_strand (* "sync" *)
        | It_alloc { base; n } ->
            for k = 0 to n - 1 do
              ids.si_locs.(base + k) <- !next_loc + k
            done;
            next_loc := !next_loc + n;
            seg.(i)
        | It_reducer rid ->
            ids.si_reducers.(rid) <- fresh next_reducer;
            seg.(i))
    done;
    Hashtbl.replace ids.si_segs fr.fid seg
  in
  dfs root;
  ids

let ep_ids ids ep =
  if ep.ep_aux then Hashtbl.find_opt ids.si_auxs (ep.ep_fr.fid, ep.ep_item)
  else
    match
      ( Hashtbl.find_opt ids.si_fids ep.ep_fr.fid,
        Hashtbl.find_opt ids.si_segs ep.ep_fr.fid )
    with
    | Some f, Some seg when ep.ep_item < Array.length seg ->
        Some (f, seg.(ep.ep_item))
    | _ -> None

let base_detail = function
  | Report.Determinacy_race ->
      "online: structurally parallel accesses, at least one a write"
  | Report.View_read_race -> "online: reducer-reads with different peer sets"

let resolve_report rt ids p =
  let subject, subject_label =
    match p.pr_kind with
    | Report.Determinacy_race ->
        (ids.si_locs.(p.pr_subject), Engine.loc_label rt.eng p.pr_subject)
    | Report.View_read_race ->
        let r = ids.si_reducers.(p.pr_subject) in
        (r, Printf.sprintf "reducer #%d" r)
  in
  let detail = base_detail p.pr_kind in
  let first_frame, second_frame, second_strand, detail =
    match (ep_ids ids p.pr_first, ep_ids ids p.pr_second) with
    | Some (ff, _), Some (sf, ss) -> (ff, sf, ss, detail)
    | _ -> (-1, -1, -1, detail ^ " (endpoints not attributed)")
  in
  {
    Report.kind = p.pr_kind;
    subject;
    subject_label;
    first_frame;
    first_access = p.pr_first_access;
    second_frame;
    second_access = p.pr_second_access;
    second_strand;
    second_view_aware = p.pr_second_aware;
    detail;
  }

(* ---------- entry point ---------- *)

let race_summary races =
  let subjects kind =
    List.filter_map
      (fun r -> if r.Report.kind = kind then Some r.Report.subject else None)
      races
    |> List.sort_uniq compare |> List.map string_of_int |> String.concat ";"
  in
  Printf.sprintf "determinacy=[%s] view-read=[%s]"
    (subjects Report.Determinacy_race)
    (subjects Report.View_read_race)

let run cfg program =
  if cfg.workers < 1 then invalid_arg "Online.run: workers must be >= 1";
  if not (cfg.density >= 0. && cfg.density <= 1.) then
    invalid_arg "Online.run: density must be in [0, 1]";
  let n_stripes = stripe_count cfg in
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
      merges_mu = Mutex.create ();
      merges = Dynarr.create ();
      alloc_mu = Mutex.create ();
      dshadow = stripes n_stripes;
      pshadow = stripes n_stripes;
      races_mu = Mutex.create ();
      protos = Dynarr.create ();
      seen = Hashtbl.create 8;
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
      oo_get = (fun ctx fut -> get_impl rt ctx fut);
      oo_sync = (fun ctx -> sync_impl rt ctx);
      oo_call = (fun ctx f -> call_impl rt ctx f);
      oo_run_aux = (fun ~reducer ctx kind f -> run_aux_impl rt ~reducer ctx kind f);
      oo_emit_read = (fun ctx loc -> emit_read_impl rt ctx loc);
      oo_emit_write = (fun ctx loc -> emit_write_impl rt ctx loc);
      oo_emit_reducer_read = (fun ctx red -> emit_reducer_read_impl rt ctx red);
      oo_register_reducer = (fun ~merge -> register_reducer_impl rt ~merge);
      oo_alloc_locs = (fun ~label n -> alloc_locs_impl rt ~label n);
      oo_current_region = (fun ctx -> (ost_of ctx).fr.region.orid);
      oo_current_frame = (fun ctx -> (ost_of ctx).fr.fid);
      oo_view_find =
        (fun ctx ~region ~reducer ->
          let o = ost_of ctx in
          let r = region_lookup o region in
          Hashtbl.find_opt r.oviews reducer);
      oo_view_set =
        (fun ctx ~region ~reducer v ->
          let o = ost_of ctx in
          let r = region_lookup o region in
          Hashtbl.replace r.oviews reducer v);
    };
  let base = fresh_region rt in
  let root =
    mk_frame rt ~rs:(Fp.root ()) ~cum_entry:0 ~sc_entry:0 ~region:base
      ~rpath:[] ~phash:0
  in
  let root_task () =
    run_comp rt (fun () ->
        set_current root;
        let ctx = user_ctx rt root in
        let v = program ctx in
        frame_sync rt ctx root;
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
  (* drop this domain's reference to the run's frame tree *)
  Domain.DLS.set cur_key None;
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
  let races =
    let protos = Dynarr.to_list rt.protos in
    let resolved =
      if protos = [] then []
      else
        (* all workers have joined: the item skeleton is complete and
           quiescent, so the numbering walk needs no locks *)
        let ids =
          resolve_serial_ids root
            ~n_locs:(Loc.count (Engine.loc_registry eng))
            ~n_reducers:(Dynarr.length rt.merges)
        in
        List.map (resolve_report rt ids) protos
    in
    List.sort
      (fun a b ->
        match compare a.Report.kind b.Report.kind with
        | 0 -> compare a.Report.subject b.Report.subject
        | c -> c)
      resolved
  in
  {
    value;
    races;
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
