module Dynarr = Rader_support.Dynarr
module Loc = Rader_memory.Loc
module Dag = Rader_dag.Dag
module Obs = Rader_obs.Obs

exception Cilk_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Cilk_error s)) fmt

type access = {
  a_loc : int;
  a_strand : int;
  a_frame : int;
  a_is_write : bool;
  a_view_aware : bool;
}

type merge_rec = { m_from : int; m_into : int; m_at : int }

type stats = {
  n_frames : int;
  n_strands : int;
  n_spawns : int;
  n_syncs : int;
  n_steals : int;
  n_reduce_calls : int;
  n_reads : int;
  n_writes : int;
  n_reducer_reads : int;
}

type state = Fresh | Running | Done

type 'a future = {
  mutable value : 'a option;
  owner : int;
  born_block : int;
  (* Online mode: filled by the child's executor, read by the parent
     frame's executor strictly after the join — the publication happens
     through the runtime's join lock, so no atomic is needed here. *)
}

(* Live frames are strictly nested in the serial execution, so a frame's
   depth is its slot in the [f_*] arrays (root = 0, innermost = [top]).
   A popped slot keeps its last strand ([f_strand]) for the parent to read
   and has its fid cleared to -1; fids never repeat within a run, so a
   context whose [fid] no longer matches its slot is dead for good.

   View regions form one stack for the whole engine: frame [d]'s open
   regions are [r_id.(f_rbase.(d)) .. r_id.(rtop - 1)] while it is
   innermost, its entry region (repeating the parent's current region id)
   at the bottom. Ids never decrease along the stack. [r_tails]
   (recording only) holds, per region, the dag vertices the region's next
   reduce — or the sync — depends on: the last strand of each completed
   child spawned in it, its segment's last continuation strand, and its
   latest reduce strand. *)
type t = {
  mutable tool : Tool.t;
  mutable spec : Steal_spec.t;
  mutable record : bool;
  registry : Loc.registry;
  mutable next_fid : int;
  mutable next_rid : int;
  mutable strand_counter : int;
  mutable spawn_counter : int;
  mutable dag_store : Dag.t option;
  accesses_log : access Dynarr.t;
  merges_log : merge_rec Dynarr.t;
  rreads_log : (int * int) Dynarr.t;
  aux_log : (Tool.frame_kind * int * int) Dynarr.t;
  spawn_log : (int * int * int) Dynarr.t;
  frames_log : (int * int * bool * Tool.frame_kind) Dynarr.t;
  reducer_merges :
    (ctx -> from_region:int -> into_region:int -> unit) Dynarr.t;
  (* frame stack *)
  mutable top : int; (* innermost live frame's depth; -1 when none *)
  mutable f_fid : int array;
  mutable f_kind : Tool.frame_kind array;
  mutable f_block : int array; (* sync block index *)
  mutable f_cont : int array; (* spawns since the last sync *)
  mutable f_steals : int array; (* steals in the current sync block *)
  mutable f_strand : int array; (* current strand (= dag vertex when recording) *)
  mutable f_rbase : int array; (* entry region's slot in the region stack *)
  (* region stack *)
  mutable rtop : int; (* number of open regions *)
  mutable r_id : int array;
  mutable r_tails : int list array;
  (* During a region merge: the dependency frontier feeding the next reduce
     strand (recording only). *)
  mutable pending_deps : int list;
  mutable in_merge : bool;
  mutable state : state;
  (* fault containment *)
  mutable contract_log : Fault.contract_violation list; (* newest first *)
  mutable max_local_seen : int; (* largest sync-block continuation index *)
  mutable max_depth_seen : int; (* deepest frame entered *)
  mutable event_count : int;
  mutable max_events : int option;
  mutable deadline : float option; (* absolute Unix time *)
  mutable clock : unit -> float; (* deadline timebase; virtualizable *)
  (* counters *)
  mutable c_frames : int;
  mutable c_spawns : int;
  mutable c_syncs : int;
  mutable c_steals : int;
  mutable c_reduce_calls : int;
  mutable c_reads : int;
  mutable c_writes : int;
  mutable c_reducer_reads : int;
  (* Online mode: when [Some ops], the DSL entry points dispatch to the
     installed work-stealing runtime instead of the serial interpreter.
     The serial path is untouched (one [None] branch per call). *)
  mutable online : online_ops option;
  contract_mu : Mutex.t; (* contract log guard; contended only online *)
  (* Span batching: consecutive same-frame same-view-awareness reads (or
     writes) coalesce into one pending run, dispatched as a single
     [Tool.read_span]/[write_span] at the next non-access event. Only
     when the tool stack allows it ([spans_on]); counters, logs and the
     event budget are still charged per access at accept time. *)
  mutable spans_on : bool;
  mutable pend_kind : int; (* 0 = none, 1 = read, 2 = write *)
  mutable pend_frame : int;
  mutable pend_va : bool;
  mutable pend_base : int;
  mutable pend_len : int;
  mutable pend_stride : int; (* meaningful once pend_len >= 2 *)
}

and ctx = { eng : t; fid : int; depth : int; ost : Obj.t }
(* A serial context names its frame by fid and stack slot and is valid
   only while that frame is innermost. [ost] is the online runtime's
   per-execution-segment state (opaque to the engine); online contexts
   carry fid = depth = -1, serial ones [no_ost]. *)

and online_ops = {
  oo_spawn : 'a. ctx -> (ctx -> 'a) -> 'a future;
  oo_get : 'a. ctx -> 'a future -> 'a;
  oo_sync : ctx -> unit;
  oo_call : 'a. ctx -> (ctx -> 'a) -> 'a;
  oo_run_aux : 'a. reducer:int -> ctx -> Tool.frame_kind -> (ctx -> 'a) -> 'a;
  oo_emit_read : ctx -> int -> unit;
  oo_emit_write : ctx -> int -> unit;
  oo_emit_reducer_read : ctx -> int -> unit;
  oo_register_reducer :
    merge:(ctx -> from_region:int -> into_region:int -> unit) -> int;
  oo_alloc_locs : label:string -> int -> int;
  oo_current_region : ctx -> int;
  oo_current_frame : ctx -> int;
  oo_view_find : ctx -> region:int -> reducer:int -> Obj.t option;
  oo_view_set : ctx -> region:int -> reducer:int -> Obj.t -> unit;
}

let no_ost = Obj.repr ()
let init_cap = 16

let create ?(tool = Tool.null) ?(spec = Steal_spec.none) ?(record = false)
    ?max_events ?deadline ?(clock = Unix.gettimeofday) () =
  {
    tool;
    spec;
    record;
    registry = Loc.registry ();
    next_fid = 0;
    next_rid = 1;
    strand_counter = 0;
    spawn_counter = 0;
    dag_store = (if record then Some (Dag.create ()) else None);
    accesses_log = Dynarr.create ();
    merges_log = Dynarr.create ();
    rreads_log = Dynarr.create ();
    aux_log = Dynarr.create ();
    spawn_log = Dynarr.create ();
    frames_log = Dynarr.create ();
    reducer_merges = Dynarr.create ();
    top = -1;
    f_fid = Array.make init_cap (-1);
    f_kind = Array.make init_cap Tool.User_fn;
    f_block = Array.make init_cap 0;
    f_cont = Array.make init_cap 0;
    f_steals = Array.make init_cap 0;
    f_strand = Array.make init_cap (-1);
    f_rbase = Array.make init_cap 0;
    rtop = 0;
    r_id = Array.make init_cap 0;
    r_tails = Array.make init_cap [];
    pending_deps = [];
    in_merge = false;
    state = Fresh;
    contract_log = [];
    max_local_seen = 0;
    max_depth_seen = 0;
    event_count = 0;
    max_events;
    deadline;
    clock;
    c_frames = 0;
    c_spawns = 0;
    c_syncs = 0;
    c_steals = 0;
    c_reduce_calls = 0;
    c_reads = 0;
    c_writes = 0;
    c_reducer_reads = 0;
    online = None;
    contract_mu = Mutex.create ();
    spans_on = Tool.spans_ok tool;
    pend_kind = 0;
    pend_frame = -1;
    pend_va = false;
    pend_base = 0;
    pend_len = 0;
    pend_stride = 0;
  }

let set_tool t tool =
  if t.state <> Fresh then err "Engine.set_tool: engine already running";
  t.tool <- tool;
  t.spans_on <- Tool.spans_ok tool

(* Recycle an engine for another run: every counter and log goes back to
   its [create] value, but the arenas behind the Dynarrs, the frame and
   region stacks and the location registry keep their grown backing
   stores. Equivalent to [create] with the same arguments — coverage
   sweeps lean on that equivalence to keep parallel and serial results
   byte-identical — while skipping the per-spec reallocation that
   dominates short runs. *)
let reset ?(tool = Tool.null) ?(spec = Steal_spec.none) ?(record = false)
    ?max_events ?deadline ?(clock = Unix.gettimeofday) t =
  if t.state = Running then err "Engine.reset: engine is running";
  t.tool <- tool;
  t.spec <- spec;
  t.record <- record;
  Loc.reset t.registry;
  t.next_fid <- 0;
  t.next_rid <- 1;
  t.strand_counter <- 0;
  t.spawn_counter <- 0;
  t.dag_store <- (if record then Some (Dag.create ()) else None);
  Dynarr.clear t.accesses_log;
  Dynarr.clear t.merges_log;
  Dynarr.clear t.rreads_log;
  Dynarr.clear t.aux_log;
  Dynarr.clear t.spawn_log;
  Dynarr.clear t.frames_log;
  Dynarr.clear t.reducer_merges;
  t.top <- -1;
  Array.fill t.f_fid 0 (Array.length t.f_fid) (-1);
  t.rtop <- 0;
  Array.fill t.r_tails 0 (Array.length t.r_tails) [];
  t.pending_deps <- [];
  t.in_merge <- false;
  t.state <- Fresh;
  t.contract_log <- [];
  t.max_local_seen <- 0;
  t.max_depth_seen <- 0;
  t.event_count <- 0;
  t.max_events <- max_events;
  t.deadline <- deadline;
  t.clock <- clock;
  t.c_frames <- 0;
  t.c_spawns <- 0;
  t.c_syncs <- 0;
  t.c_steals <- 0;
  t.c_reduce_calls <- 0;
  t.c_reads <- 0;
  t.c_writes <- 0;
  t.c_reducer_reads <- 0;
  t.online <- None;
  t.spans_on <- Tool.spans_ok tool;
  t.pend_kind <- 0

let dag_kind_of_frame_kind = function
  | Tool.User_fn -> Dag.User
  | Tool.Update_fn -> Dag.Update
  | Tool.Reduce_fn -> Dag.Reduce
  | Tool.Identity_fn -> Dag.Identity

(* Budget accounting: one event per strand start and per instrumented
   access. The clock is consulted at the first event — so a deadline that
   already expired at dispatch cancels the run before it does any work,
   keeping deadline-charged specs consistent across sweep job counts — and
   every 16 events thereafter (only deadline-bearing engines pay this; a
   service quota needs finer granularity than the historical 256). *)
let bump_event t =
  t.event_count <- t.event_count + 1;
  (match t.max_events with
  | Some m when t.event_count > m -> raise (Fault.Stop (Fault.Max_events m))
  | _ -> ());
  match t.deadline with
  | Some dl
    when (t.event_count land 0xf = 0 || t.event_count = 1) && t.clock () > dl
    ->
      raise (Fault.Stop (Fault.Deadline dl))
  | _ -> ()

(* Deliver the pending access run. Every coalesced access was already
   accepted — counted, logged and charged against the budget — so the
   flush is pure tool dispatch: a single-access run degrades to the plain
   per-access event. *)
let really_flush t =
  let k = t.pend_kind in
  t.pend_kind <- 0;
  if k = 1 then begin
    if t.pend_len = 1 then
      Tool.read t.tool ~frame:t.pend_frame ~loc:t.pend_base
        ~view_aware:t.pend_va
    else
      Tool.read_span t.tool ~frame:t.pend_frame ~base:t.pend_base
        ~len:t.pend_len ~stride:t.pend_stride ~view_aware:t.pend_va
  end
  else if t.pend_len = 1 then
    Tool.write t.tool ~frame:t.pend_frame ~loc:t.pend_base
      ~view_aware:t.pend_va
  else
    Tool.write_span t.tool ~frame:t.pend_frame ~base:t.pend_base
      ~len:t.pend_len ~stride:t.pend_stride ~view_aware:t.pend_va

let[@inline] flush_pend t = if t.pend_kind <> 0 then really_flush t

(* Allocate the next strand id. The dag vertex, when recording, is added
   separately by [record_strand], so unrecorded runs never build the
   predecessor lists. *)
let next_strand t =
  flush_pend t;
  bump_event t;
  let id = t.strand_counter in
  t.strand_counter <- id + 1;
  id

let record_strand t id ~frame ~kind ~view ~label ~preds =
  match t.dag_store with
  | None -> ()
  | Some dag ->
      let did = Dag.add_strand dag ~frame ~kind ~view ~label in
      assert (did = id);
      List.iter (fun p -> Dag.add_edge dag p id) (List.sort_uniq compare preds)

(* -------- frame and region stacks -------- *)

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let push_region t rid =
  let i = t.rtop in
  if i = Array.length t.r_id then begin
    t.r_id <- grow t.r_id 0;
    t.r_tails <- grow t.r_tails []
  end;
  t.r_id.(i) <- rid;
  if t.record then t.r_tails.(i) <- [];
  t.rtop <- i + 1

let[@inline] cur_region t = t.r_id.(t.rtop - 1)

(* Recording only: [s] completes before the innermost open region's next
   reduce (or sync). *)
let add_tail t s =
  let i = t.rtop - 1 in
  t.r_tails.(i) <- s :: t.r_tails.(i)

(* Push a frame entering region [entry_rid] as the new innermost frame and
   return its depth. *)
let push_frame t ~parent ~spawned ~kind ~entry_rid =
  let d = t.top + 1 in
  if d = Array.length t.f_fid then begin
    t.f_fid <- grow t.f_fid (-1);
    t.f_kind <- grow t.f_kind Tool.User_fn;
    t.f_block <- grow t.f_block 0;
    t.f_cont <- grow t.f_cont 0;
    t.f_steals <- grow t.f_steals 0;
    t.f_strand <- grow t.f_strand (-1);
    t.f_rbase <- grow t.f_rbase 0
  end;
  let fid = t.next_fid in
  t.next_fid <- fid + 1;
  t.c_frames <- t.c_frames + 1;
  if t.record then Dynarr.push t.frames_log (fid, parent, spawned, kind);
  t.f_fid.(d) <- fid;
  t.f_kind.(d) <- kind;
  t.f_block.(d) <- 0;
  t.f_cont.(d) <- 0;
  t.f_steals.(d) <- 0;
  t.f_strand.(d) <- -1;
  t.f_rbase.(d) <- t.rtop;
  push_region t entry_rid;
  t.top <- d;
  if d > t.max_depth_seen then t.max_depth_seen <- d;
  d

(* Pop the innermost frame [d], whose region stack is down to its entry
   region. [f_strand.(d)] stays readable until the next push. *)
let pop_frame t d =
  t.f_fid.(d) <- -1;
  t.rtop <- t.f_rbase.(d);
  t.top <- d - 1

let bad_ctx ctx =
  let t = ctx.eng in
  let d = ctx.depth in
  if d >= 0 && d <= t.top && t.f_fid.(d) = ctx.fid then
    err "Cilk context used while one of its frame's children is running"
  else err "Cilk context used outside its dynamic extent"

(* A serial context may touch frame state only while its frame is the
   innermost live one; fids never repeat, so a popped (or recycled) slot
   rejects the stale context. *)
let[@inline] check_ctx ctx =
  let t = ctx.eng in
  let d = ctx.depth in
  if d <> t.top || d < 0 || t.f_fid.(d) <> ctx.fid then bad_ctx ctx

let require_user ctx what =
  check_ctx ctx;
  if ctx.eng.f_kind.(ctx.depth) <> Tool.User_fn then
    err "%s is not allowed inside view-aware (update/reduce/identity) code" what

(* Merge the two topmost regions — the two most recently opened regions of
   [ctx]'s (innermost) frame: emit the reduce event (the SP+ P-bag
   pop/union point), then let every registered reducer fold its dominated
   view into the surviving one. *)
let merge_top_two ctx =
  let t = ctx.eng in
  assert (t.rtop - t.f_rbase.(ctx.depth) >= 2);
  let fi = t.rtop - 1 in
  let from_region = t.r_id.(fi) and into_region = t.r_id.(fi - 1) in
  t.rtop <- fi;
  flush_pend t;
  Tool.reduce t.tool ~frame:ctx.fid ~into_region ~from_region;
  if t.record then begin
    Dynarr.push t.merges_log
      { m_from = from_region; m_into = into_region; m_at = t.strand_counter };
    t.pending_deps <- List.rev_append t.r_tails.(fi) t.r_tails.(fi - 1)
  end;
  t.in_merge <- true;
  (* Index loop, not [Dynarr.iter], whose closure would be allocated per
     merge. The callback is bound first: [(Dynarr.get ms i) ctx ...]
     compiles to one over-application of [Dynarr.get], which builds a
     partial-application closure per argument (16 words per merge). *)
  for i = 0 to Dynarr.length t.reducer_merges - 1 do
    let merge = Dynarr.get t.reducer_merges i in
    merge ctx ~from_region ~into_region
  done;
  t.in_merge <- false;
  if t.record then begin
    t.r_tails.(fi - 1) <- t.pending_deps;
    t.pending_deps <- []
  end

(* Start frame [d]'s continuation strand, after [pred]. *)
let continue_strand t d ~pred =
  let s = next_strand t in
  t.f_strand.(d) <- s;
  if t.record then
    record_strand t s ~frame:t.f_fid.(d) ~kind:Dag.User ~view:(cur_region t)
      ~label:"cont" ~preds:[ pred ]

let do_sync ctx =
  let t = ctx.eng in
  require_user ctx "sync";
  let d = ctx.depth in
  if t.record then add_tail t t.f_strand.(d);
  while t.rtop - t.f_rbase.(d) > 1 do
    merge_top_two ctx
  done;
  flush_pend t;
  Tool.sync t.tool ~frame:ctx.fid;
  t.c_syncs <- t.c_syncs + 1;
  t.f_block.(d) <- t.f_block.(d) + 1;
  t.f_cont.(d) <- 0;
  t.f_steals.(d) <- 0;
  let s = next_strand t in
  t.f_strand.(d) <- s;
  if t.record then begin
    let base = t.rtop - 1 in
    let preds = t.r_tails.(base) in
    t.r_tails.(base) <- [];
    record_strand t s ~frame:ctx.fid ~kind:Dag.User ~view:t.r_id.(base)
      ~label:"sync" ~preds
  end

let sync ctx =
  match ctx.eng.online with Some o -> o.oo_sync ctx | None -> do_sync ctx

(* Run [f] as a child User_fn frame of [ctx]'s frame, which the caller has
   checked, and return its result. The child's last strand is left in its
   popped slot, [ctx.depth + 1]. One context serves the child's body and
   its implicit sync. *)
let run_child ctx ~spawned f =
  let t = ctx.eng in
  let entry_rid = cur_region t in
  let d = push_frame t ~parent:ctx.fid ~spawned ~kind:Tool.User_fn ~entry_rid in
  let fid = t.f_fid.(d) in
  flush_pend t;
  Tool.frame_enter t.tool ~frame:fid ~parent:ctx.fid ~spawned ~kind:Tool.User_fn;
  let s = next_strand t in
  t.f_strand.(d) <- s;
  if t.record then
    record_strand t s ~frame:fid ~kind:Dag.User ~view:entry_rid ~label:"enter"
      ~preds:[ t.f_strand.(ctx.depth) ];
  let c = { eng = t; fid; depth = d; ost = no_ost } in
  let result = f c in
  (* Cilk functions implicitly sync before returning. *)
  do_sync c;
  pop_frame t d;
  flush_pend t;
  Tool.frame_return t.tool ~frame:fid ~parent:ctx.fid ~spawned
    ~kind:Tool.User_fn;
  result

let serial_call ctx f =
  require_user ctx "call";
  let result = run_child ctx ~spawned:false f in
  (* Continuation after a call is in series with the child. *)
  let t = ctx.eng in
  continue_strand t ctx.depth ~pred:t.f_strand.(ctx.depth + 1);
  result

let call ctx f =
  match ctx.eng.online with Some o -> o.oo_call ctx f | None -> serial_call ctx f

let rec mem_int x = function [] -> false | y :: ys -> x = y || mem_int x ys

(* The steal decision for the continuation of spawn [spawn_index] in frame
   [d]. Structural shapes are decided by int tests; only the shapes without
   one build the [cont_info] record and call the spec's predicate. *)
let steals t d ~spawn_index ~local =
  let spec = t.spec in
  match spec.Steal_spec.shape with
  | Steal_spec.Never -> false
  | Steal_spec.Always -> true
  | Steal_spec.Local_indices idxs -> mem_int local idxs
  | Steal_spec.At_depth dd -> d = dd
  | Steal_spec.Probabilistic | Steal_spec.Spawn_indices _ | Steal_spec.Opaque ->
      spec.Steal_spec.steal
        {
          Steal_spec.spawn_index;
          frame = t.f_fid.(d);
          depth = d;
          local_index = local;
          sync_block = t.f_block.(d);
        }

let serial_spawn ctx f =
  let t = ctx.eng in
  require_user ctx "spawn";
  let d = ctx.depth in
  let spawn_strand = t.f_strand.(d) in
  let fut = { value = None; owner = ctx.fid; born_block = t.f_block.(d) } in
  fut.value <- Some (run_child ctx ~spawned:true f);
  (* The spawned child joins at the sync: its last strand feeds the tail
     set of the region it ran in. *)
  if t.record then add_tail t t.f_strand.(d + 1);
  t.c_spawns <- t.c_spawns + 1;
  let local = t.f_cont.(d) + 1 in
  t.f_cont.(d) <- local;
  if local > t.max_local_seen then t.max_local_seen <- local;
  let spawn_index = t.spawn_counter in
  t.spawn_counter <- spawn_index + 1;
  if steals t d ~spawn_index ~local then begin
    let ordinal = t.f_steals.(d) + 1 in
    t.f_steals.(d) <- ordinal;
    (* The stolen continuation closes the current region's segment: the
       spawn strand is the segment's last strand. *)
    if t.record then add_tail t spawn_strand;
    let k =
      Steal_spec.merges_before_steal t.spec ~steal_ordinal:ordinal
        ~n_open:(t.rtop - t.f_rbase.(d))
    in
    for _ = 1 to k do
      merge_top_two ctx
    done;
    let rid = t.next_rid in
    t.next_rid <- rid + 1;
    push_region t rid;
    flush_pend t;
    Tool.steal t.tool ~frame:ctx.fid ~region:rid;
    t.c_steals <- t.c_steals + 1
  end;
  (* Continuation after a spawn depends only on the spawn strand. *)
  continue_strand t d ~pred:spawn_strand;
  if t.record then
    Dynarr.push t.spawn_log (spawn_index, spawn_strand, t.f_strand.(d));
  fut

let spawn ctx f =
  match ctx.eng.online with
  | Some o -> o.oo_spawn ctx f
  | None -> serial_spawn ctx f

let serial_get ctx fut =
  check_ctx ctx;
  if ctx.fid <> fut.owner then
    err "future read from a frame other than the spawning one";
  if ctx.eng.f_block.(ctx.depth) <= fut.born_block then
    err "future read before sync (the spawned child may still be running)";
  match fut.value with Some v -> v | None -> err "future has no value"

let get ctx fut =
  match ctx.eng.online with Some o -> o.oo_get ctx fut | None -> serial_get ctx fut

(* Built from the dispatching [spawn]/[call]/[sync], so the same
   divide-and-conquer tree runs identically under the serial interpreter
   and the online work-stealing runtime. *)
let parallel_for ?(grain = 1) ctx ~lo ~hi body =
  if grain < 1 then invalid_arg "parallel_for: grain must be >= 1";
  if hi > lo then begin
    let rec go ctx lo0 hi0 =
      let lo = ref lo0 in
      while hi0 - !lo > grain do
        let mid = (!lo + hi0) / 2 in
        let l = !lo in
        ignore (spawn ctx (fun ctx -> go ctx l mid));
        lo := mid
      done;
      for i = !lo to hi0 - 1 do
        body ctx i
      done;
      sync ctx
    in
    call ctx (fun ctx -> go ctx lo hi)
  end

(* Flush this run's event counts into the current domain's observability
   counters — once per run, at completion or during contained unwinding,
   so the per-event cost of the layer stays zero. *)
let flush_obs t =
  if Obs.enabled () then
    Obs.note_engine_run ~events:t.event_count ~strands:t.strand_counter
      ~frames:t.c_frames ~spawns:t.c_spawns ~syncs:t.c_syncs ~steals:t.c_steals
      ~reduce_calls:t.c_reduce_calls ~reads:t.c_reads ~writes:t.c_writes
      ~reducer_reads:t.c_reducer_reads

let run t main =
  (match t.state with
  | Fresh -> ()
  | Running | Done -> err "Engine.run: engine values are single-use");
  t.state <- Running;
  let d = push_frame t ~parent:(-1) ~spawned:false ~kind:Tool.User_fn ~entry_rid:0 in
  let fid = t.f_fid.(d) in
  Tool.frame_enter t.tool ~frame:fid ~parent:(-1) ~spawned:false
    ~kind:Tool.User_fn;
  let s = next_strand t in
  t.f_strand.(d) <- s;
  if t.record then
    record_strand t s ~frame:fid ~kind:Dag.User ~view:0 ~label:"main" ~preds:[];
  let ctx = { eng = t; fid; depth = d; ost = no_ost } in
  let result = main ctx in
  do_sync ctx;
  pop_frame t d;
  flush_pend t;
  Tool.frame_return t.tool ~frame:fid ~parent:(-1) ~spawned:false
    ~kind:Tool.User_fn;
  t.state <- Done;
  flush_obs t;
  result

(* -------- fault containment -------- *)

let failure_origin t =
  let o_frame, o_kind, o_depth =
    if t.top < 0 then (-1, Tool.User_fn, 0)
    else (t.f_fid.(t.top), t.f_kind.(t.top), t.top)
  in
  {
    Fault.o_frame;
    o_kind;
    o_depth;
    o_strand = t.strand_counter - 1;
    o_spec = t.spec.Steal_spec.name;
  }

(* Unwind after a contained failure: kill every frame still on the stack
   (so a captured ctx cannot be used post-mortem), drop merge state, and
   retire the engine. Tool callbacks are NOT invoked during unwinding —
   attached detectors simply stop receiving events, leaving them holding
   their verdicts over the completed prefix. *)
let unwind t =
  (* Deliver any pending access run first: the coalesced accesses were
     accepted (counted, logged, budget-charged) before the failure, so the
     detectors must see them to hold verdicts over the exact completed
     prefix. *)
  flush_pend t;
  for d = t.top downto 0 do
    t.f_fid.(d) <- -1
  done;
  t.top <- -1;
  t.rtop <- 0;
  t.in_merge <- false;
  t.pending_deps <- [];
  t.state <- Done;
  flush_obs t

(* Mutex-guarded: online reducer self-checks report from worker domains. *)
let report_contract_violation t cv =
  Mutex.lock t.contract_mu;
  t.contract_log <- cv :: t.contract_log;
  Mutex.unlock t.contract_mu
let contract_violations t = List.rev t.contract_log

(* Post-run spec check: if the spec never fired and its shape names
   coordinates the program cannot reach, the caller got a silently serial
   run — surface that as a diagnostic rather than an empty report. *)
let spec_mismatch t =
  if t.c_steals > 0 then None
  else
    match
      Steal_spec.validate t.spec ~k:t.max_local_seen ~d:t.max_depth_seen
        ~n_spawns:t.spawn_counter
    with
    | Ok () -> None
    | Error reason -> Some reason

let run_result t main =
  match t.state with
  | Running | Done ->
      Error
        (Fault.Engine_invariant
           {
             what = "Engine.run_result: engine values are single-use";
             origin = failure_origin t;
           })
  | Fresh -> (
      match run t main with
      | result -> (
          match List.rev t.contract_log with
          | cv :: _ -> Error (Fault.Monoid_contract cv)
          | [] -> (
              match spec_mismatch t with
              | Some reason ->
                  Error
                    (Fault.Invalid_steal_spec
                       { spec = t.spec.Steal_spec.name; reason })
              | None -> Ok result))
      | exception Fault.Stop kind ->
          unwind t;
          Error (Fault.Budget_exceeded kind)
      | exception Cilk_error what ->
          let origin = failure_origin t in
          unwind t;
          Error (Fault.Engine_invariant { what; origin })
      | exception e ->
          let backtrace = Printexc.get_backtrace () in
          let origin = failure_origin t in
          unwind t;
          Error
            (Fault.User_program_exn
               { exn = Printexc.to_string e; backtrace; origin }))

(* -------- introspection -------- *)

let engine ctx = ctx.eng

let current_frame ctx =
  match ctx.eng.online with
  | Some o -> o.oo_current_frame ctx
  | None -> ctx.fid

let current_strand t = t.strand_counter - 1

let current_region ctx =
  match ctx.eng.online with
  | Some o -> o.oo_current_region ctx
  | None ->
      check_ctx ctx;
      cur_region ctx.eng

let stats t =
  {
    n_frames = t.c_frames;
    n_strands = t.strand_counter;
    n_spawns = t.c_spawns;
    n_syncs = t.c_syncs;
    n_steals = t.c_steals;
    n_reduce_calls = t.c_reduce_calls;
    n_reads = t.c_reads;
    n_writes = t.c_writes;
    n_reducer_reads = t.c_reducer_reads;
  }

let loc_registry t = t.registry
let loc_label t loc = Loc.label t.registry loc
let dag t = t.dag_store
let accesses t = Dynarr.to_list t.accesses_log
let merges t = Dynarr.to_list t.merges_log
let reducer_reads t = Dynarr.to_list t.rreads_log
let aux_frames t = Dynarr.to_list t.aux_log
let spawn_log t = Dynarr.to_list t.spawn_log
let frames t = Dynarr.to_list t.frames_log

(* -------- low-level hooks -------- *)

let alloc_locs t ~label n =
  match t.online with
  | Some o -> o.oo_alloc_locs ~label n
  | None -> Loc.alloc_range t.registry ~label n

(* One instrumented access of kind [k] (1 = read, 2 = write). *)
let serial_emit_access ctx k loc =
  let t = ctx.eng in
  check_ctx ctx;
  bump_event t;
  let fid = ctx.fid in
  let view_aware = t.f_kind.(ctx.depth) <> Tool.User_fn in
  (if t.spans_on then begin
     if t.pend_kind = k && t.pend_frame = fid && t.pend_va = view_aware
     then begin
       if t.pend_len = 1 then begin
         t.pend_stride <- loc - t.pend_base;
         t.pend_len <- 2
       end
       else if loc = t.pend_base + (t.pend_len * t.pend_stride) then
         t.pend_len <- t.pend_len + 1
       else begin
         really_flush t;
         t.pend_kind <- k;
         t.pend_frame <- fid;
         t.pend_va <- view_aware;
         t.pend_base <- loc;
         t.pend_len <- 1
       end
     end
     else begin
       flush_pend t;
       t.pend_kind <- k;
       t.pend_frame <- fid;
       t.pend_va <- view_aware;
       t.pend_base <- loc;
       t.pend_len <- 1
     end
   end
   else if k = 1 then Tool.read t.tool ~frame:fid ~loc ~view_aware
   else Tool.write t.tool ~frame:fid ~loc ~view_aware);
  if k = 1 then t.c_reads <- t.c_reads + 1 else t.c_writes <- t.c_writes + 1;
  if t.record then
    Dynarr.push t.accesses_log
      {
        a_loc = loc;
        a_strand = t.f_strand.(ctx.depth);
        a_frame = fid;
        a_is_write = k = 2;
        a_view_aware = view_aware;
      }

let emit_read ctx loc =
  match ctx.eng.online with
  | Some o -> o.oo_emit_read ctx loc
  | None -> serial_emit_access ctx 1 loc

let emit_write ctx loc =
  match ctx.eng.online with
  | Some o -> o.oo_emit_write ctx loc
  | None -> serial_emit_access ctx 2 loc

let serial_emit_reducer_read ctx reducer =
  let t = ctx.eng in
  require_user ctx "reducer read (create/get/set)";
  flush_pend t;
  Tool.reducer_read t.tool ~frame:ctx.fid ~reducer;
  t.c_reducer_reads <- t.c_reducer_reads + 1;
  if t.record then Dynarr.push t.rreads_log (reducer, t.f_strand.(ctx.depth))

let emit_reducer_read ctx reducer =
  match ctx.eng.online with
  | Some o -> o.oo_emit_reducer_read ctx reducer
  | None -> serial_emit_reducer_read ctx reducer

(* A view-aware frame runs exactly one strand: it can neither spawn nor
   sync, so its first strand is its last. *)
let serial_run_aux_frame ~reducer ctx kind f a =
  let t = ctx.eng in
  require_user ctx "reducer operation";
  (match kind with
  | Tool.User_fn -> invalid_arg "run_aux_frame: kind must be view-aware"
  | Tool.Update_fn | Tool.Reduce_fn | Tool.Identity_fn -> ());
  let entry_rid = cur_region t in
  let d = push_frame t ~parent:ctx.fid ~spawned:false ~kind ~entry_rid in
  let fid = t.f_fid.(d) in
  flush_pend t;
  Tool.frame_enter t.tool ~frame:fid ~parent:ctx.fid ~spawned:false ~kind;
  let in_reduce = kind = Tool.Reduce_fn && t.in_merge in
  let s = next_strand t in
  t.f_strand.(d) <- s;
  if t.record then begin
    record_strand t s ~frame:fid
      ~kind:(dag_kind_of_frame_kind kind)
      ~view:entry_rid
      ~label:(Tool.frame_kind_name kind)
      ~preds:(if in_reduce then t.pending_deps else [ t.f_strand.(ctx.depth) ]);
    Dynarr.push t.aux_log (kind, reducer, s)
  end;
  let result = f { eng = t; fid; depth = d; ost = no_ost } a in
  pop_frame t d;
  flush_pend t;
  Tool.frame_return t.tool ~frame:fid ~parent:ctx.fid ~spawned:false ~kind;
  if in_reduce then begin
    if t.record then t.pending_deps <- [ s ];
    t.c_reduce_calls <- t.c_reduce_calls + 1
  end
  else continue_strand t ctx.depth ~pred:s;
  result

let run_aux_frame ~reducer ctx kind f a =
  match ctx.eng.online with
  | Some o -> o.oo_run_aux ~reducer ctx kind (fun c -> f c a)
  | None -> serial_run_aux_frame ~reducer ctx kind f a

let register_reducer t ~merge =
  match t.online with
  | Some o -> o.oo_register_reducer ~merge
  | None ->
      let id = Dynarr.length t.reducer_merges in
      Dynarr.push t.reducer_merges merge;
      id

(* -------- online-runtime hooks (see Rader_sched.Online) -------- *)

(* The engine value doubles as the online run's shell: it owns the location
   registry and labels, the contract log and the reducer-merge dispatch,
   while every DSL entry point above forwards to the installed ops. The
   shell never enters [Running] state — the online runtime drives frames
   itself — so [loc_label], [contract_violations] and friends keep working
   on it after the run. *)

let set_online t ops =
  if t.state <> Fresh then err "Engine.set_online: engine already running";
  t.online <- Some ops

let clear_online t = t.online <- None
let is_online ctx = match ctx.eng.online with Some _ -> true | None -> false
let online_ctx t ost = { eng = t; fid = -1; depth = -1; ost }
let ctx_ost ctx = ctx.ost

let online_view_find ctx ~region ~reducer =
  match ctx.eng.online with
  | Some o -> o.oo_view_find ctx ~region ~reducer
  | None -> invalid_arg "Engine.online_view_find: not an online context"

let online_view_set ctx ~region ~reducer v =
  match ctx.eng.online with
  | Some o -> o.oo_view_set ctx ~region ~reducer v
  | None -> invalid_arg "Engine.online_view_set: not an online context"

let online_future_make ~owner ~born_block = { value = None; owner; born_block }
let online_future_fill fut v = fut.value <- Some v
let online_future_peek fut = fut.value
let future_owner fut = fut.owner
let future_born_block fut = fut.born_block

(* Serial raw registry access, bypassing the online dispatch — the online
   ops implement [oo_alloc_locs] with this under their own lock. *)
let raw_alloc_locs t ~label n = Loc.alloc_range t.registry ~label n
