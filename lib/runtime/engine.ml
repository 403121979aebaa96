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

(* One open view region of a sync block. [tails] (recording only) are the
   dag vertices whose completion the region's next reduce — or the sync —
   depends on: the last strand of each completed child spawned in the
   region, the last continuation strand of the region's segment, and the
   region's latest reduce strand. *)
type region_entry = { mutable rid : int; mutable tails : int list }

(* [fid]/[depth]/[kind]/[parent_fid] are mutable only so reduce/identity
   frame records can be recycled through [aux_pool]; user-facing code
   never observes a mutation (a frame is reinitialized only between
   lifetimes, while no ctx for it exists). *)
type frame = {
  mutable fid : int;
  mutable depth : int;
  mutable kind : Tool.frame_kind;
  spawned : bool;
  mutable parent_fid : int;
  mutable alive : bool;
  mutable sync_block : int;
  mutable local_cont_index : int; (* spawns since last sync *)
  mutable steals_in_block : int;
  regions : region_entry Dynarr.t; (* stack; bottom = entry region *)
  mutable cur_node : int; (* strand id (= dag vertex when recording) *)
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
  (* During a region merge: the dependency frontier feeding the next reduce
     strand (recording only). *)
  mutable pending_deps : int list;
  mutable in_merge : bool;
  mutable state : state;
  (* fault containment *)
  mutable active_frames : frame list; (* innermost first; live only *)
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
  (* Recycled reduce/identity frame records (each with its one-entry
     region stack). These frames are created by the steal/merge machinery
     itself — perfectly LIFO, gone before the merge returns — so reusing
     their records keeps steal-heavy runs from allocating two frame
     records plus a region stack per steal. Update frames are NOT pooled:
     they run arbitrary user code on the serial path, where the seed's
     stale-ctx detection (a dead frame stays dead) is kept intact. *)
  aux_pool : frame Dynarr.t;
  (* Recycled region entries: a steal pushes one, the matching reduce pops
     and discards it — pooling makes the steal branch allocation-free. *)
  region_pool : region_entry Dynarr.t;
}

and ctx = { eng : t; frame : frame; ost : Obj.t }
(* [ost] is the online runtime's per-execution-segment state (opaque to
   the engine); [online_dummy_frame] fills [frame] in online contexts so
   the record layout is shared. Serial contexts carry [no_ost]. *)

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
    pending_deps = [];
    in_merge = false;
    state = Fresh;
    active_frames = [];
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
    aux_pool = Dynarr.create ();
    region_pool = Dynarr.create ();
  }

let set_tool t tool =
  if t.state <> Fresh then err "Engine.set_tool: engine already running";
  t.tool <- tool;
  t.spans_on <- Tool.spans_ok tool

(* Recycle an engine for another run: every counter and log goes back to
   its [create] value, but the arenas behind the Dynarrs and the location
   registry keep their grown backing stores. Equivalent to [create] with
   the same arguments — coverage sweeps lean on that equivalence to keep
   parallel and serial results byte-identical — while skipping the
   per-spec reallocation that dominates short runs. *)
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
  t.pending_deps <- [];
  t.in_merge <- false;
  t.state <- Fresh;
  t.active_frames <- [];
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

(* Allocate the next strand id; add the dag vertex and its incoming edges
   when recording. *)
let new_strand t ~frame ~kind ~view ~label ~preds =
  flush_pend t;
  bump_event t;
  let id = t.strand_counter in
  t.strand_counter <- id + 1;
  (match t.dag_store with
  | None -> ()
  | Some dag ->
      let did = Dag.add_strand dag ~frame ~kind ~view ~label in
      assert (did = id);
      List.iter (fun p -> Dag.add_edge dag p id) (List.sort_uniq compare preds));
  id

let top_region fr = Dynarr.top fr.regions

let cur_region fr = (top_region fr).rid

let check_alive fr =
  if not fr.alive then err "Cilk context used outside its dynamic extent"

let require_user fr what =
  check_alive fr;
  if fr.kind <> Tool.User_fn then
    err "%s is not allowed inside view-aware (update/reduce/identity) code" what

(* Merge the two most recently opened regions of [ctx]'s frame: emit the
   reduce event (the SP+ P-bag pop/union point), then let every registered
   reducer fold its dominated view into the surviving one. *)
let merge_top_two ctx =
  let fr = ctx.frame in
  let t = ctx.eng in
  assert (Dynarr.length fr.regions >= 2);
  let from = Dynarr.pop fr.regions in
  let into = top_region fr in
  flush_pend t;
  Tool.reduce t.tool ~frame:fr.fid ~into_region:into.rid ~from_region:from.rid;
  if t.record then
    Dynarr.push t.merges_log
      { m_from = from.rid; m_into = into.rid; m_at = t.strand_counter };
  t.pending_deps <- List.rev_append from.tails into.tails;
  Dynarr.push t.region_pool from;
  t.in_merge <- true;
  (* index loop, not [Dynarr.iter]: merges run once per steal, and the
     iteration closure would otherwise be allocated on every one *)
  let from_region = from.rid and into_region = into.rid in
  for i = 0 to Dynarr.length t.reducer_merges - 1 do
    (Dynarr.get t.reducer_merges i) ctx ~from_region ~into_region
  done;
  t.in_merge <- false;
  into.tails <- t.pending_deps;
  t.pending_deps <- []

let do_sync ctx =
  let fr = ctx.frame in
  let t = ctx.eng in
  require_user fr "sync";
  let top = top_region fr in
  top.tails <- fr.cur_node :: top.tails;
  while Dynarr.length fr.regions > 1 do
    merge_top_two ctx
  done;
  flush_pend t;
  Tool.sync t.tool ~frame:fr.fid;
  t.c_syncs <- t.c_syncs + 1;
  fr.sync_block <- fr.sync_block + 1;
  fr.local_cont_index <- 0;
  fr.steals_in_block <- 0;
  let base = top_region fr in
  let preds = base.tails in
  base.tails <- [];
  fr.cur_node <-
    new_strand t ~frame:fr.fid ~kind:Dag.User ~view:base.rid ~label:"sync" ~preds

let sync ctx =
  match ctx.eng.online with Some o -> o.oo_sync ctx | None -> do_sync ctx

let fresh_frame t ~parent ~spawned ~kind ~entry_rid =
  let fid = t.next_fid in
  t.next_fid <- fid + 1;
  t.c_frames <- t.c_frames + 1;
  if t.record then
    Dynarr.push t.frames_log
      (fid, (match parent with Some p -> p.fid | None -> -1), spawned, kind);
  let regions = Dynarr.create () in
  Dynarr.push regions { rid = entry_rid; tails = [] };
  let depth = match parent with Some p -> p.depth + 1 | None -> 0 in
  if depth > t.max_depth_seen then t.max_depth_seen <- depth;
  {
    fid;
    depth;
    kind;
    spawned;
    parent_fid = (match parent with Some p -> p.fid | None -> -1);
    alive = true;
    sync_block = 0;
    local_cont_index = 0;
    steals_in_block = 0;
    regions;
    cur_node = -1;
  }

(* Run [f] as a child User_fn frame. Returns the child's result and the
   strand id of the child's final strand. *)
let run_child ctx ~spawned f =
  let t = ctx.eng in
  let pf = ctx.frame in
  require_user pf (if spawned then "spawn" else "call");
  let entry_rid = cur_region pf in
  let fr = fresh_frame t ~parent:(Some pf) ~spawned ~kind:Tool.User_fn ~entry_rid in
  t.active_frames <- fr :: t.active_frames;
  flush_pend t;
  Tool.frame_enter t.tool ~frame:fr.fid ~parent:pf.fid ~spawned
    ~kind:Tool.User_fn;
  fr.cur_node <-
    new_strand t ~frame:fr.fid ~kind:Dag.User ~view:entry_rid ~label:"enter"
      ~preds:[ pf.cur_node ];
  let result = f { eng = t; frame = fr; ost = no_ost } in
  (* Cilk functions implicitly sync before returning. *)
  do_sync { eng = t; frame = fr; ost = no_ost };
  fr.alive <- false;
  t.active_frames <- List.tl t.active_frames;
  flush_pend t;
  Tool.frame_return t.tool ~frame:fr.fid ~parent:pf.fid ~spawned
    ~kind:Tool.User_fn;
  (result, fr.cur_node)

let fr_continue t pf ~preds =
  pf.cur_node <-
    new_strand t ~frame:pf.fid ~kind:Dag.User ~view:(cur_region pf) ~label:"cont"
      ~preds

let serial_call ctx f =
  let t = ctx.eng in
  let pf = ctx.frame in
  let result, child_last = run_child ctx ~spawned:false f in
  (* Continuation after a call is in series with the child. *)
  fr_continue t pf ~preds:[ child_last ];
  result

let call ctx f =
  match ctx.eng.online with Some o -> o.oo_call ctx f | None -> serial_call ctx f

let serial_spawn ctx f =
  let t = ctx.eng in
  let pf = ctx.frame in
  let spawn_strand = pf.cur_node in
  let fut = { value = None; owner = pf.fid; born_block = pf.sync_block } in
  let result, child_last = run_child ctx ~spawned:true f in
  fut.value <- Some result;
  (* The spawned child joins at the sync: its last strand feeds the tail
     set of the region it ran in. *)
  (top_region pf).tails <- child_last :: (top_region pf).tails;
  t.c_spawns <- t.c_spawns + 1;
  pf.local_cont_index <- pf.local_cont_index + 1;
  if pf.local_cont_index > t.max_local_seen then
    t.max_local_seen <- pf.local_cont_index;
  let info =
    {
      Steal_spec.spawn_index = t.spawn_counter;
      frame = pf.fid;
      depth = pf.depth;
      local_index = pf.local_cont_index;
      sync_block = pf.sync_block;
    }
  in
  t.spawn_counter <- t.spawn_counter + 1;
  if t.spec.Steal_spec.steal info then begin
    pf.steals_in_block <- pf.steals_in_block + 1;
    (* The stolen continuation closes the current region's segment: the
       spawn strand is the segment's last strand. *)
    let top = top_region pf in
    top.tails <- spawn_strand :: top.tails;
    let n_open = Dynarr.length pf.regions in
    let k =
      Steal_spec.merges_before_steal t.spec ~steal_ordinal:pf.steals_in_block
        ~n_open
    in
    for _ = 1 to k do
      merge_top_two ctx
    done;
    let rid = t.next_rid in
    t.next_rid <- rid + 1;
    let entry =
      if Dynarr.is_empty t.region_pool then { rid; tails = [] }
      else begin
        let e = Dynarr.pop t.region_pool in
        e.rid <- rid;
        e.tails <- [];
        e
      end
    in
    Dynarr.push pf.regions entry;
    flush_pend t;
    Tool.steal t.tool ~frame:pf.fid ~region:rid;
    t.c_steals <- t.c_steals + 1
  end;
  (* Continuation after a spawn depends only on the spawn strand. *)
  fr_continue t pf ~preds:[ spawn_strand ];
  if t.record then
    Dynarr.push t.spawn_log (info.Steal_spec.spawn_index, spawn_strand, pf.cur_node);
  fut

let spawn ctx f =
  match ctx.eng.online with
  | Some o -> o.oo_spawn ctx f
  | None -> serial_spawn ctx f

let serial_get ctx fut =
  let fr = ctx.frame in
  check_alive fr;
  if fr.fid <> fut.owner then
    err "future read from a frame other than the spawning one";
  if fr.sync_block <= fut.born_block then
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
  let root = fresh_frame t ~parent:None ~spawned:false ~kind:Tool.User_fn ~entry_rid:0 in
  t.active_frames <- [ root ];
  Tool.frame_enter t.tool ~frame:root.fid ~parent:(-1) ~spawned:false
    ~kind:Tool.User_fn;
  root.cur_node <-
    new_strand t ~frame:root.fid ~kind:Dag.User ~view:0 ~label:"main" ~preds:[];
  let ctx = { eng = t; frame = root; ost = no_ost } in
  let result = main ctx in
  do_sync ctx;
  root.alive <- false;
  t.active_frames <- [];
  flush_pend t;
  Tool.frame_return t.tool ~frame:root.fid ~parent:(-1) ~spawned:false
    ~kind:Tool.User_fn;
  t.state <- Done;
  flush_obs t;
  result

(* -------- fault containment -------- *)

let failure_origin t =
  let o_frame, o_kind, o_depth =
    match t.active_frames with
    | [] -> (-1, Tool.User_fn, 0)
    | fr :: _ -> (fr.fid, fr.kind, fr.depth)
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
  List.iter (fun fr -> fr.alive <- false) t.active_frames;
  t.active_frames <- [];
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
  | None -> ctx.frame.fid

let current_strand t = t.strand_counter - 1

let current_region ctx =
  match ctx.eng.online with
  | Some o -> o.oo_current_region ctx
  | None -> cur_region ctx.frame

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

let serial_emit_read ctx loc =
  let fr = ctx.frame in
  let t = ctx.eng in
  check_alive fr;
  bump_event t;
  let view_aware = fr.kind <> Tool.User_fn in
  (if t.spans_on then begin
     if t.pend_kind = 1 && t.pend_frame = fr.fid && t.pend_va = view_aware
     then begin
       if t.pend_len = 1 then begin
         t.pend_stride <- loc - t.pend_base;
         t.pend_len <- 2
       end
       else if loc = t.pend_base + (t.pend_len * t.pend_stride) then
         t.pend_len <- t.pend_len + 1
       else begin
         really_flush t;
         t.pend_kind <- 1;
         t.pend_frame <- fr.fid;
         t.pend_va <- view_aware;
         t.pend_base <- loc;
         t.pend_len <- 1
       end
     end
     else begin
       flush_pend t;
       t.pend_kind <- 1;
       t.pend_frame <- fr.fid;
       t.pend_va <- view_aware;
       t.pend_base <- loc;
       t.pend_len <- 1
     end
   end
   else Tool.read t.tool ~frame:fr.fid ~loc ~view_aware);
  t.c_reads <- t.c_reads + 1;
  if t.record then
    Dynarr.push t.accesses_log
      {
        a_loc = loc;
        a_strand = fr.cur_node;
        a_frame = fr.fid;
        a_is_write = false;
        a_view_aware = view_aware;
      }

let emit_read ctx loc =
  match ctx.eng.online with
  | Some o -> o.oo_emit_read ctx loc
  | None -> serial_emit_read ctx loc

let serial_emit_write ctx loc =
  let fr = ctx.frame in
  let t = ctx.eng in
  check_alive fr;
  bump_event t;
  let view_aware = fr.kind <> Tool.User_fn in
  (if t.spans_on then begin
     if t.pend_kind = 2 && t.pend_frame = fr.fid && t.pend_va = view_aware
     then begin
       if t.pend_len = 1 then begin
         t.pend_stride <- loc - t.pend_base;
         t.pend_len <- 2
       end
       else if loc = t.pend_base + (t.pend_len * t.pend_stride) then
         t.pend_len <- t.pend_len + 1
       else begin
         really_flush t;
         t.pend_kind <- 2;
         t.pend_frame <- fr.fid;
         t.pend_va <- view_aware;
         t.pend_base <- loc;
         t.pend_len <- 1
       end
     end
     else begin
       flush_pend t;
       t.pend_kind <- 2;
       t.pend_frame <- fr.fid;
       t.pend_va <- view_aware;
       t.pend_base <- loc;
       t.pend_len <- 1
     end
   end
   else Tool.write t.tool ~frame:fr.fid ~loc ~view_aware);
  t.c_writes <- t.c_writes + 1;
  if t.record then
    Dynarr.push t.accesses_log
      {
        a_loc = loc;
        a_strand = fr.cur_node;
        a_frame = fr.fid;
        a_is_write = true;
        a_view_aware = view_aware;
      }

let emit_write ctx loc =
  match ctx.eng.online with
  | Some o -> o.oo_emit_write ctx loc
  | None -> serial_emit_write ctx loc

let serial_emit_reducer_read ctx reducer =
  let fr = ctx.frame in
  let t = ctx.eng in
  require_user fr "reducer read (create/get/set)";
  flush_pend t;
  Tool.reducer_read t.tool ~frame:fr.fid ~reducer;
  t.c_reducer_reads <- t.c_reducer_reads + 1;
  if t.record then Dynarr.push t.rreads_log (reducer, fr.cur_node)

let emit_reducer_read ctx reducer =
  match ctx.eng.online with
  | Some o -> o.oo_emit_reducer_read ctx reducer
  | None -> serial_emit_reducer_read ctx reducer

(* Acquire a frame for a runtime-invoked (reduce/identity) aux function,
   reusing a pooled record when one is available. The pooled frame's
   region stack already holds exactly one entry — aux frames cannot spawn,
   so they never push another. *)
let acquire_aux_frame t ~parent ~kind ~entry_rid =
  if Dynarr.is_empty t.aux_pool then
    fresh_frame t ~parent:(Some parent) ~spawned:false ~kind ~entry_rid
  else begin
    let fr = Dynarr.pop t.aux_pool in
    let fid = t.next_fid in
    t.next_fid <- fid + 1;
    t.c_frames <- t.c_frames + 1;
    if t.record then Dynarr.push t.frames_log (fid, parent.fid, false, kind);
    fr.fid <- fid;
    fr.depth <- parent.depth + 1;
    fr.kind <- kind;
    fr.parent_fid <- parent.fid;
    fr.alive <- true;
    fr.sync_block <- 0;
    fr.local_cont_index <- 0;
    fr.steals_in_block <- 0;
    (let e = Dynarr.top fr.regions in
     e.rid <- entry_rid;
     e.tails <- []);
    fr.cur_node <- -1;
    if fr.depth > t.max_depth_seen then t.max_depth_seen <- fr.depth;
    fr
  end

let serial_run_aux_frame ?(reducer = -1) ctx kind f =
  let t = ctx.eng in
  let pf = ctx.frame in
  require_user pf "reducer operation";
  (match kind with
  | Tool.User_fn -> invalid_arg "run_aux_frame: kind must be view-aware"
  | Tool.Update_fn | Tool.Reduce_fn | Tool.Identity_fn -> ());
  let entry_rid = cur_region pf in
  let fr =
    if kind = Tool.Update_fn then
      fresh_frame t ~parent:(Some pf) ~spawned:false ~kind ~entry_rid
    else acquire_aux_frame t ~parent:pf ~kind ~entry_rid
  in
  t.active_frames <- fr :: t.active_frames;
  flush_pend t;
  Tool.frame_enter t.tool ~frame:fr.fid ~parent:pf.fid ~spawned:false ~kind;
  let in_reduce = kind = Tool.Reduce_fn && t.in_merge in
  let preds = if in_reduce then t.pending_deps else [ pf.cur_node ] in
  fr.cur_node <-
    new_strand t ~frame:fr.fid
      ~kind:(dag_kind_of_frame_kind kind)
      ~view:entry_rid
      ~label:(Tool.frame_kind_name kind)
      ~preds;
  if t.record then Dynarr.push t.aux_log (kind, reducer, fr.cur_node);
  let result = f { eng = t; frame = fr; ost = no_ost } in
  fr.alive <- false;
  t.active_frames <- List.tl t.active_frames;
  flush_pend t;
  Tool.frame_return t.tool ~frame:fr.fid ~parent:pf.fid ~spawned:false ~kind;
  if in_reduce then begin
    t.pending_deps <- [ fr.cur_node ];
    t.c_reduce_calls <- t.c_reduce_calls + 1
  end
  else fr_continue t pf ~preds:[ fr.cur_node ];
  if kind <> Tool.Update_fn then Dynarr.push t.aux_pool fr;
  result

let run_aux_frame ?(reducer = -1) ctx kind f =
  match ctx.eng.online with
  | Some o -> o.oo_run_aux ~reducer ctx kind f
  | None -> serial_run_aux_frame ~reducer ctx kind f

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
let is_online ctx = ctx.eng.online <> None

(* A placeholder serial frame for online contexts: every dispatching entry
   point branches on [online] before touching [ctx.frame], so this record
   is never read. One shared value is fine — it is immutable in practice. *)
let online_dummy_frame =
  lazy
    (let regions = Dynarr.create () in
     Dynarr.push regions { rid = 0; tails = [] };
     {
       fid = -1;
       depth = 0;
       kind = Tool.User_fn;
       spawned = false;
       parent_fid = -1;
       alive = true;
       sync_block = 0;
       local_cont_index = 0;
       steals_in_block = 0;
       regions;
       cur_node = -1;
     })

let online_ctx t ost = { eng = t; frame = Lazy.force online_dummy_frame; ost }
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
