module Dynarr = Rader_support.Dynarr
module Intvec = Rader_support.Intvec
module Loc = Rader_memory.Loc
module Obs = Rader_obs.Obs

exception Cilk_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Cilk_error s)) fmt

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

type 'a future = { mutable value : 'a option; owner : int; born_block : int }

(* Live frames are strictly nested in the serial execution, so a frame's
   depth is its slot in the [f_*] arrays (root = 0, innermost = [top]).
   A popped slot keeps its last strand ([f_strand]) for the parent to read
   and has its fid cleared to -1; fids never repeat within a run, so a
   context whose [fid] no longer matches its slot is dead for good.

   View regions form one stack for the whole engine: frame [d]'s open
   regions are [r_id.(f_rbase.(d)) .. r_id.(rtop - 1)] while it is
   innermost, its entry region (repeating the parent's current region id)
   at the bottom. Ids never decrease along the stack.

   Recording appends one {!Tape} entry per event to [tape] and nothing
   else: ids, the dag and every log are recounted from it by
   [Rader_core.Trace]. *)
type t = {
  mutable tool : Tool.t;
  mutable spec : Steal_spec.t;
  mutable record : bool;
  registry : Loc.registry;
  mutable next_fid : int;
  mutable next_rid : int;
  mutable strand_counter : int;
  mutable spawn_counter : int;
  tape : Intvec.t;
  reducer_merges :
    (ctx -> from_region:int -> into_region:int -> unit) Dynarr.t;
  (* frame stack *)
  mutable top : int; (* innermost live frame's depth; -1 when none *)
  mutable f_fid : int array;
  mutable f_kind : Tool.frame_kind array;
  mutable f_block : int array; (* sync block index *)
  mutable f_cont : int array; (* spawns since the last sync *)
  mutable f_steals : int array; (* steals in the current sync block *)
  mutable f_strand : int array; (* current strand *)
  mutable f_rbase : int array; (* entry region's slot in the region stack *)
  (* region stack *)
  mutable rtop : int; (* number of open regions *)
  mutable r_id : int array;
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
}

and ctx = { eng : t; fid : int; depth : int }
(* A context names its frame by fid and stack slot and is valid only
   while that frame is innermost. *)

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
    tape = Intvec.create ();
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
  }

(* An engine runs one tool: replacing an installed detector would leave
   it attached yet deaf, reporting nothing. *)
let set_tool t tool =
  if t.state <> Fresh then err "Engine.set_tool: engine already running";
  if t.tool != Tool.null then err "Engine.set_tool: a tool is already installed";
  t.tool <- tool

(* Recycle an engine for another run: every counter and the tape go back
   to their [create] values, but the arenas behind the Dynarrs, the frame and
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
  Intvec.clear t.tape;
  Dynarr.clear t.reducer_merges;
  t.top <- -1;
  Array.fill t.f_fid 0 (Array.length t.f_fid) (-1);
  t.rtop <- 0;
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
  t.c_reducer_reads <- 0

(* An entry with no argument is its tag. Callers whose entry takes
   computing test [t.record] themselves, so an unrecorded run computes no
   entry. *)
let[@inline] record t e = if t.record then Intvec.push t.tape e

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

(* Allocate the next strand id. The tape records no strand starts: the
   decoder recounts them from the entries around them. *)
let next_strand t =
  bump_event t;
  let id = t.strand_counter in
  t.strand_counter <- id + 1;
  id

(* -------- frame and region stacks -------- *)

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let push_region t rid =
  let i = t.rtop in
  if i = Array.length t.r_id then t.r_id <- grow t.r_id 0;
  t.r_id.(i) <- rid;
  t.rtop <- i + 1

let[@inline] cur_region t = t.r_id.(t.rtop - 1)

(* Push a frame entering region [entry_rid] as the new innermost frame,
   record its [enter] entry and return its depth. *)
let push_frame t ~spawned ~kind ~reducer ~entry_rid =
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
  if t.record then Intvec.push t.tape (Tape.enter_entry ~kind ~spawned ~reducer);
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
   region. [f_strand.(d)] stays readable until the next push. The caller
   records the [return] entry: a spawned frame's waits for the steal
   decision. *)
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

(* A context may touch frame state only while its frame is the
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
  t.tool.on_reduce ~frame:ctx.fid ~into_region ~from_region;
  record t Tape.merge;
  t.in_merge <- true;
  (* Index loop, not [Dynarr.iter], whose closure would be allocated per
     merge. The callback is bound first: [(Dynarr.get ms i) ctx ...]
     compiles to one over-application of [Dynarr.get], which builds a
     partial-application closure per argument (16 words per merge). *)
  for i = 0 to Dynarr.length t.reducer_merges - 1 do
    let merge = Dynarr.get t.reducer_merges i in
    merge ctx ~from_region ~into_region
  done;
  t.in_merge <- false

(* Start frame [d]'s continuation strand. *)
let continue_strand t d = t.f_strand.(d) <- next_strand t

let sync ctx =
  let t = ctx.eng in
  require_user ctx "sync";
  let d = ctx.depth in
  while t.rtop - t.f_rbase.(d) > 1 do
    merge_top_two ctx
  done;
  t.tool.on_sync ~frame:ctx.fid;
  record t Tape.sync;
  t.c_syncs <- t.c_syncs + 1;
  t.f_block.(d) <- t.f_block.(d) + 1;
  t.f_cont.(d) <- 0;
  t.f_steals.(d) <- 0;
  t.f_strand.(d) <- next_strand t

(* Run [f] as a child User_fn frame of [ctx]'s frame, which the caller has
   checked, and return its result. The child's last strand is left in its
   popped slot, [ctx.depth + 1]. One context serves the child's body and
   its implicit sync. *)
let run_child ctx ~spawned f =
  let t = ctx.eng in
  let entry_rid = cur_region t in
  let d =
    push_frame t ~spawned ~kind:Tool.User_fn ~reducer:(-1) ~entry_rid
  in
  let fid = t.f_fid.(d) in
  t.tool.on_frame_enter ~frame:fid ~parent:ctx.fid ~spawned ~kind:Tool.User_fn;
  t.f_strand.(d) <- next_strand t;
  let c = { eng = t; fid; depth = d } in
  let result = f c in
  (* Cilk functions implicitly sync before returning. *)
  sync c;
  pop_frame t d;
  t.tool.on_frame_return ~frame:fid ~parent:ctx.fid ~spawned ~kind:Tool.User_fn;
  result

let call ctx f =
  require_user ctx "call";
  let result = run_child ctx ~spawned:false f in
  let t = ctx.eng in
  record t Tape.return;
  continue_strand t ctx.depth;
  result

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

let spawn ctx f =
  let t = ctx.eng in
  require_user ctx "spawn";
  let d = ctx.depth in
  let fut = { value = None; owner = ctx.fid; born_block = t.f_block.(d) } in
  fut.value <- Some (run_child ctx ~spawned:true f);
  t.c_spawns <- t.c_spawns + 1;
  let local = t.f_cont.(d) + 1 in
  t.f_cont.(d) <- local;
  if local > t.max_local_seen then t.max_local_seen <- local;
  let spawn_index = t.spawn_counter in
  t.spawn_counter <- spawn_index + 1;
  let stolen = steals t d ~spawn_index ~local in
  (* The child's return entry carries the steal decision, ahead of the
     steal's merges. *)
  if t.record then Intvec.push t.tape (Tape.entry Tape.return (Bool.to_int stolen));
  if stolen then begin
    let ordinal = t.f_steals.(d) + 1 in
    t.f_steals.(d) <- ordinal;
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
    t.tool.on_steal ~frame:ctx.fid ~region:rid;
    record t Tape.steal;
    t.c_steals <- t.c_steals + 1
  end;
  continue_strand t d;
  fut

let get ctx fut =
  check_ctx ctx;
  if ctx.fid <> fut.owner then
    err "future read from a frame other than the spawning one";
  if ctx.eng.f_block.(ctx.depth) <= fut.born_block then
    err "future read before sync (the spawned child may still be running)";
  match fut.value with Some v -> v | None -> err "future has no value"

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
  let d =
    push_frame t ~spawned:false ~kind:Tool.User_fn ~reducer:(-1) ~entry_rid:0
  in
  let fid = t.f_fid.(d) in
  t.tool.on_frame_enter ~frame:fid ~parent:(-1) ~spawned:false ~kind:Tool.User_fn;
  t.f_strand.(d) <- next_strand t;
  let ctx = { eng = t; fid; depth = d } in
  let result = main ctx in
  sync ctx;
  pop_frame t d;
  record t Tape.return;
  t.tool.on_frame_return ~frame:fid ~parent:(-1) ~spawned:false ~kind:Tool.User_fn;
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
   retire the engine. The tape keeps the completed prefix. Tool
   callbacks are NOT invoked during unwinding — attached detectors simply
   stop receiving events, leaving them holding their verdicts over the
   completed prefix. *)
let unwind t =
  for d = t.top downto 0 do
    t.f_fid.(d) <- -1
  done;
  t.top <- -1;
  t.rtop <- 0;
  t.in_merge <- false;
  t.state <- Done;
  flush_obs t

let report_contract_violation t cv = t.contract_log <- cv :: t.contract_log

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

let current_strand t = t.strand_counter - 1

let current_region ctx =
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

let loc_label t loc = Loc.label t.registry loc
let tape t = if t.record then Some (Intvec.to_array t.tape) else None

(* -------- low-level hooks -------- *)

let alloc_locs t ~label n = Loc.alloc_range t.registry ~label n

(* One instrumented access, delivered to the tool as it is accepted. *)
let emit_access ctx ~write loc =
  let t = ctx.eng in
  check_ctx ctx;
  bump_event t;
  let frame = ctx.fid in
  let view_aware = t.f_kind.(ctx.depth) <> Tool.User_fn in
  if write then begin
    t.tool.on_write ~frame ~loc ~view_aware;
    t.c_writes <- t.c_writes + 1
  end
  else begin
    t.tool.on_read ~frame ~loc ~view_aware;
    t.c_reads <- t.c_reads + 1
  end;
  if t.record then Intvec.push t.tape (Tape.access_entry ~loc ~write)

let emit_read ctx loc = emit_access ctx ~write:false loc
let emit_write ctx loc = emit_access ctx ~write:true loc

let emit_reducer_read ctx reducer =
  let t = ctx.eng in
  require_user ctx "reducer read (create/get/set)";
  t.tool.on_reducer_read ~frame:ctx.fid ~reducer;
  t.c_reducer_reads <- t.c_reducer_reads + 1;
  if t.record then Intvec.push t.tape (Tape.entry Tape.reducer_read reducer)

(* A view-aware frame runs exactly one strand: it can neither spawn nor
   sync, so its first strand is its last. *)
let run_aux_frame ~reducer ctx kind f a =
  let t = ctx.eng in
  require_user ctx "reducer operation";
  (match kind with
  | Tool.User_fn -> invalid_arg "run_aux_frame: kind must be view-aware"
  | Tool.Update_fn | Tool.Reduce_fn | Tool.Identity_fn -> ());
  let entry_rid = cur_region t in
  let d = push_frame t ~spawned:false ~kind ~reducer ~entry_rid in
  let fid = t.f_fid.(d) in
  t.tool.on_frame_enter ~frame:fid ~parent:ctx.fid ~spawned:false ~kind;
  let in_reduce = kind = Tool.Reduce_fn && t.in_merge in
  t.f_strand.(d) <- next_strand t;
  let result = f { eng = t; fid; depth = d } a in
  pop_frame t d;
  record t Tape.return;
  t.tool.on_frame_return ~frame:fid ~parent:ctx.fid ~spawned:false ~kind;
  (* A reduce frame run by a merge has no continuation: the merge's next
     reduce, or the sync, follows it. *)
  if in_reduce then t.c_reduce_calls <- t.c_reduce_calls + 1
  else continue_strand t ctx.depth;
  result

let register_reducer t ~merge =
  let id = Dynarr.length t.reducer_merges in
  Dynarr.push t.reducer_merges merge;
  id
