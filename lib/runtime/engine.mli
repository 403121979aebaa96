(** The Cilk execution engine.

    Executes a fork-join program written against the DSL ({!spawn}, {!sync},
    {!call}, {!parallel_for}) {e serially in its depth-first serial order} —
    exactly the execution the Peer-Set, SP-bags and SP+ algorithms analyze —
    while:

    - calling the installed {!Tool.t} (the detector) at every
      parallel-control construct and instrumented memory access;
    - simulating the Cilk runtime's reducer-view management according to a
      {!Steal_spec.t}: a fresh view {e region} is opened at every stolen
      continuation, regions are merged by [Reduce] operations scheduled per
      the spec's reduce policy, and all regions of a sync block are merged
      back to the block's base region before the sync completes (view
      invariants 1–3 of paper §5);
    - optionally recording the run as a {!Tape}: one int per event, from
      which [Rader_core.Trace] recounts every id and rebuilds the
      {e performance dag} (user strands plus reduce strands and reduce-tree
      dependencies, paper §5) and the access trace, for the testing
      oracles, the static analyses and visualization.

    An engine value is single-use: create, configure, {!run} once, then
    query results.

    {2 Strand accounting}

    Strand ids count up from 0 (the root frame's first strand) in serial
    execution order. A new strand begins: when a frame is entered; when a
    frame returns (the parent's continuation strand); at every sync
    (explicit or the implicit one before each frame return); and at each
    runtime-invoked [Reduce] operation. The dag decoded from a recorded
    run numbers its vertices the same way. *)

exception Cilk_error of string
(** Raised on violations of Cilk discipline: spawning/syncing inside
    view-aware code, reading a spawn's result before the sync, misusing a
    context, or re-running an engine.

    {b The context rule.} A context is valid only while its frame is the
    innermost live frame: from the moment the frame is entered until it
    returns, excluding the extent of every child frame it calls or spawns
    (including the view-aware frames a reducer operation runs). [spawn],
    [call], [sync], [get], the emit hooks behind {!Cell} / {!Rarray} /
    {!Reducer}, {!run_aux_frame} and {!current_region} reject a context
    used outside its frame's extent, and a parent's context captured and
    used inside a child's body. *)

type t
type ctx
type 'a future

(** {1 Setup} *)

(** [create ()] makes a fresh engine.
    @param tool the detector callbacks; default {!Tool.null}.
    @param spec the steal specification; default [Steal_spec.none].
    @param record if true (default false), record the run's {!tape} for
    later decoding.
    @param max_events abort the run (as [Fault.Budget_exceeded]) once this
    many events — strand starts plus instrumented accesses — have
    happened. Budget interrupts are contained by {!run_result}; under the
    raising {!run} they escape as [Fault.Stop].
    @param deadline absolute time (per [clock]) after which the run is
    aborted — checked at the very first event (an already-expired deadline
    cancels the run before it does any work) and every 16 events
    thereafter.
    @param clock the deadline's timebase, default [Unix.gettimeofday].
    Overridable so tests can drive quota cancellation with a virtual clock
    (see [Rader_chaos.Chaos.Vclock]) instead of wall-clock sleeps. *)
val create :
  ?tool:Tool.t ->
  ?spec:Steal_spec.t ->
  ?record:bool ->
  ?max_events:int ->
  ?deadline:float ->
  ?clock:(unit -> float) ->
  unit ->
  t

(** [set_tool t tool] installs the tool; only allowed before [run], on an
    engine whose tool is still {!Tool.null}. An engine runs one tool: to
    observe events alongside a detector, build one record whose callbacks
    call both.
    @raise Cilk_error if the engine is running or already has a tool. *)
val set_tool : t -> Tool.t -> unit

(** [reset t] recycles the engine for another run: observationally
    equivalent to {!create} with the same arguments (all counters, the
    tape and the location registry go back to their initial values; the
    engine returns to the runnable state), but the grown arenas behind the
    internal stacks, the tape and the registry are kept, skipping per-run
    reallocation
    — the batching primitive behind the parallel coverage sweep, where one
    engine per worker domain replays hundreds of steal specifications.
    Contexts, futures and location ids obtained before the reset are
    dangling and must not be used. Like [create], the tool
    defaults to {!Tool.null}: pass [~tool] to keep a detector installed
    (and reset the detector itself, e.g. [Rader_core.Sp_plus.reset]).
    @raise Cilk_error if called while the engine is running. *)
val reset :
  ?tool:Tool.t ->
  ?spec:Steal_spec.t ->
  ?record:bool ->
  ?max_events:int ->
  ?deadline:float ->
  ?clock:(unit -> float) ->
  t ->
  unit

(** {1 Running} *)

(** [run t main] executes [main] as the root Cilk function and returns its
    result. @raise Cilk_error if the engine was already run. *)
val run : t -> (ctx -> 'a) -> 'a

(** [run_result t main] is the total variant of {!run}: the detection
    pipeline outlives the program under test. Any exception raised in a
    user strand or a view-aware (update / reduce / identity) auxiliary
    frame is caught, the frame and region stacks are unwound (every
    pending frame is killed so captured contexts cannot be reused), and
    the corresponding {!Fault.failure} is returned with frame / strand /
    spec context. Attached detectors stop receiving events at the failure
    point and remain queryable: the races they found over the completed
    prefix are still available from their handles alongside the returned
    diagnostic.

    Classification: budget interrupts ([max_events] / [deadline]) become
    [Budget_exceeded]; {!Cilk_error} discipline violations become
    [Engine_invariant]; sampled reducer self-check violations (recorded
    during the run) become [Monoid_contract]; a steal specification whose
    shape provably cannot fire on this program (and indeed never fired)
    becomes [Invalid_steal_spec]; everything else becomes
    [User_program_exn]. A successful, violation-free run returns [Ok].

    Never raises. *)
val run_result : t -> (ctx -> 'a) -> ('a, Fault.failure) result

(** {1 The DSL} *)

(** [spawn ctx f] spawns [f] as a child Cilk function: [f] may execute in
    parallel with the continuation. Its result is available through the
    future {e after the next sync}. *)
val spawn : ctx -> (ctx -> 'a) -> 'a future

(** [get ctx fut] is the spawned child's result.
    @raise Cilk_error if called before a sync in the spawning frame, or
    from a different frame. *)
val get : ctx -> 'a future -> 'a

(** [sync ctx] joins all children spawned by the current frame since its
    last sync. *)
val sync : ctx -> unit

(** [call ctx f] invokes [f] as a called (non-spawned) Cilk function and
    returns its result directly. *)
val call : ctx -> (ctx -> 'a) -> 'a

(** [parallel_for ctx ~lo ~hi body] runs [body i] for [lo <= i < hi] with
    all iterations logically parallel (divide-and-conquer, like
    [cilk_for]). [grain] (default 1) is the serial chunk size. *)
val parallel_for : ?grain:int -> ctx -> lo:int -> hi:int -> (ctx -> int -> unit) -> unit

(** {1 Introspection} *)

type stats = {
  n_frames : int;
  n_strands : int;
  n_spawns : int;
  n_syncs : int;
  n_steals : int;
  n_reduce_calls : int;  (** user [Reduce] invocations actually run *)
  n_reads : int;
  n_writes : int;
  n_reducer_reads : int;  (** reducer-reads (create / get / set value) *)
}

val engine : ctx -> t
val current_strand : t -> int

(** [current_region ctx] is the view region the current strand operates on
    (SP+'s view ID). *)
val current_region : ctx -> int

val stats : t -> stats
val loc_label : t -> int -> string

(** {1 Recording} *)

(** [tape t] is a copy of the {!Tape} entries recorded so far: the whole
    run after a successful one, the completed prefix after a contained
    failure. [None] unless the engine was created (or reset) with
    [~record:true]. Decode it with [Rader_core.Trace]. *)
val tape : t -> int array option

(** {1 Low-level hooks} — used by {!Cell}, {!Rarray} and {!Reducer}; not
    intended for end users. *)

val alloc_locs : t -> label:string -> int -> int
val emit_read : ctx -> int -> unit
val emit_write : ctx -> int -> unit
val emit_reducer_read : ctx -> int -> unit

(** [run_aux_frame ~reducer ctx kind f a] runs [f c a] as a view-aware
    auxiliary frame ([Update_fn], [Identity_fn] or [Reduce_fn]) of [ctx]'s
    frame, where [c] is the auxiliary frame's context, and returns its
    result. Passing the argument separately lets a reducer operation run
    without building a closure per call. [reducer] attributes the frame to
    a reducer id in the recorded {!tape}. *)
val run_aux_frame :
  reducer:int -> ctx -> Tool.frame_kind -> (ctx -> 'b -> 'a) -> 'b -> 'a

(** [report_contract_violation t cv] records a monoid-law violation found
    by a reducer self-check; surfaced by {!run_result} as
    [Fault.Monoid_contract] (never raises — the run continues). *)
val report_contract_violation : t -> Fault.contract_violation -> unit

(** [failure_origin t] is the current failure context (innermost live
    frame, last strand, spec name) — for diagnostics built outside the
    engine, e.g. reducer self-checks. *)
val failure_origin : t -> Fault.origin

(** [register_reducer t ~merge] registers a reducer's region-merge callback
    and returns the reducer's dense id. [merge] is invoked for every region
    merge with the surviving ([into_region]) and dying ([from_region])
    region ids; it must fold the reducer's [from] view (if any) into its
    [into] view, calling {!run_aux_frame} for any user code it runs. *)
val register_reducer :
  t -> merge:(ctx -> from_region:int -> into_region:int -> unit) -> int
