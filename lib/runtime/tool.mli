(** The instrumentation interface between the Cilk engine and race
    detectors.

    A {e tool} is what the engine dispatches events into at every
    parallel-control construct and every instrumented memory access — the
    OCaml analogue of Rader's compiler instrumentation (low-overhead
    annotations for control constructs, ThreadSanitizer hooks for memory
    accesses; paper §8). The event set and its discipline are unchanged
    from the seed:

    - [frame_enter]/[frame_return] are properly nested; the root frame
      (id 0, [parent = -1]) brackets the whole run.
    - [sync] fires for every explicit sync and for the implicit sync
      before each frame return (Cilk functions always sync before
      returning).
    - [steal] fires when a continuation designated by the steal
      specification begins executing on a fresh view/region.
    - [reduce] fires when the two most recently opened regions of the
      current sync block are merged — {e before} the [Reduce_fn] frames
      (zero or more, one per reducer holding views in both regions) run.
    - [read]/[write]/[reducer_read] carry the id of the frame performing
      the access; [view_aware] is true inside [Update_fn], [Reduce_fn]
      and [Identity_fn] frames.

    What changed is the representation: a tool is no longer a record of
    eight closures but a {e variant} naming one detector, so the
    per-event dispatch is a single match into flat detector state
    ({!Sp_hot}, {!Peer_hot}) instead of two indirect calls through a
    closure pair. An engine runs one tool. The old all-closures shape
    survives as {!hooks} behind the {!extern} constructor — the escape
    hatch for tests, tracers, the baseline detectors and the chaos
    harness, which composes SP+ with its fault injector by wrapping
    {!hooks_of} in one [Extern]. *)

(** Why a frame was created (re-exported from {!Frame_kind} so detector
    cores can match on kinds without depending on this module). *)
type frame_kind = Frame_kind.t =
  | User_fn  (** a spawned or called Cilk function *)
  | Update_fn  (** body of [Reducer.update] *)
  | Reduce_fn  (** a runtime-invoked [Reduce] operation *)
  | Identity_fn  (** a runtime-invoked [Create-Identity] *)

type hooks = {
  on_frame_enter : frame:int -> parent:int -> spawned:bool -> kind:frame_kind -> unit;
  on_frame_return : frame:int -> parent:int -> spawned:bool -> kind:frame_kind -> unit;
  on_sync : frame:int -> unit;
  on_steal : frame:int -> region:int -> unit;
  on_reduce : frame:int -> into_region:int -> from_region:int -> unit;
  on_read : frame:int -> loc:int -> view_aware:bool -> unit;
  on_write : frame:int -> loc:int -> view_aware:bool -> unit;
  on_reducer_read : frame:int -> reducer:int -> unit;
}
(** The seed's closure-record tool shape, kept as the [Extern] escape
    hatch. *)

(** The tool an engine dispatches to: nothing, one detector core, or
    one closure record. Build values with {!null}, {!sp_plus},
    {!peer_set} and {!extern}. *)
type t

(** [null] ignores every event — the "empty tool" baseline of Fig. 8. *)
val null : t

val sp_plus : Sp_hot.t -> t
val peer_set : Peer_hot.t -> t

(** [extern h] wraps a closure-record tool. *)
val extern : hooks -> t

(** [hooks_null] ignores every event; use [{ hooks_null with ... }] to
    build partial external tools. *)
val hooks_null : hooks

(** {2 Event dispatch} — used by the engine; one match per event. *)

val frame_enter :
  t -> frame:int -> parent:int -> spawned:bool -> kind:frame_kind -> unit

val frame_return :
  t -> frame:int -> parent:int -> spawned:bool -> kind:frame_kind -> unit

val sync : t -> frame:int -> unit
val steal : t -> frame:int -> region:int -> unit
val reduce : t -> frame:int -> into_region:int -> from_region:int -> unit
val read : t -> frame:int -> loc:int -> view_aware:bool -> unit
val write : t -> frame:int -> loc:int -> view_aware:bool -> unit
val reducer_read : t -> frame:int -> reducer:int -> unit

(** [read_span t ~frame ~base ~len ~stride ~view_aware] delivers the
    coalesced access run [base, base+stride, …] (length [len]); detectors
    process it in a tight loop, and an [Extern] arm (which the engine
    never batches for) falls back to per-access calls. *)
val read_span :
  t -> frame:int -> base:int -> len:int -> stride:int -> view_aware:bool -> unit

val write_span :
  t -> frame:int -> base:int -> len:int -> stride:int -> view_aware:bool -> unit

(** [spans_ok t] — may the engine batch consecutive same-strand accesses
    into span events for this tool? True for the two detectors; false
    for [Null] (the empty-tool baseline keeps the seed's per-access cost)
    and for [Extern] (external tools may observe event interleaving, e.g.
    the chaos harness counts events to pick an injection point). *)
val spans_ok : t -> bool

(** The all-closures view of a tool: every hook forwards to the variant
    dispatch. Used by the dispatch-parity tests to drive the same
    detector state through the seed's closure-record path, and by the
    chaos harness to put SP+ and its fault injector behind one
    [Extern]. *)
val hooks_of : t -> hooks

(** [is_view_aware_kind k] is true for [Update_fn], [Reduce_fn],
    [Identity_fn]. *)
val is_view_aware_kind : frame_kind -> bool

(** [frame_kind_name k] is a short printable name. *)
val frame_kind_name : frame_kind -> string
