(** The instrumentation interface between the Cilk engine and race
    detectors.

    A {e tool} is the record of callbacks the engine calls at every
    parallel-control construct and every instrumented memory access — the
    OCaml analogue of Rader's compiler instrumentation (low-overhead
    annotations for control constructs, ThreadSanitizer hooks for memory
    accesses; paper §8). The event discipline:

    - [on_frame_enter]/[on_frame_return] are properly nested; the root
      frame (id 0, [parent = -1]) brackets the whole run.
    - [on_sync] fires for every explicit sync and for the implicit sync
      before each frame return (Cilk functions always sync before
      returning).
    - [on_steal] fires when a continuation designated by the steal
      specification begins executing on a fresh view/region.
    - [on_reduce] fires when the two most recently opened regions of the
      current sync block are merged — {e before} the [Reduce_fn] frames
      (zero or more, one per reducer holding views in both regions) run.
    - [on_read]/[on_write]/[on_reducer_read] carry the id of the frame
      performing the access; [view_aware] is true inside [Update_fn],
      [Reduce_fn] and [Identity_fn] frames. Each access is delivered as
      the engine accepts it.

    An engine runs one tool and makes one call per event. A detector
    builds its record once ([Rader_core.Sp_plus.tool]); a tool that
    observes a few events overrides {!null}: [{ Tool.null with on_sync }].
    Two tools compose by a record whose callbacks call both. *)

(** Why a frame was created. *)
type frame_kind =
  | User_fn  (** a spawned or called Cilk function *)
  | Update_fn  (** body of [Reducer.update] *)
  | Reduce_fn  (** a runtime-invoked [Reduce] operation *)
  | Identity_fn  (** a runtime-invoked [Create-Identity] *)

type t = {
  on_frame_enter : frame:int -> parent:int -> spawned:bool -> kind:frame_kind -> unit;
  on_frame_return : frame:int -> parent:int -> spawned:bool -> kind:frame_kind -> unit;
  on_sync : frame:int -> unit;
  on_steal : frame:int -> region:int -> unit;
  on_reduce : frame:int -> into_region:int -> from_region:int -> unit;
  on_read : frame:int -> loc:int -> view_aware:bool -> unit;
  on_write : frame:int -> loc:int -> view_aware:bool -> unit;
  on_reducer_read : frame:int -> reducer:int -> unit;
}

(** [null] ignores every event — the "empty tool" baseline of Fig. 8. *)
val null : t

(** [frame_kind_name k] is a short printable name. *)
val frame_kind_name : frame_kind -> string
