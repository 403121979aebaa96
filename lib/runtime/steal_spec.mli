(** Steal specifications (paper §5, §8).

    The SP+ algorithm takes a {e steal specification} that removes the
    nondeterminism in the Cilk runtime's reducer management: it fixes which
    continuations are stolen (each steal starts a fresh view/region) and
    which [Reduce] operations execute when (the shape and timing of the
    reduce tree in every sync block). The engine executes the computation
    serially, consulting the specification at every spawn continuation.

    {2 Continuation identity}

    A continuation is the program point just after a [spawn]. Because
    view-aware code (update/reduce/identity bodies) is required to be serial
    (paper §5), the view-oblivious control flow — and hence the sequence of
    spawns — of an ostensibly deterministic program is identical in every
    execution, so continuations are identified stably by their global spawn
    ordinal together with structural coordinates. *)

type cont_info = {
  spawn_index : int;  (** global ordinal of the spawn, in serial order *)
  frame : int;  (** id of the function instantiation performing the spawn *)
  depth : int;  (** spawn depth of that frame (root = 0) *)
  local_index : int;
      (** 1-based index of this continuation within the frame's current sync
          block (resets at each sync) — the paper's "continuation in a sync
          block" coordinate *)
  sync_block : int;  (** 0-based index of the frame's current sync block *)
}

(** When the reduce operations of a sync block execute, expressed in
    "merge the two most recently opened regions" steps (see DESIGN.md: any
    binary reduce tree over the region sequence of a sync block can be
    realized this way by choosing when each merge runs). *)
type reduce_policy =
  | Reduce_at_sync
      (** no merges until the sync, then fold the open regions right-to-left:
          the right-leaning tree [r0 ⊗ (r1 ⊗ (... ⊗ rm))] *)
  | Reduce_eagerly
      (** collapse all open regions at every steal boundary: the left-leaning
          tree [((r0 ⊗ r1) ⊗ r2) ⊗ ...] with reduces as early as possible —
          how an actual Cilk runtime reduces when every stolen child returns
          before the next steal *)
  | Reduce_schedule of (int -> int)
      (** [f k] = number of merges to run just before steal number [k]
          (1-based within the sync block) pushes its region; remaining merges
          run at the sync. Lets coverage elicit any particular reduce strand. *)

(** Structural summary of which continuations a specification steals —
    what {!validate} checks against a program profile. Constructors of
    this module fill it in; a hand-rolled spec is {!Opaque} (never
    rejected). *)
type shape =
  | Never  (** steals nothing *)
  | Always  (** steals everything *)
  | Probabilistic  (** {!random} — any continuation may or may not fire *)
  | Local_indices of int list  (** {!at_local_indices} *)
  | At_depth of int  (** {!at_depth} *)
  | Spawn_indices of int list  (** {!by_spawn_index} *)
  | Opaque  (** unknown predicate; not validatable *)

(** Private, so a spec's [shape] always comes from the constructor that
    built its [steal]: the engine decides the structural shapes from
    [shape] alone and calls [steal] only for {!Probabilistic},
    {!Spawn_indices} and {!Opaque}. *)
type t = private {
  name : string;  (** for reports and bench tables *)
  steal : cont_info -> bool;  (** is this continuation stolen? *)
  policy : reduce_policy;
  shape : shape;  (** structural summary for validation *)
}

(** [none] steals nothing: the pure serial execution (the "No steals"
    configuration of paper Fig. 7). Reduce never runs. *)
val none : t

(** [all ?policy ()] steals every continuation — the maximal-views schedule
    (every spawn behaves as if its parent were stolen). *)
val all : ?policy:reduce_policy -> unit -> t

(** [random ?policy ~seed ~density ()] steals each continuation
    independently with probability [density], deterministically derived
    from [seed] and the continuation's spawn ordinal (so the same spec
    value always names the same schedule) — the paper's "a random seed …
    points are chosen randomly" mode.
    @raise Invalid_argument unless [0 <= density <= 1] (NaN included). *)
val random : ?policy:reduce_policy -> seed:int -> density:float -> unit -> t

(** [at_local_indices ?policy idxs] steals exactly the continuations whose
    1-based index within their sync block is in [idxs] — the paper's
    "specifying which three continuations to steal in a sync block". *)
val at_local_indices : ?policy:reduce_policy -> int list -> t

(** [at_depth ?policy d] steals every continuation executed by frames at
    spawn depth [d] — the "steals at continuation depth" mode used for the
    Check-updates configuration in §8. *)
val at_depth : ?policy:reduce_policy -> int -> t

(** [by_spawn_index ?policy ?name idxs] steals the continuations with the
    given global spawn ordinals. *)
val by_spawn_index : ?policy:reduce_policy -> ?name:string -> int list -> t

(** [with_name t name] relabels a spec. *)
val with_name : t -> string -> t

(** [opaque ~name steal] wraps an arbitrary predicate ({!Opaque} shape,
    exempt from validation). *)
val opaque : ?policy:reduce_policy -> name:string -> (cont_info -> bool) -> t

(** [validate t ~k ~d ~n_spawns] checks the spec's {!shape} against a
    program profile (max continuations per sync block [k], max spawn
    depth [d], total spawns): [Error reason] if the spec names
    continuation indices beyond [K], a depth beyond [D], or spawn
    ordinals the program never reaches — i.e. the spec can never fire and
    the run silently degenerates to the serial schedule.
    [Never]/[Always]/[Probabilistic]/[Opaque] shapes always validate. *)
val validate : t -> k:int -> d:int -> n_spawns:int -> (unit, string) result

(** [merges_before_steal t ~steal_ordinal ~n_open] is how many top-two
    region merges the engine must perform immediately before pushing the
    region of steal [steal_ordinal] (1-based in its sync block) when
    [n_open] regions are currently open. Always within [0, n_open - 1]. *)
val merges_before_steal : t -> steal_ordinal:int -> n_open:int -> int

(** [parse ~seed ~density s] is the CLI / wire syntax for specs:
    ["none"], ["all"], ["random"] (derived from [seed] and [density]), or
    a comma-separated list of 1-based sync-block continuation indices
    (parsed as {!at_local_indices} with [Reduce_eagerly]). Total — the
    serve daemon feeds it untrusted request fields: ["random"] with a
    density outside [[0, 1]], or NaN, is an [Error]. *)
val parse : seed:int -> density:float -> string -> (t, string) result
