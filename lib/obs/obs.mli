(** Observability: detector-wide operation counters and phase timers.

    The paper's headline results are complexity bounds — Peer-Set runs in
    [O(T α(x,x))] (Theorem 4) and SP+ in [O((T + Mτ) α(v,v))] (Theorem 5)
    — whose dominant terms are disjoint-set and shadow-space operations.
    This module counts exactly those operations so the bounds can be
    measured and regression-tested (see [test/test_complexity.ml] and the
    bench harness's S6 table) instead of trusted.

    {2 Model}

    Counting is process-wide gated by {!set_enabled} and accumulated into
    one {!counters} record {e per domain} (domain-local storage). Off —
    the default — every instrumentation site costs one load-and-branch.
    On, sites pay a domain-local lookup plus a field increment.

    Parallel sweeps make per-replay deltas with {!snapshot} / {!since} and
    sum them in task order, which keeps merged counters byte-identical to
    a serial run (each replay's work is deterministic; addition is
    order-independent; the order is fixed anyway). *)

type counters = {
  mutable engine_runs : int;  (** completed (or contained) engine runs *)
  mutable events : int;  (** strand starts + instrumented accesses *)
  mutable strands : int;
  mutable frames : int;
  mutable spawns : int;
  mutable syncs : int;
  mutable steals : int;  (** simulated steals (spec-elicited regions) *)
  mutable reduce_calls : int;  (** user [Reduce] bodies actually run *)
  mutable reads : int;
  mutable writes : int;
  mutable reducer_reads : int;
  mutable dset_adds : int;
  mutable dset_finds : int;
  mutable dset_unions : int;
  mutable dset_compress_steps : int;
      (** parent pointers rewritten by path compression — the amortized
          α-term made visible *)
  mutable bag_makes : int;
  mutable bag_unions : int;
  mutable bag_finds : int;
  mutable shadow_lookups : int;
  mutable shadow_updates : int;
  mutable peerset_queries : int;  (** Peer-Set reducer-read checks *)
  mutable reach_fp_queries : int;
      (** precedence queries answered by the fingerprint (depa) backend *)
  mutable reach_fp_words : int;
      (** fingerprint words compared — the worst-case O(⌈depth/w⌉) term *)
  mutable reach_epoch_ops : int;
      (** view-epoch bookkeeping: records at frame return plus survivor
          binary-search steps at query time *)
}

val zero : unit -> counters
val copy : counters -> counters

(** [add ~into c] accumulates [c] into [into], field-wise. *)
val add : into:counters -> counters -> unit

(** [diff a b] is [a - b], field-wise. *)
val diff : counters -> counters -> counters

val equal : counters -> counters -> bool
val is_zero : counters -> bool

(** [to_assoc c] is every counter as [(name, value)] in a stable order —
    the names are schema keys (never renamed, only added). *)
val to_assoc : counters -> (string * int) list

(** Aggregates used by the cost-model checks: total disjoint-set work
    (finds + unions + compression steps), shadow-space work, bag work. *)
val dset_ops : counters -> int

val shadow_ops : counters -> int
val bag_ops : counters -> int

(** Fingerprint-backend work: words compared plus epoch bookkeeping — the
    depa-backend analogue of {!dset_ops}[ + ]{!bag_ops}. *)
val reach_ops : counters -> int

(** {1 Enabling and reading} *)

(** [enabled ()] is the process-wide flag instrumentation sites check
    before bumping. Reading it is the entire off-cost of the layer. *)
val enabled : unit -> bool

(** [set_enabled b] flips counting on or off for {e every} domain. Set it
    before spawning worker domains; workers observe the value at their
    first instrumented operation. *)
val set_enabled : bool -> unit

(** [cur ()] is the calling domain's live counters record. *)
val cur : unit -> counters

(** [snapshot ()] is a copy of the calling domain's counters. *)
val snapshot : unit -> counters

(** [since snap] is what the calling domain accumulated after [snap] was
    taken. *)
val since : counters -> counters

(** [with_enabled f] runs [f] with counting on (restoring the previous
    flag afterwards, exceptions included) and returns [f ()] together
    with the calling domain's delta over the call. *)
val with_enabled : (unit -> 'a) -> 'a * counters

(** {1 Instrumentation sites} — called by the substrates, only under
    {!enabled}. *)

val bump_dset_add : unit -> unit
val bump_dset_find : compress_steps:int -> unit
val bump_dset_union : unit -> unit
val bump_bag_make : unit -> unit
val bump_bag_union : unit -> unit
val bump_bag_find : unit -> unit
val bump_shadow_lookup : unit -> unit
val bump_shadow_update : unit -> unit
val bump_peerset_query : unit -> unit

(** One fingerprint precedence query that compared [words] words. *)
val bump_reach_query : words:int -> unit

(** [steps] view-epoch operations (records or survivor-search steps). *)
val bump_reach_epoch : steps:int -> unit

(** [note_engine_run ...] flushes one whole engine run's event counts
    (the engine already maintains them for [Engine.stats], so per-event
    cost stays zero). Called by the engine at run completion and during
    contained unwinding. *)
val note_engine_run :
  events:int ->
  strands:int ->
  frames:int ->
  spawns:int ->
  syncs:int ->
  steals:int ->
  reduce_calls:int ->
  reads:int ->
  writes:int ->
  reducer_reads:int ->
  unit

(** {1 Rendering} *)

(** [to_table_string c] is a two-column human-readable table body. *)
val to_table_string : counters -> string

(** [to_json_string c] is the counters as one flat JSON object (stable
    keys, suitable for embedding). *)
val to_json_string : counters -> string

(** {1 Clock and phase timers} *)

(** [now_us ()] is a wall-clock timestamp in microseconds — the shared
    timebase of phase timers and Chrome-trace spans. *)
val now_us : unit -> float

type phase

(** [phase name] is a fresh accumulating timer. *)
val phase : string -> phase

(** [timed p f] runs [f], charging its wall time to [p] (exceptions
    included). *)
val timed : phase -> (unit -> 'a) -> 'a

val phase_name : phase -> string
val phase_seconds : phase -> float
