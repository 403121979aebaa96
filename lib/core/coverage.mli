(** Exhaustive coverage via steal-specification enumeration (paper §7).

    A single SP+ run checks one schedule. For an {e ostensibly
    deterministic} program — fixed view-oblivious strands, semantically
    associative reducers — Theorems 6 and 7 show that
    [Θ(max{KD, K³})] steal specifications are necessary and [O(KD + K³)]
    sufficient to elicit {e every} possible view-aware strand, where [K]
    is the maximum number of continuations in a sync block and [D] the
    spawn depth. Rader's practical construction (§8) steals the same
    continuation positions in every sync block:

    - {e update strands}: one spec per continuation position (and one per
      depth), so each update site runs at least once on a freshly created
      view — [O(K + D)] specs covering the [Θ(M)] classes of Theorem 6;
    - {e reduce strands}: every reduce operation combines two adjacent
      subsequences [⟨a..b⟩ ⊗ ⟨b..c⟩] of a sync block's continuation
      sequence; stealing the triple [(a, b, c)] and scheduling the merge
      of the middle pair first elicits exactly that reduce strand —
      [O(K³)] specs (Theorem 7 shows [Ω(K³)] are necessary).

    [exhaustive_check] runs SP+ under the whole family and aggregates the
    races; together with one serial Peer-Set run this yields the paper's
    §7 coverage guarantee for races involving a view-oblivious strand. *)

type profile = {
  k : int;  (** max continuations (spawns) in any sync block *)
  d : int;  (** max spawn depth *)
  n_spawns : int;  (** total spawns in the serial execution *)
  k_rel : int;
      (** largest continuation position at which a steal can still be
          followed, within its sync block's dynamic extent, by an
          instrumented event (cell access, reducer-read, or view-aware
          auxiliary frame). A steal at a position beyond [k_rel] — in any
          block — provably leaves the replay identical to the no-steal
          one. [0] = no steal anywhere can perturb the analysis; in
          particular, a program that performs no reducer operation at all
          reports [k_rel = 0] (and [rel_depths = []]), pruning its whole
          family down to [Steal_spec.none]. *)
  rel_depths : int list;
      (** sorted spawn depths of frames owning at least one sync block
          with a perturbable position (see [k_rel]) — the depths at which
          an [at_depth] spec can matter *)
}

(** [profile program] measures [k], [d], the spawn count and the relevance
    coordinates ([k_rel], [rel_depths]) by recording [program] once under
    [Steal_spec.none] and folding over its tape, O(1) per entry. Total: if
    the program crashes, the maxima observed over the completed prefix are
    returned. *)
val profile : (Rader_runtime.Engine.ctx -> 'a) -> profile

(** [spec_relevant prof spec] is false only when every steal [spec] could
    perform provably lands after the last instrumented event of its sync
    block, making the replay's SP+ verdict byte-identical to
    [Steal_spec.none]'s (which [all_specs] always runs first):
    [Local_indices] whose indices all exceed [prof.k_rel], or [At_depth]
    at a depth outside [prof.rel_depths]. Unlocalizable shapes ([Always],
    [Probabilistic], [Spawn_indices], [Opaque]) are conservatively
    relevant. See DESIGN.md §10 for the soundness argument. *)
val spec_relevant : profile -> Rader_runtime.Steal_spec.t -> bool

(** [prune_specs prof specs] keeps the {!spec_relevant} specs. *)
val prune_specs :
  profile -> Rader_runtime.Steal_spec.t list -> Rader_runtime.Steal_spec.t list

(** [specs_for_updates ~k ~d] is the update-eliciting family. *)
val specs_for_updates : k:int -> d:int -> Rader_runtime.Steal_spec.t list

(** [specs_for_reductions ~k] is the reduce-eliciting family: singles,
    pairs (both fold directions) and middle-pair-first triples over
    continuation positions [1..k]. *)
val specs_for_reductions : k:int -> Rader_runtime.Steal_spec.t list

(** [all_specs ~k ~d] is the union (updates, reductions, and the no-steal
    spec). *)
val all_specs : k:int -> d:int -> Rader_runtime.Steal_spec.t list

(** {2 Symbolic no-steal scan}

    SP+ under [Steal_spec.none] has a closed form: no steal fires, every
    access carries view id 0, and the detector reports exactly the
    locations with two logically parallel accesses, at least one a write,
    whose {e later} endpoint is view-oblivious (the view-aware branch
    compares equal view ids and never fires; single-slot shadow retention
    is per-location complete because entries are only replaced by
    serially-later accesses and SP precedence is transitive). The scan
    recomputes that verdict from one recorded run with parse-tree Lemma-4
    queries — no replay, no detector. Together with {!spec_relevant}
    (every spec outside the residual set replays byte-identically to
    [none]) it lets {!exhaustive_check}[ ~scan] cover the whole
    §7 family with replays only for the no-steal witness and the residual
    specs — and with {e zero} replays when the scan is clean and the
    residual set empty. See DESIGN.md §14. *)

(** Why a location cannot race without steals, independently of the
    schedule. *)
type certificate =
  | No_parallel_pair  (** no two accesses are ever logically parallel *)
  | Parallel_reads_only  (** parallel accesses exist but none writes *)
  | Va_suppressed
      (** parallel write-pairs exist but each one's later endpoint is
          view-aware — only the residual replays can decide the stolen
          schedules *)

type loc_scan = {
  ls_loc : int;
  ls_first : int;
      (** earlier endpoint of the witness pair, an access index into the
          scanned trace (the first such pair in serial scan order — the
          minimality the witness table reports) *)
  ls_second : int;  (** later endpoint *)
  ls_always : bool;
      (** both endpoints view-oblivious: the pair executes, stays
          parallel, and fires the later-endpoint-oblivious check under
          {e every} spec of the family — racy on all of them (lint R006) *)
}

type scan = {
  scan_racy : loc_scan list;  (** no-steal-racy locations, ascending *)
  scan_clean : (int * certificate) list;  (** clean locations, ascending *)
  scan_truncated : bool;
      (** some location blew the pair budget: scan-based skip decisions
          are void (the sweep keeps the no-steal replay) *)
  scan_prof : profile Lazy.t;
      (** the scanned run's {!profile}, folded from its tape when first
          forced — what [exhaustive_check ~scan] uses instead of
          profiling again *)
}

(** [scan_trace trace] computes the symbolic no-steal verdict from a
    recorded [Steal_spec.none] trace, over its accesses grouped by
    location ({!Trace.by_loc}). [max_pairs] (default 100_000) bounds the
    per-location pair scan; blowing it sets [scan_truncated]. Each pair
    costs O(1): one comparison of the endpoints' Hebrew ranks in
    [Trace.index trace].
    @raise Invalid_argument if the trace has reduce frames. *)
val scan_trace : ?max_pairs:int -> Trace.t -> scan

(** [symbolic_scan program] records one no-steal run and scans it.
    [Error] if the program crashed (contained). *)
val symbolic_scan :
  ?max_pairs:int ->
  (Rader_runtime.Engine.ctx -> 'a) ->
  (scan, Diag.failure) result

type span = {
  span_spec : string;  (** steal-spec name this replay ran *)
  span_worker : int;  (** worker domain id (0-based) that ran it *)
  span_t0_us : float;  (** wall-clock start, microseconds *)
  span_t1_us : float;  (** wall-clock end, microseconds *)
}
(** One spec replay's wall-clock extent, for the Chrome-trace emitter:
    one complete-event span per replay, one trace thread per worker. *)

type obs_summary = {
  obs_counters : Rader_obs.Obs.counters;
      (** merged detector counters: the profiling run's delta (none under
          [~scan], whose profile is a fold) plus every replay's delta,
          summed in spec order — deterministic and equal
          to the serial run's counters for every job count *)
  obs_spans : span list;  (** replay spans in spec order *)
  obs_phases : (string * float) list;
      (** [(phase, seconds)] for the ["profile"], ["replay"] and ["merge"]
          phases of the sweep *)
}

type result = {
  prof : profile;
  n_specs : int;  (** size of the full spec family for this profile *)
  n_pruned : int;
      (** specs dropped by [~prune] as provably redundant (0 without it) *)
  n_skipped : int;
      (** specs the [~scan] fast path proved redundant without
          replaying (0 without it); includes [Steal_spec.none] itself when
          the scan proved the no-steal execution race-free *)
  n_run : int;  (** specs actually attempted (≤ [n_specs] under budgets) *)
  racy_locs : int list;  (** union over all runs, sorted *)
  reports : Report.t list;  (** deduplicated by location *)
  per_spec : (Rader_runtime.Steal_spec.t * int list) list;
      (** each attempted spec together with the racy locations it elicited
          (crashed runs report the prefix observed before the failure) *)
  incomplete : (string * Diag.failure) list;
      (** every spec whose run crashed or blew a budget — and every spec
          the sweep never reached — with its diagnostic; [("profile", f)]
          first if the profiling run itself crashed or blew a budget *)
  complete : bool;  (** [incomplete = []]: the §7 guarantee holds; when
      false the sweep is explicitly partial — "no races" only covers what
      actually ran *)
  obs : obs_summary option;
      (** counters, spans and phase timings — [Some] iff [with_obs] *)
}

(** [exhaustive_check program] runs SP+ on [program] under every spec in
    [all_specs] and aggregates. Total: a spec run that crashes or blows
    its budget is recorded in [incomplete] while the sweep continues, and
    the races it proved before failing still count.

    Each spec replay is independent (one engine, one detector, one
    verdict), so the sweep shards across OCaml 5 domains: [jobs] worker
    domains pull specs from a shared queue, each recycling one
    engine+detector pair ([Engine.reset] / [Sp_plus.reset]) across its
    replays, and the per-spec outcomes are merged {e in spec order} — so
    [reports] (order and dedup), [per_spec], [racy_locs] and [complete]
    are identical for every job count, and [jobs = 1] (the default, run
    inline with no domain spawned) reproduces the serial sweep exactly.
    Under a [deadline] with [jobs >= 2], {e which} specs end up charged to
    the deadline depends on timing; everything else stays deterministic.

    The family comes from one recorded no-steal run, profiled by a fold
    over its tape under the same [max_events] and [deadline] as the
    replays — or, under [~scan], from the scanned run's profile with no
    further run. A profiling run that crashes or blows a budget is
    contained: [("profile", f)] comes first in [incomplete], the family
    comes from the prefix's profile, and neither pruning nor the scan
    applies.

    @param max_specs attempt at most this many specs; the rest are
    recorded in [incomplete] as [Budget_exceeded (Max_specs _)].
    @param max_events per-run event budget (see [Engine.create]), the
    profiling run included.
    @param deadline wall-clock budget in seconds for the whole sweep
    (shared with each run's engine); once exhausted, remaining specs are
    recorded as [Budget_exceeded (Deadline _)] without running.
    @param jobs worker domains (default 1; [<= 0] means
    [Parallel_sweep.default_jobs ()]).
    @param with_obs enable {!Rader_obs.Obs} counters for the duration of
    the sweep (restoring the previous enabled state afterwards) and return
    an {!obs_summary} in [obs]: each replay's counter delta is captured on
    the worker that ran it and the deltas are summed in spec order, so the
    merged counters are byte-identical to a serial ([jobs = 1]) run's.
    @param prune drop the {e provably redundant} specs (see
    {!spec_relevant}) before sweeping: [racy_locs] and [reports] are
    byte-identical to the unpruned sweep's — enforced by property tests —
    while [n_run] shrinks by [n_pruned]. Pruned specs are {e not} recorded
    in [incomplete] (their verdicts are already covered by the no-steal
    replay). If the profiling run crashed, pruning is disabled for that
    sweep. Default false.
    @param scan the symbolic no-steal verdict of [program] (see
    {!scan_trace}; the caller records the run and scans it): replay
    {e only} the witness specs — the no-steal spec when the scan found
    (or, truncated, could have missed) a race, plus the residual relevant
    specs. [racy_locs] and [reports] stay byte-identical to the
    enumerated sweep — enforced by property tests — while skipped specs
    count in [n_skipped]. A clean scan over an empty residual set replays
    {e nothing}. Subsumes [~prune].
    @param reach precedence backend for the per-worker SP+ detectors
    (default [Dset]); verdicts are backend-independent, only the cost
    model changes. *)
val exhaustive_check :
  ?max_specs:int ->
  ?max_events:int ->
  ?deadline:float ->
  ?jobs:int ->
  ?with_obs:bool ->
  ?prune:bool ->
  ?scan:scan ->
  ?reach:Rader_reach.Reach.backend ->
  (Rader_runtime.Engine.ctx -> 'a) ->
  result

(** [witness_spec res loc] is a steal specification that elicits a race on
    [loc] (if one was found) — Rader's "repeat the run for regression
    tests" hook (§8): re-run SP+ under exactly this spec to reproduce. *)
val witness_spec : result -> int -> Rader_runtime.Steal_spec.t option
