(** On-the-fly race detection on a real work-stealing runtime.

    [Wsim] simulates work stealing over a {e recorded} dag; this module
    actually runs the DSL program on OCaml 5 domains. Each worker owns a
    Chase-Lev deque ({!Rader_support.Ws_deque}); spawns are implemented
    with effect handlers (the spawning frame's continuation is captured,
    published as a stealable task, and the child runs first — Cilk's
    child-first discipline), and syncs park the frame until its last
    outstanding child pushes the resumption.

    {2 Structural steals}

    Which continuations count as {e stolen} — i.e. run in a freshly
    created view region, exactly as if a thief had taken them — is decided
    at spawn time by a seeded hash of the spawning frame's fork path and
    the spawn's per-frame ordinal against [density]. The steal {e set} is
    therefore a pure function of (program, seed, density): task placement
    across workers stays timing-nondeterministic, but the SP-tree
    structure the detector sees, the resulting steal trace
    ({!Rader_core.Steal_trace}) and the verdict are identical for every
    worker count and every rerun — the property the determinism tests
    pin down, and what makes each online run serially replayable.

    {2 Detection}

    Every instrumented access is captured as an immutable structural
    coordinate ({!Rader_reach.Reach.Fp.point}) and checked against a
    lock-striped shadow space keeping, per location, the serially-last
    writer and the serially-least and -greatest readers (the SP-order
    retention argument makes the racy-location set independent of arrival
    order). Precedence queries go to the fingerprint oracle
    ([Reach.Fp.relate]) — queries mutate nothing, so workers race with
    nothing (the serially anchored [dset] bags are replay-only). The SP+
    view rule compares the earlier point's surviving region (the LCA
    child-edge entry region — exact under the at-sync reduce policy this
    runtime implements) with the later point's region; the Peer-Set rule
    flags reducer-reads that are structurally parallel or carry different
    serial spawn counts (Lemma 3's peer-set key, recorded per read — a
    sound under-approximation of bag membership). Accesses
    inside [Reduce] callbacks are not checked online (loc-level
    completeness for them comes from the serial sweep; skipping cannot
    add false positives).

    {2 Endpoint attribution}

    Each frame records its serially-ordered event skeleton (user
    children, auxiliary frames, syncs) as it executes; after all workers
    join, a depth-first walk replays the serial engine's deterministic
    frame/strand numbering over that skeleton, so reports carry the same
    frame and strand ids a serial replay of the recorded steal trace
    assigns (the trace replays under the at-sync reduce policy, matching
    this runtime's merge placement). If an endpoint cannot be resolved —
    e.g. the run was cancelled mid-flight — its ids fall back to [-1]
    and the report's detail says so. *)

open Rader_runtime

type config = {
  workers : int;  (** worker domains, >= 1 (1 = this domain only) *)
  seed : int;  (** seeds structural steal decisions and victim choice *)
  density : float;  (** probability a spawn's continuation is stolen *)
  stripes : int option;
      (** shadow-space lock stripes, rounded up to a power of two;
          [None] derives [max 64 (pow2 (workers * 16))]. Striping only
          affects contention, never the verdict. *)
  max_events : int option;  (** global event budget across all workers *)
  deadline : float option;  (** absolute deadline, [clock] timebase *)
  clock : (unit -> float) option;  (** default [Unix.gettimeofday] *)
}

(** [default ()] is 2 workers, seed 1, density 0.5, derived striping, no
    budgets. *)
val default : ?workers:int -> ?seed:int -> ?density:float -> unit -> config

type outcome = {
  value : (int, Fault.failure) result;
      (** the program's result, or the first contained failure (user
          exception, budget, engine invariant) — first failure wins and
          cancels the remaining workers *)
  races : Rader_core.Report.t list;  (** canonically sorted (kind, subject) *)
  trace : Rader_core.Steal_trace.t;  (** the structural steal set *)
  n_structural_steals : int;
  n_tasks : int;  (** tasks executed (root + continuations) *)
  n_deque_steals : int;  (** successful cross-worker deque steals *)
  n_parks : int;  (** syncs that actually suspended *)
  events : int;  (** instrumented events across all workers *)
  counters : Rader_obs.Obs.counters option;
      (** summed per-worker {!Rader_obs.Obs} deltas when counting was
          enabled, [None] otherwise *)
}

(** [run cfg program] executes [program] on [cfg.workers] domains (the
    calling domain is worker 0) with on-the-fly detection.
    @raise Invalid_argument if [workers < 1] or [density] is outside
    [0..1]. *)
val run : config -> (Engine.ctx -> int) -> outcome

(** Canonical one-line rendering of a verdict's racy subjects, e.g.
    ["determinacy=[3;7] view-read=[0]"] — the string the determinism and
    cross-validation tests compare. *)
val race_summary : Rader_core.Report.t list -> string
