(** A real work-stealing runtime, judged by the serial detectors.

    [Wsim] simulates work stealing over a {e recorded} dag; this module
    actually runs the DSL program on OCaml 5 domains. Each worker owns a
    Chase-Lev deque ({!Rader_support.Ws_deque}); spawns are implemented
    with effect handlers (the spawning frame's continuation is captured,
    published as a stealable task, and the child runs first — Cilk's
    child-first discipline), and syncs park the frame until its last
    outstanding child pushes the resumption. Reducer views live in view
    regions and merge at syncs, so values stay intact however the work is
    split.

    {2 Structural steals}

    Which continuations count as {e stolen} — i.e. run in a freshly
    created view region, exactly as if a thief had taken them — is decided
    at spawn time by a seeded hash of the spawning frame's fork path and
    the spawn's per-frame ordinal against [density]. The steal {e set} is
    therefore a pure function of (program, seed, density): task placement
    across workers stays timing-nondeterministic, but the steal trace
    ({!Rader_core.Steal_trace}) and the value are identical for every
    worker count and every rerun — the property the determinism tests pin
    down, and what makes each online run serially replayable.

    {2 Verdicts}

    Nothing is checked while the program runs. A run's verdict is the
    paper's serial detectors' verdict under the steals the run made
    ({!verdict}): SP+ replays the program under [Steal_trace.to_spec] of
    the run's trace, and Peer-Set, whose verdict does not depend on the
    steal specification, checks the program's no-steal run once. There
    is no verdict until the run ends. *)

open Rader_runtime

type config = {
  workers : int;  (** worker domains, >= 1 (1 = this domain only) *)
  seed : int;  (** seeds structural steal decisions and victim choice *)
  density : float;  (** probability a spawn's continuation is stolen *)
  max_events : int option;  (** global event budget across all workers *)
  deadline : float option;  (** absolute deadline, [clock] timebase *)
  clock : (unit -> float) option;  (** default [Unix.gettimeofday] *)
}

(** [default ()] is 2 workers, seed 1, density 0.5, no budgets. *)
val default : ?workers:int -> ?seed:int -> ?density:float -> unit -> config

type outcome = {
  value : (int, Fault.failure) result;
      (** the program's result, or the first contained failure (user
          exception, budget, engine invariant) — first failure wins and
          cancels the remaining workers *)
  trace : Rader_core.Steal_trace.t;
      (** the structural steal set; complete only when [value] is [Ok] *)
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
    calling domain is worker 0).
    @raise Invalid_argument if [workers < 1] or [density] is outside
    [0..1]. *)
val run : config -> (Engine.ctx -> int) -> outcome

(** {2 Verdicts} *)

(** The serial detectors' verdicts on the runs of one program: it holds
    the program's recorded no-steal run, with Peer-Set's reports, once
    the first verdict has made it. *)
type judge

(** [judge ?reach program] judges runs of [program]; [reach] picks the
    detectors' precedence backend (default [Dset]). Runs nothing. *)
val judge : ?reach:Rader_reach.Reach.backend -> (Engine.ctx -> 'a) -> judge

(** [verdict j trace] is the races of a completed run whose steal trace
    is [trace]: SP+'s determinacy races under [Steal_trace.to_spec] of
    [trace], plus Peer-Set's view-read races on the no-steal run, sorted
    by (kind, subject), in the detectors' own report format. Peer-Set's
    reports carry the no-steal run's strand ids. The no-steal run is
    recorded once, by the first call whose recording completes; each
    call runs SP+ once.

    Each serial run honours [max_events] and [deadline] (an absolute
    [Unix.gettimeofday] time) and is contained by [Engine.run_result]: a
    failure, or a trace that does not belong to the program
    ([Invalid_steal_spec]), is the [Error]. *)
val verdict :
  ?max_events:int ->
  ?deadline:float ->
  judge ->
  Rader_core.Steal_trace.t ->
  (Rader_core.Report.t list, Fault.failure) result
