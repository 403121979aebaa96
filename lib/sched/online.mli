(** Online runs: one serial run stands in for a work-stealing schedule.

    A run is named by a seed and a steal density. Its steals are
    structural ({!Rader_core.Steal_trace.structural}): a seeded hash of
    each spawning frame's fork path and the spawn's per-frame ordinal,
    against the density, decides which continuations are stolen, so the
    steal set is a pure function of (program, seed, density), the same
    at every worker count. The paper's detectors are serial by design
    (§5): SP+ takes a steal specification so that one serial run stands
    in for a Cilk schedule. A run's verdict is theirs: SP+ under the
    run's steals, and Peer-Set, whose verdict does not depend on the
    steal specification, on the program's no-steal run. *)

open Rader_runtime

(** The runs of one program: it holds the frames of the program's
    no-steal run ({!Rader_core.Steal_trace.frames}), with Peer-Set's
    reports, once the first run has made them. *)
type judge

(** [judge ?reach program] judges runs of [program]; [reach] picks the
    detectors' precedence backend (default [Dset]). Runs nothing. *)
val judge : ?reach:Rader_reach.Reach.backend -> (Engine.ctx -> int) -> judge

type run = {
  value : (int, Fault.failure) result;
      (** the program's value under the run's steals, or the contained
          failure of the no-steal run or of the SP+ replay *)
  trace : Rader_core.Steal_trace.t;
      (** the run's steals; none when the no-steal run failed *)
  races : Rader_core.Report.t list;
      (** SP+'s determinacy races under the steals plus Peer-Set's
          view-read races on the no-steal run, sorted by (kind, subject),
          in the detectors' own report format; [[]] when [value] is an
          [Error]. Peer-Set's reports carry the no-steal run's strand ids. *)
}

(** [run j ~seed ~density] is the run of [j]'s program under the
    structural steals of [seed] and [density]. The no-steal run is made
    once, by the first call that completes it, with Peer-Set and an
    observer of its frames installed (nothing is recorded); each call
    runs SP+ once.

    Each serial run honours [max_events] and [deadline] (an absolute
    [Unix.gettimeofday] time) and is contained by [Engine.run_result].
    @raise Invalid_argument if [density] is outside [0, 1]. *)
val run :
  ?max_events:int -> ?deadline:float -> judge -> seed:int -> density:float -> run
