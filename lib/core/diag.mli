(** Structured diagnostics for the detection pipeline (core-layer name).

    The failure taxonomy is defined in [Rader_runtime.Fault] — the engine
    must be able to produce these values, and the runtime layer sits below
    core — and re-exported here, with type equalities, under the name the
    core layer and the CLI use. A [Diag.failure] {e is} a
    [Rader_runtime.Fault.failure]; constructors, accessors and renderers
    can be used through either path.

    The taxonomy:
    - [User_program_exn] — an exception escaped the program under test
      (user strand or update/reduce/identity callback);
    - [Monoid_contract] — a sampled reducer self-check found a monoid law
      violated;
    - [Invalid_steal_spec] — the steal specification cannot fire on this
      program (continuation indices beyond K, depth beyond D, …);
    - [Budget_exceeded] — a spec/event/deadline budget ran out;
    - [Engine_invariant] — a Cilk-discipline violation.

    Each failure carries frame / strand / spec context ({!origin}) and has
    a human-readable rendering ({!to_string}). *)

include module type of struct
  include Rader_runtime.Fault
end

(** {1 How an analysis ended}

    One rule for every verdict: the CLI's exit code, [rader submit]'s and
    the daemon's verdict status all come from {!status}. *)

type status =
  | Clean  (** analysis complete, no races *)
  | Races  (** races (or lint findings) *)
  | Partial
      (** contained failure, budget blowout or partial coverage: the
          results cover only the completed prefix *)

(** [status ~complete ~racy] is [Partial] when the analysis did not
    complete, whatever it found — an incomplete analysis is flagged as
    such, and the races it found are still reported — else [Races] or
    [Clean]. *)
val status : complete:bool -> racy:bool -> status

(** [exit_code s] is 0 for [Clean], 1 for [Races] and 3 for [Partial]. *)
val exit_code : status -> int
