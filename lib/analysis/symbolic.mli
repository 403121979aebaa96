(** Symbolic whole-spec-space verdict from the no-steal IR.

    Computes, for every instrumented location, a closed-form verdict over
    {e all} steal specifications of the program's §7 density family,
    without replaying them:

    - {e racy on every spec} — a logically parallel, write-bearing access
      pair with both endpoints view-oblivious (the strongest diagnostic;
      feeds lint R006);
    - {e racy without steals} — such a pair whose later endpoint is
      view-oblivious; the witness spec is [Steal_spec.none];
    - {e race-free on every spec} — certified by a steal-independent
      condition ({!Rader_core.Coverage.certificate}), valid across the
      family because every spec outside the {e residual set} provably
      replays byte-identically to the no-steal execution (the PR 4
      relevance lemma over [k_rel] / [rel_depths]);
    - {e steal-dependent} — the residual specs can relocate view-aware
      accesses onto freshly created views and run identity/reduce code the
      IR never recorded; the closed form is explicitly incomplete there
      and {!replay_specs} names exactly the replays needed to decide.

    Soundness is non-negotiable: {!Witness.verify} replays
    {!replay_specs} and never reports a race without a replay-confirmed
    witness. See DESIGN.md §14 for the full argument. *)

type t = {
  scan : Rader_core.Coverage.scan;
  prof : Rader_core.Coverage.profile;
  residual : Rader_runtime.Steal_spec.t list;
      (** relevant specs beyond [none], in canonical family order *)
  n_family : int;  (** full §7 family size for this profile *)
}

(** [of_scan ~prof scan] lifts the no-steal scan of a program with
    profile [prof] to its whole family — no execution, no rescan. *)
val of_scan :
  prof:Rader_core.Coverage.profile -> Rader_core.Coverage.scan -> t

(** [analyze ~prof ir] scans [ir]'s trace on its own index and lifts the
    scan with {!of_scan}. [max_pairs] bounds the per-location pair scan
    (default 100_000); blowing it marks the scan truncated and
    {!complete} false. *)
val analyze : ?max_pairs:int -> prof:Rader_core.Coverage.profile -> Ir.t -> t

(** Locations racy in the no-steal execution, ascending. *)
val racy_locs : t -> int list

(** Locations racy under {e every} spec of the family (both witness
    endpoints view-oblivious), ascending — the R006 set. *)
val always_racy_locs : t -> int list

(** [complete t] — did the pair scan finish within budget? When false,
    verdicts are advisory and a sound checker falls back to replaying the
    no-steal spec as well. *)
val complete : t -> bool

(** [replay_specs t] is the exact replay set a sound whole-family check
    still needs: [Steal_spec.none] when the scan found (or could have
    missed) a no-steal race, then the residual specs, in family order.
    [[]] = the family is proved race-free with zero replays. *)
val replay_specs : t -> Rader_runtime.Steal_spec.t list

(** Human-readable certificate text for tables. *)
val certificate_string : Rader_core.Coverage.certificate -> string
