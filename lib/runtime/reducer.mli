(** Reducer hyperobjects (paper §2).

    A reducer is declared over a monoid [(T, ⊗, e)] given as an
    {!monoid} record whose operations run {e instrumented}: [identity]
    implements [Create-Identity] and [reduce] implements [Reduce], and both
    receive a context so that any memory they touch goes through {!Cell} /
    {!Rarray} and is visible to the detectors. Updates are applied through
    {!update}, which runs as a view-aware [Update] frame.

    View management follows the Cilk runtime (paper §5): each strand sees
    the view of its current region; the first update (or value access) in a
    freshly stolen region materializes an identity view via a
    [Create-Identity] frame; when the engine merges two adjacent regions,
    the reducer's dominated view is folded into the surviving one by a
    [Reduce] frame (or simply transferred when the surviving region never
    materialized a view, mirroring lazy view creation).

    {!create}, {!get_value} and {!set_value} are {e reducer-reads} in the
    sense of the Peer-Set algorithm (paper §3) and are reported to the tool
    as such; [update] is not. *)

type 'v monoid = {
  name : string;
  identity : Engine.ctx -> 'v;  (** [Create-Identity] *)
  reduce : Engine.ctx -> 'v -> 'v -> 'v;
      (** [reduce c left right] folds [right] (the dominated, serially later
          view) into [left] and returns the surviving view; it may mutate
          [left] in place. Must be semantically associative. *)
}

(** Configuration of the optional sampled monoid-contract self-check. The
    check needs to compare and duplicate views: [lc_equal] decides value
    equality, [lc_copy] produces a copy safe to mutate (the monoid's
    [reduce] may mutate its left argument), and [lc_samples] bounds how
    many region merges are checked (the identity laws are additionally
    checked once on [init] at creation). Operations run {e outside} any
    view-aware frame, on copies only — the check is invisible to the
    detectors and to live views; monoids whose operations touch
    instrumented memory should only enable it with an [lc_copy] that
    allocates fresh cells. *)
type 'v law_check = {
  lc_equal : 'v -> 'v -> bool;
  lc_copy : 'v -> 'v;
  lc_samples : int;
}

type 'v t

(** [create ctx m ~init] declares a reducer with initial (leftmost) view
    [init]. A reducer-read.

    When [self_check] is given, the monoid laws — associativity, and the
    left/right identity laws — are verified on up to [lc_samples] observed
    view pairs as region merges happen. Violations are {e reported}, not
    raised: they are recorded on the engine as
    [Fault.Monoid_contract] and turn the verdict of [Engine.run_result]
    into [Error]. *)
val create : Engine.ctx -> ?self_check:'v law_check -> 'v monoid -> init:'v -> 'v t

(** [get_value ctx r] is the current view's value (materializing an
    identity view if the current region has none, like Cilk's [view()]).
    A reducer-read. *)
val get_value : Engine.ctx -> 'v t -> 'v

(** [set_value ctx r v] replaces the current view's value. A
    reducer-read. *)
val set_value : Engine.ctx -> 'v t -> 'v -> unit

(** [update ctx r f] applies [f] to the current view inside an [Update]
    frame and stores the result. [f] must be serial Cilk code (no spawn /
    sync / reducer-reads) whose shared accesses go through cells. *)
val update : Engine.ctx -> 'v t -> (Engine.ctx -> 'v -> 'v) -> unit

(** [id r] is the reducer's dense id (as reported in tool events). *)
val id : 'v t -> int

(** [name r] is the monoid name. *)
val name : 'v t -> string

(** [peek r] is the value of the view living in the reducer's creation
    region, uninstrumented — for post-run verification in tests only. *)
val peek : 'v t -> 'v option

(** [n_views r] is the number of views currently materialized —
    1 after all regions of the creating sync block are merged. *)
val n_views : 'v t -> int
