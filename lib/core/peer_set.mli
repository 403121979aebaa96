(** The Peer-Set algorithm (paper §3, Fig. 3).

    Detects {e view-read races}: two reducer-reads (create / set-value /
    get-value) of the same reducer executed at strands with different peer
    sets, which makes the value observed dependent on scheduling. The
    algorithm follows the serial execution, maintaining for every function
    instantiation [F] on the call stack the ancestor-spawn count [F.as],
    the local-spawn count [F.ls], and three bags of completed-descendant
    ids in a fast disjoint-set structure:

    - [F.SS]: descendants with the same peer set as [F]'s first strand;
    - [F.SP]: descendants with the same peer set as the last continuation
      strand [F] executed (empty if [F] has not spawned since its last
      sync);
    - [F.P]: all other completed descendants.

    A shadow map [reader(h)] keeps the last reader of reducer [h] and its
    spawn count. A reducer-read races with the previous one iff the
    previous reader sits in a P bag or the spawn counts differ
    (paper Lemma 3 / Theorem 4).

    The bag bookkeeping lives behind the pluggable
    {!Rader_reach.Reach.Peer} precedence backend: [Dset] (the default) is
    the disjoint-set machinery above, [Depa] answers the same P-bag
    membership question from the live stack and per-frame SP generations
    in worst-case O(1). Verdicts are identical.

    The detector is correct for the serial execution ([Steal_spec.none]);
    run it without steals, as Rader does for the Check-view-read-race
    configuration. Cost: O(T α(x, x)) for x reducers (Theorem 1) under
    [Dset], O(T) under [Depa].

    {2 Representation}

    This module is the whole detector — precedence core, reader and
    spawn-count shadows, the Lemma-3 comparison and the report collector —
    as flat state behind one {!Rader_runtime.Tool.t} record built at
    {!create}. Frame events for auxiliary (view-aware) frames are
    filtered here: view-read races are defined on the user dag, so
    verdicts do not depend on the steal specification. *)

type t

(** [create ?reach eng] makes a detector bound to [eng]: strand ids are
    read from [eng] when a race is reported. Install it with
    [Engine.set_tool eng (tool d)] or use {!attach}. *)
val create : ?reach:Rader_reach.Reach.backend -> Rader_runtime.Engine.t -> t

(** [tool d] is [d]'s callback record, built once by {!create}. *)
val tool : t -> Rader_runtime.Tool.t

(** [attach ?reach eng] is {!create} plus [Engine.set_tool]. *)
val attach : ?reach:Rader_reach.Reach.backend -> Rader_runtime.Engine.t -> t

(** [backend d] is the precedence backend [d] was created with. *)
val backend : t -> Rader_reach.Reach.backend

(** [reset d] empties all detector state (collected reports included)
    while keeping grown arenas; it does not touch the engine (see
    {!Sp_plus.reset}). *)
val reset : t -> unit

(** [races d] is the view-read races found so far, one per reducer. *)
val races : t -> Report.t list

(** [found d] is true iff any race was detected. *)
val found : t -> bool
