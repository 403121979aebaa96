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
    as flat state the {!Tool.t} variant dispatches into with a single
    match. Frame events for auxiliary (view-aware) frames are filtered
    here: view-read races are defined on the user dag, so verdicts do not
    depend on the steal specification. [Rader_core.Peer_set] binds a
    detector to an engine. *)

type t

(** [create ~strand ()] makes a detector; [strand ()] is the strand
    executing now, read only when a race is reported. *)
val create :
  ?backend:Rader_reach.Reach.backend -> strand:(unit -> int) -> unit -> t

(** [backend d] is the precedence backend [d] was created with. *)
val backend : t -> Rader_reach.Reach.backend

(** [reset d] empties all detector state (collected reports included)
    while keeping grown arenas; see {!Sp_hot.reset}. *)
val reset : t -> unit

(** [races d] is the view-read races found so far, one per reducer. *)
val races : t -> Report.t list

(** [found d] is true iff any race was detected. *)
val found : t -> bool

(** {2 Events} — dispatched by {!Tool}. *)

val frame_enter : t -> frame:int -> spawned:bool -> kind:Frame_kind.t -> unit
val frame_return : t -> frame:int -> spawned:bool -> kind:Frame_kind.t -> unit
val sync : t -> frame:int -> unit
val reducer_read : t -> frame:int -> reducer:int -> unit
