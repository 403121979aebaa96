(** Peer-Set (paper §3, Fig. 3) bound to an engine.

    The algorithm, its state and its reports are
    {!Rader_runtime.Peer_hot}, documented there. This shim adds the part
    that needs {!Rader_runtime.Engine}: strand ids in reports come from
    the engine, and {!attach} installs the detector as the engine's
    tool. *)

type t = Rader_runtime.Peer_hot.t

(** [create eng] makes a detector bound to [eng]; install it with
    [Engine.set_tool eng (tool d)] or use {!attach}. *)
val create : ?reach:Rader_reach.Reach.backend -> Rader_runtime.Engine.t -> t

val tool : t -> Rader_runtime.Tool.t
val attach : ?reach:Rader_reach.Reach.backend -> Rader_runtime.Engine.t -> t
val backend : t -> Rader_reach.Reach.backend

(** [reset d] empties [d] but does not touch the engine (see
    {!Sp_plus.reset}). *)
val reset : t -> unit

val races : t -> Report.t list
val found : t -> bool
