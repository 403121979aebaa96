(** SP+ (paper §5–§6, Fig. 6) bound to an engine.

    The algorithm, its state and its reports are
    {!Rader_runtime.Sp_hot}, documented there. This shim adds the part
    that needs {!Rader_runtime.Engine}, which sits above the detector
    cores: report labels and strand ids come from the engine, and
    {!attach} installs the detector as the engine's tool. *)

type t = Rader_runtime.Sp_hot.t

(** [create eng] makes a detector bound to [eng]; install it with
    [Engine.set_tool eng (tool d)] or use {!attach}. *)
val create : ?reach:Rader_reach.Reach.backend -> Rader_runtime.Engine.t -> t

val tool : t -> Rader_runtime.Tool.t
val attach : ?reach:Rader_reach.Reach.backend -> Rader_runtime.Engine.t -> t
val backend : t -> Rader_reach.Reach.backend

(** [reset d] is {!Rader_runtime.Sp_hot.reset}: it empties [d] but does
    not touch the engine, so recycle both with
    [Engine.reset ~tool:(tool d) eng; reset d]. *)
val reset : t -> unit

val races : t -> Report.t list
val found : t -> bool
val racy_locs : t -> int list
