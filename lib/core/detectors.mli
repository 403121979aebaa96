(** The five serial detectors, by name: the one table the CLI's
    [--detector], its Chrome-trace detector name and the bench's detector
    comparison read. *)

(** [attach ~reach eng] installs a fresh detector as [eng]'s tool and
    returns the function that reads its race reports. [reach] picks the
    precedence backend of SP+ and Peer-Set ([None]: their default); the
    baselines ignore it. *)
type attach =
  reach:Rader_reach.Reach.backend option -> Rader_runtime.Engine.t -> unit ->
  Report.t list

(** [peerset], [spbags], [sporder], [offsetspan] and [sp+], in that order. *)
val table : (string * attach) list
