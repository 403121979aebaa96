(** Callback records shared by the tests of the instrumentation interface:
    an observer that prints every event, and the composition the chaos
    harness uses to run a second observer beside a detector. *)

(** [recorder push] calls [push] with one line per event, naming every
    argument the event carries. *)
val recorder : (string -> unit) -> Rader_runtime.Tool.t

(** [seq a b] calls every callback of [a], then the same callback of [b]. *)
val seq : Rader_runtime.Tool.t -> Rader_runtime.Tool.t -> Rader_runtime.Tool.t
