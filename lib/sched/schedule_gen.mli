(** Schedule fuzzing: run a program under many realistic work-stealing
    schedules and collect the results.

    In a correct (ostensibly deterministic) reducer program, the result is
    identical under every schedule; a view-read race typically shows up as
    schedule-dependent output — the observable symptom the paper's §1–§2
    examples describe. *)

(** [fuzz program ~workers ~seeds] records one serial run of [program],
    simulates work stealing on its dag once per seed, executes [program]
    under each derived steal specification and returns
    [(spec_name, result)] per run, serial run included first. *)
val fuzz :
  (Rader_runtime.Engine.ctx -> 'a) ->
  workers:int ->
  seeds:int list ->
  (string * 'a) list

(** [deterministic ~equal results] is true iff all fuzzed results are
    [equal] to the first. *)
val deterministic : equal:('a -> 'a -> bool) -> (string * 'a) list -> bool
