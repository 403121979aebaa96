(** Structural steal traces of online work-stealing runs, and their
    conversion to serial {!Rader_runtime.Steal_spec} values.

    The online runtime ([Rader_sched.Online]) decides which spawned
    continuations count as stolen {e structurally} — a seeded hash of the
    spawning frame's fork path and the spawn's per-frame ordinal — so the
    steal {e set} is a pure function of (program, seed, density) even
    though task placement across workers is timing-dependent. This module
    names each such steal by coordinates that survive the translation to
    a serial replay:

    - the spawning frame's {e user path}: the list of user-child ordinals
      (spawned and called children both count, auxiliary view-aware
      frames do not) from the root to the frame;
    - the spawn's {e per-frame ordinal}: how many spawns the frame had
      performed before this one, across all its sync blocks.

    [to_spec] indexes the recorded no-steal run of the program by those
    coordinates and maps each trace entry to its global spawn index: the
    equivalent [Steal_spec.by_spawn_index] specification under the
    at-sync reduce policy (the online runtime merges regions only at
    syncs). Every online run can therefore be judged deterministically by
    the serial detectors under exactly the schedule the runtime
    realized. *)

type entry = {
  e_path : int list;  (** user-child ordinals, root → spawning frame *)
  e_ord : int;  (** per-frame spawn ordinal (0-based, across blocks) *)
}

type t = {
  workers : int;
  seed : int;
  density : float;
  entries : entry list;  (** canonically sorted, duplicates impossible *)
}

(** [make ~workers ~seed ~density entries] sorts [entries] canonically
    (lexicographic path, then ordinal). *)
val make : workers:int -> seed:int -> density:float -> entry list -> t

val n_steals : t -> int

(** One line per entry, plus a header — stable across runs of the same
    (program, seed, density), so traces can be diffed and archived as CI
    artifacts. A human-readable record: nothing reads it back. *)
val to_string : t -> string

(** [to_spec nosteal trace] is the serial steal specification stealing
    exactly [trace]'s continuations, with [`Reduce_at_sync`] policy, or
    [Error] if an entry names a frame or spawn that [nosteal] — the
    decoded recording of the program's run under [Steal_spec.none] — does
    not have (a trace from a different program). It runs nothing.
    Partially applied, [to_spec nosteal] builds its index once, in
    O(frames + spawns); each trace then costs the length of its entries'
    paths. *)
val to_spec : Trace.t -> t -> (Rader_runtime.Steal_spec.t, string) result
