(** Structural steal sets: which spawned continuations an online run
    ([Rader_sched.Online]) steals, as a serial {!Rader_runtime.Steal_spec}.

    A continuation is stolen {e structurally}: a seeded hash of the
    spawning frame's fork path and the spawn's per-frame ordinal,
    against a density, decides it. The steal set is therefore a pure
    function of (program, seed, density), computed from the frames of
    the program's no-steal run with no run of its own, and the same
    steals any work-stealing schedule would make under that rule. Each
    steal is named by coordinates that do not depend on the schedule:

    - the spawning frame's {e user path}: the list of user-child ordinals
      (spawned and called children both count, auxiliary view-aware
      frames do not) from the root to the frame;
    - the spawn's {e per-frame ordinal}: how many spawns the frame had
      performed before this one, across all its sync blocks. *)

type entry = {
  e_path : int list;  (** user-child ordinals, root → spawning frame *)
  e_ord : int;  (** per-frame spawn ordinal (0-based, across blocks) *)
}

type t = {
  seed : int;
  density : float;
  entries : entry list;  (** canonically sorted: path, then ordinal *)
}

val n_steals : t -> int

(** One line per entry, plus a header — stable across runs of the same
    (program, seed, density), so traces can be diffed and archived. A
    human-readable record: nothing reads it back. *)
val to_string : t -> string

(** The shape of a run that {!structural} reads: per frame (ids count up
    from the root in entry order), its parent ([-1] for the root) and its
    kind; per spawn, in global spawn-index order (the order in which
    spawned children return), the spawning frame. A decoded recording has
    the same three arrays ([Trace.frame_parent], [Trace.frame_kind],
    [Trace.spawn_frame]). *)
type frames = {
  frame_parent : int array;
  frame_kind : Rader_runtime.Tool.frame_kind array;
  spawn_frame : int array;
}

(** [observe tool] is [tool], with its frame events also collected, and
    the function that returns the frames collected so far: a run's shape
    without recording the run. *)
val observe : Rader_runtime.Tool.t -> Rader_runtime.Tool.t * (unit -> frames)

(** [structural ~seed ~density nosteal] is the steal set of [nosteal]'s
    program under [seed] and [density], with no run: each user frame's
    path folds into a hash of its user-child ordinals, and a spawn's
    continuation is stolen when a seeded hash of its frame's hash and
    its per-frame ordinal falls below [density] (so a density below 0
    steals nothing and one above 1 everything). It returns the serial
    specification stealing exactly those continuations, by global spawn
    index with [`Reduce_at_sync`] policy and named
    [online-trace(seed=S,density=D,steals=N)], and their coordinates.
    O(frames + spawns) plus the paths of the stolen spawns' frames. *)
val structural :
  seed:int -> density:float -> frames -> Rader_runtime.Steal_spec.t * t
