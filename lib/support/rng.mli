(** Deterministic pseudo-random number generation.

    All workload generators, schedule fuzzers, and property tests use this
    splittable PRNG (splitmix64 core with an xoshiro256** stream) so that
    every experiment in the repository is reproducible from a single integer
    seed, independent of the OCaml stdlib [Random] state. *)

type t

(** [create seed] is a fresh generator determined entirely by [seed]. *)
val create : int -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [split t] derives a new, statistically independent generator from [t],
    advancing [t]. Useful to give sub-tasks their own streams. *)
val split : t -> t

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)
val int_in : t -> int -> int -> int

(** [float t bound] is uniform in [\[0, bound)]. *)
val float : t -> float -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [bernoulli t p] is true with probability [p]. *)
val bernoulli : t -> float -> bool

(** [shuffle t arr] permutes [arr] in place uniformly (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit
