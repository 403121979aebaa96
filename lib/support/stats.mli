(** Timing and summary statistics for the benchmark harness. *)

(** [time_it f] runs [f ()] and returns [(result, elapsed_seconds)] using the
    monotonic clock. *)
val time_it : (unit -> 'a) -> 'a * float

(** [best_of n f] runs [f] [n] times and returns the minimum elapsed seconds
    together with the last result. Minimum-of-n is the standard way to strip
    scheduling noise from serial overhead measurements. *)
val best_of : int -> (unit -> 'a) -> 'a * float

(** [mean xs] is the arithmetic mean. @raise Invalid_argument on []. *)
val mean : float list -> float

(** [geomean xs] is the geometric mean; every element must be positive.
    The paper reports geometric-mean multiplicative overheads. *)
val geomean : float list -> float

(** [median xs] is the median (average of middle two for even lengths). *)
val median : float list -> float

(** [min_max xs] is [(min, max)]. @raise Invalid_argument on []. *)
val min_max : float list -> float * float
