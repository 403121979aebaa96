(** The dag model of dynamic multithreading (paper §3).

    A Cilk computation is a dag [A = (V, E)] whose vertices are {e strands}
    — maximal instruction sequences with no parallel control — and whose
    edges are parallel control dependencies. Strand ids are assigned in
    {e serial execution order} (the depth-first traversal that visits a
    spawned child before its continuation), so the id order is a topological
    order of the dag; [add_edge] enforces this.

    The same structure represents both the {e user dag} (no reduce strands)
    and the {e performance dag} of §5, which adds reduce strands and the
    reduce-tree dependencies in front of each sync strand. *)

type strand_kind =
  | User  (** ordinary, view-oblivious user code *)
  | Update  (** view-aware: body of a reducer [Update] *)
  | Reduce  (** view-aware: a reduce strand (performance dag only) *)
  | Identity  (** view-aware: a [Create-Identity] strand *)

type strand = {
  id : int;  (** dense id, = serial execution index *)
  frame : int;  (** owning function instantiation id, -1 if none *)
  kind : strand_kind;
  view : int;  (** view/region id the strand operates on; -1 if unknown *)
  label : string;  (** human-readable tag for reports and dot output *)
}

type t

(** [create ()] is an empty dag. *)
val create : unit -> t

(** [add_strand t ~frame ~kind ~view ~label] appends a strand with the next
    id (equal to the number of strands added so far) and returns its id. *)
val add_strand : t -> frame:int -> kind:strand_kind -> view:int -> label:string -> int

(** [add_edge t u v] records the dependency [u -> v].
    @raise Invalid_argument unless [u < v] (serial order is topological)
    or if either endpoint does not exist. *)
val add_edge : t -> int -> int -> unit

(** [n_strands t] is the number of strands. *)
val n_strands : t -> int

(** [strand t i] is strand [i]'s record. *)
val strand : t -> int -> strand

(** [succs t i] are [i]'s direct successors (ascending order not
    guaranteed). *)
val succs : t -> int -> int list

(** [preds t i] are [i]'s direct predecessors. *)
val preds : t -> int -> int list

(** {1 Transitive closure}

    Reachability and logical series/parallel queries — the brute-force
    ground truth the detector algorithms are property-tested against. For
    strands [u], [v]: [u ≺ v] iff a path exists from [u] to [v]; [u ‖ v]
    iff neither precedes the other (paper §3). Computed as an [n × n] bit
    matrix by one reverse sweep over serial order, O(V·E/64) time and
    O(V²/8) space — fine for the test-scale programs it is used on. *)

type closure

(** [closure t] builds the reachability closure of [t]. *)
val closure : t -> closure

(** [precedes c u v] is [u ≺ v] (strictly: [precedes c u u = false]). *)
val precedes : closure -> int -> int -> bool

(** [parallel c u v] is [u ‖ v]; false when [u = v]. *)
val parallel : closure -> int -> int -> bool

(** [is_view_aware k] is true for [Update], [Reduce] and [Identity]
    strands (paper §1: instructions executed in updating or reducing views). *)
val is_view_aware : strand_kind -> bool

(** [to_dot t] renders the dag in Graphviz format, one cluster per frame,
    strands colour-coded by view id (like paper Fig. 5). *)
val to_dot : t -> string
