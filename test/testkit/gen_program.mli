(** Random Cilk-program generation for property-based testing.

    Programs are small ASTs over shared cells and reducers, interpreted in
    the DSL. Reducers are cell-backed integer-add reducers whose update and
    reduce operations can additionally be configured to write designated
    {e shared} cells — which is exactly how Figure-1-style determinacy
    races between view-oblivious code and view-aware code arise. The
    detectors are required to agree with the brute-force oracles on every
    generated program (and, for SP+, every steal specification). *)

type stmt =
  | Spawn of stmt list
  | Call of stmt list
  | Pfor of int * stmt list  (** parallel_for with the given trip count *)
  | Sync
  | Read of int  (** shared cell index *)
  | Write of int
  | Update of int  (** reducer index *)
  | Get_reducer of int
  | Set_reducer of int

(** Per-reducer behaviour of the view-aware code. *)
type reducer_cfg = {
  update_touches : int option;  (** shared cell written by every [Update] *)
  reduce_touches : int option;  (** shared cell written by every [Reduce] *)
}

type program = {
  body : stmt list;
  n_cells : int;
  reducers : reducer_cfg array;
}

(** [interpret p ctx] runs [p]; the result is the sum of all reducer
    values plus a hash of the shared cells (so schedule-dependence of any
    part is observable). Shared cell [j] is labelled ["cell<j>"]; the
    views of reducer [i] are labelled ["r<i>.view0"] (initial),
    ["r<i>.view"] (made by the identity) and ["r<i>.reset"] (installed
    by [Set_reducer]). *)
val interpret : program -> Rader_runtime.Engine.ctx -> int

(** [gen ~with_reducers ~racy] is a QCheck generator.
    [with_reducers = false] generates pure fork-join memory programs (for
    SP-bags properties). [racy] controls whether view-aware code may touch
    shared cells and whether reducer-reads may appear in spawned regions —
    with [racy = false] the program is ostensibly deterministic by
    construction. *)
val gen : with_reducers:bool -> racy:bool -> program QCheck2.Gen.t

(** [print p] is a compact textual rendering for failure reports. *)
val print : program -> string

(** [max_local_spawns p] is the max number of spawns in any sync block —
    used to bound coverage enumeration in tests. *)
val max_local_spawns : program -> int
