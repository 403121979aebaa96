(** The SP+ algorithm (paper §5–§6, Fig. 6).

    Detects determinacy races in Cilk computations {e that use reducers},
    executed serially under a steal specification that fixes which
    continuations are stolen and which reduce operations run when. SP+
    extends SP-bags in two ways:

    - Each function instantiation [F] keeps, instead of one P bag, a
      {e stack} of P bags, each tagged with a view ID ([vid]): executing a
      stolen continuation pushes a fresh P bag with the new view's id, and
      every runtime [Reduce] pops the top P bag and unions it into the one
      below (the destination's vid survives) — imitating how the runtime
      creates views at steals and destroys dominated views at reduces.

    - Accesses by {e view-aware} strands (update / reduce /
      create-identity code) only race with parallel accesses whose
      recorded P bag carries a {e different} vid — logically parallel
      strands operating on the same view are in series through the reduce
      tree. A recorded access is replaced only by a strand it is serial
      with (DESIGN.md §5: Fig. 6 also lets a reduce overwrite an entry of
      its own view, which can lose a race).

    The S/P/vid bookkeeping itself lives behind the pluggable
    {!Rader_reach.Reach.Sp} precedence backend: [Dset] (the default) is
    the bag/disjoint-set machinery above, [Depa] answers the same queries
    from fork-path fingerprints in worst-case O(1) per query. Verdicts are
    identical; only the cost model changes.

    Correct for the execution named by the steal specification
    (paper §6); cost O((T + Mτ) α(v, v)) for M steals and reduce cost τ
    (Theorem 5) under [Dset], O(T + Mτ) under [Depa]. Combine with
    [Rader_core.Coverage] for the §7 guarantee.

    {2 Representation}

    This module is the whole detector: the precedence core, the
    reader/writer shadow spaces, the frame-kind stack, a classification
    memo and the report collector, as flat state the {!Tool.t} variant
    dispatches into with a single match. [Rader_core.Sp_plus] binds a
    detector to an engine. *)

type t

(** [create ~label ~strand ()] makes a detector. [label loc] names a
    location and [strand ()] is the strand executing now; both are read
    only when a race is reported. *)
val create :
  ?backend:Rader_reach.Reach.backend ->
  label:(int -> string) ->
  strand:(unit -> int) ->
  unit ->
  t

(** [backend d] is the precedence backend [d] was created with. *)
val backend : t -> Rader_reach.Reach.backend

(** [reset d] empties all detector state (precedence backend, frame
    stack, shadow spaces, collected reports) while keeping the grown
    arenas. Pair it with an [Engine.reset ~tool] that re-installs [d] to
    replay another steal specification without reallocating: one
    [reset] pair per spec is observationally identical to a fresh
    engine+detector pair. *)
val reset : t -> unit

(** [races d] is the determinacy races found so far, one per location,
    in detection order. *)
val races : t -> Report.t list

(** [found d] is true iff any race was detected. *)
val found : t -> bool

(** [racy_locs d] is the sorted list of distinct racy location ids. *)
val racy_locs : t -> int list

(** {2 Events} — dispatched by {!Tool}. *)

val frame_enter : t -> frame:int -> kind:Frame_kind.t -> unit
val frame_return : t -> frame:int -> spawned:bool -> unit
val sync : t -> frame:int -> unit
val steal : t -> frame:int -> region:int -> unit
val reduce : t -> frame:int -> unit
val read : t -> frame:int -> loc:int -> view_aware:bool -> unit
val write : t -> frame:int -> loc:int -> view_aware:bool -> unit

(** [read_span t ~frame ~base ~len ~stride ~view_aware] processes the
    access run [base, base+stride, …] (length [len]) exactly as [len]
    consecutive {!read}s — one tool dispatch, one tight loop, and (via
    the memo) typically one reachability query for the whole span. *)
val read_span :
  t -> frame:int -> base:int -> len:int -> stride:int -> view_aware:bool -> unit

val write_span :
  t -> frame:int -> base:int -> len:int -> stride:int -> view_aware:bool -> unit
