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
    {!Coverage} for the §7 guarantee.

    {2 Representation}

    This module is the whole detector: the precedence core, the
    reader/writer shadow spaces, the frame-kind stack, a classification
    memo and the report collector, as flat state behind one
    {!Rader_runtime.Tool.t} record built at {!create}. *)

type t

(** [create ?reach eng] makes a detector bound to [eng]: report labels
    and strand ids are read from [eng] when a race is reported. Install
    it with [Engine.set_tool eng (tool d)] or use {!attach}. *)
val create : ?reach:Rader_reach.Reach.backend -> Rader_runtime.Engine.t -> t

(** [tool d] is [d]'s callback record, built once by {!create}. *)
val tool : t -> Rader_runtime.Tool.t

(** [attach ?reach eng] is {!create} plus [Engine.set_tool]. *)
val attach : ?reach:Rader_reach.Reach.backend -> Rader_runtime.Engine.t -> t

(** [backend d] is the precedence backend [d] was created with. *)
val backend : t -> Rader_reach.Reach.backend

(** [reset d] empties all detector state (precedence backend, frame
    stack, shadow spaces, collected reports) while keeping the grown
    arenas. It does not touch the engine: recycle both with
    [Engine.reset ~tool:(tool d) eng; reset d] to replay another steal
    specification without reallocating. One such pair per spec is
    observationally identical to a fresh engine+detector pair. *)
val reset : t -> unit

(** [races d] is the determinacy races found so far, one per location,
    in detection order. *)
val races : t -> Report.t list

(** [found d] is true iff any race was detected. *)
val found : t -> bool

(** [racy_locs d] is the sorted list of distinct racy location ids. *)
val racy_locs : t -> int list
