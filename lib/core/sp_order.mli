(** The SP-order algorithm [Bender, Fineman, Gilbert & Leiserson, SPAA'04]
    — serial variant, as a second baseline determinacy-race detector.

    The paper under reproduction remarks (§1, §9) that, to the authors'
    knowledge, no implementation of SP-order exists; this module provides
    one for the serial setting. Instead of disjoint-set bags, SP-order
    maintains two total orders over strands in order-maintenance lists:

    - the {e English} order: the serial depth-first order that visits a
      spawned child before the continuation (identical to execution
      order, so English comparisons against past accesses are implied);
    - the {e Hebrew} order: the depth-first order that visits the
      continuation before the spawned child.

    Two strands satisfy [u ≺ v] iff [u] precedes [v] in {e both} orders;
    they are logically parallel iff the orders disagree. Since the shadow
    entry is always serially (hence English-) earlier than the current
    strand, an access races with the recorded one iff the current strand
    is Hebrew-before it. Shadow update follows the same
    pseudotransitivity discipline as SP-bags.

    Like SP-bags, SP-order is {e not} reducer-aware: run it on
    reducer-free programs (or as the "what existing detectors do"
    comparison on programs with reducers). Checks are O(1); maintaining
    the orders is amortized polylogarithmic per strand. *)

type t

val create : Rader_runtime.Engine.t -> t
val tool : t -> Rader_runtime.Tool.t
val attach : Rader_runtime.Engine.t -> t
val races : t -> Report.t list
val found : t -> bool
