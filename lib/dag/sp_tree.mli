(** Canonical SP parse trees (paper §4, Fig. 4; after Feng & Leiserson).

    The dag of a Cilk computation without reducers is series-parallel and is
    represented by a binary parse tree whose leaves are strands and whose
    internal nodes are S (series) or P (parallel) compositions. In the
    {e canonical} tree of a function, the sync strands partition the
    function's strands into sync blocks; each sync block is a right-leaning
    chain in which a node is a P node exactly when its left child is the
    subtree of a {e spawned} child, and the sync blocks are linked by a
    spine of S nodes.

    Lemma 2: [peers(u) = peers(v)] iff the tree path from [u] to [v]
    consists entirely of S nodes. Lemma 4 of Feng & Leiserson: [u ‖ v] iff
    their least common ancestor is a P node. This module provides both
    queries; the Peer-Set tests use them as an independent oracle. *)

type t =
  | Leaf of int  (** strand id *)
  | S of t * t
  | P of t * t

(** Items of one sync block, in serial order. *)
type item =
  | Strand of int  (** a strand executed directly by the function *)
  | Spawned of t  (** the parse tree of a spawned child *)
  | Called of t  (** the parse tree of a called child *)

(** [block_tree items] is the canonical right-leaning chain of one sync
    block. @raise Invalid_argument on an empty block. *)
val block_tree : item list -> t

(** [function_tree blocks] chains the given sync-block trees with the S
    spine. @raise Invalid_argument on an empty list. *)
val function_tree : t list -> t

(** [leaves t] is the leaf strand ids in left-to-right (= serial) order. *)
val leaves : t -> int list

(** Preprocessed form: per strand, its rank in Hebrew order (its rank in
    English order is its id) and its class — leaves joined by a path of S
    nodes share one — for O(1) parallelism and peer-set queries. Built
    from a boxed tree by {!index}, or directly by the decoder that walks a
    recorded tape ({!make_index}). *)
type indexed = private {
  hebrew : int array;  (** strand id -> rank in Hebrew order *)
  peer_class : int array;  (** strand id -> its all-S component *)
}

(** [index t] preprocesses the tree in O(size). Leaves must be strands
    [0 .. n-1] numbered in serial (left-to-right) order, as the strands of
    a serial trace are.
    @raise Invalid_argument if a strand id is negative, appears in two
    leaves, or is out of serial order. *)
val index : t -> indexed

(** [make_index ~hebrew ~peer_class] is the index of the canonical tree
    over strands [0 .. n-1] with these Hebrew ranks and classes.
    @raise Invalid_argument if the arrays differ in length. *)
val make_index : hebrew:int array -> peer_class:int array -> indexed

(** [all_s_path ix u v] is true iff every internal node on the tree path
    from leaf [u] to leaf [v] (LCA included) is an S node — by Lemma 2,
    exactly when [peers(u) = peers(v)]. O(1): the two leaves share a
    class. [all_s_path ix u u = true].
    @raise Invalid_argument for unknown leaves when [u <> v]. *)
val all_s_path : indexed -> int -> int -> bool

(** [parallel ix u v] is true iff the LCA of [u] and [v] is a P node — by
    Feng & Leiserson's Lemma 4, exactly when [u ‖ v]. O(1): the English
    and Hebrew orders disagree on [u] and [v] exactly then.
    @raise Invalid_argument for unknown leaves when [u <> v]. *)
val parallel : indexed -> int -> int -> bool

(** [to_dot t] renders the parse tree in Graphviz format (S nodes as
    circles, P nodes as doublecircles, strand leaves as boxes) — the
    Fig.-4 view of a computation. [leaf_attrs strand] contributes extra
    dot attributes to that strand's leaf (values must already be
    dot-quoted if needed) — the hook the lint pass uses to color
    finding-bearing strands. *)
val to_dot : ?leaf_attrs:(int -> (string * string) list) -> t -> string

(** [to_dag t] converts the parse tree back to the series-parallel dag it
    represents. Strand ids become dag strand ids 0..n-1 renumbered in serial
    order; the result also maps original leaf ids to dag ids. Useful for
    cross-checking tree-based and dag-based oracles. *)
val to_dag : t -> Dag.t * (int -> int)
