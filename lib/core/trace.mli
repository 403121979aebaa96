(** Recorded executions as first-class values, with a text serialization.

    A trace captures everything the offline analyses need from one
    instrumented run: the performance dag, the access log, the
    region-merge log, the reducer-read log, the spawn log and the
    location labels. Traces support a "record once, analyze many" flow —
    run the program with [~record:true], {!save} the trace, then run the
    brute-force oracles (or visualization) later without re-executing:

    {v rader record pbfs -o pbfs.trace && rader oracle pbfs.trace v}

    The format is a line-oriented UTF-8 text format, versioned by its
    header line. *)

type t = {
  dag : Rader_dag.Dag.t;
  accesses : Rader_runtime.Engine.access list;  (** serial order *)
  merges : Rader_runtime.Engine.merge_rec list;  (** serial order *)
  reducer_reads : (int * int) list;  (** (reducer, strand), serial order *)
  spawns : (int * int * int) list;
      (** (spawn index, spawn strand, continuation strand) *)
  frames : (int * int * bool * Rader_runtime.Tool.frame_kind) list;
      (** (frame, parent, spawned, kind) in creation order; parent = -1 at
          the root *)
  loc_labels : (int * string) list;  (** labels of locations that appear *)
}

(** [of_engine eng] extracts the trace of a recorded run.
    @raise Invalid_argument if the engine was not created with
    [~record:true]. *)
val of_engine : Rader_runtime.Engine.t -> t

(** [loc_label t loc] is the recorded label ("?" if unknown). *)
val loc_label : t -> int -> string

(** [save t path] writes the trace. *)
val save : t -> string -> unit

(** [load path] reads a trace back.
    @raise Failure on malformed input or version mismatch. *)
val load : string -> t

(** [equal a b] is structural equality (for round-trip tests). *)
val equal : t -> t -> bool

(** [sp_tree t] reconstructs the canonical SP parse tree (paper §4,
    Fig. 4) of a {e serial} execution trace: per frame, sync strands
    partition the strands and child subtrees into sync blocks; blocks are
    chained by the S spine; a block item composes in parallel exactly when
    it is a spawned child's subtree. Leaves are the trace's strand ids.
    Only meaningful for traces recorded under [Steal_spec.none] (the user
    dag). One pass over the strands in serial order, O(strands + frames).
    @raise Invalid_argument if the trace contains reduce strands, or if
    its frames are not those of a recorded serial execution: frame ids
    in creation order from root 0, every frame with a strand, each
    frame's subtree one contiguous run of strands. *)
val sp_tree : t -> Rader_dag.Sp_tree.t
