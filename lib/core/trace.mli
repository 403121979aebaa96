(** Recorded executions: the one decoder of the engine's tape
    ([Rader_runtime.Tape]).

    A trace is a recorded run's tape plus the labels of the locations it
    touches. One walk over the tape recounts every id the engine handed
    out — frames, strands, regions, spawn indices — and yields the views
    below; on demand it also builds the performance dag ({!dag}) or the
    canonical SP parse tree ({!sp_tree}). The same walk validates, so a
    trace built in memory ({!of_engine}) and one read from disk ({!load})
    pass one set of checks. Record once, analyze many times:

    {v rader record pbfs -o pbfs.trace && rader oracle pbfs.trace v}

    The file format is text: the header line ["rader-trace 2"], one tape
    entry per line, then one ["l <loc> <label>"] line per label. *)

type access = {
  a_loc : int;
  a_strand : int;
  a_frame : int;
  a_is_write : bool;
  a_view_aware : bool;  (** executed by an update / reduce / identity frame *)
}

type merge = {
  m_from : int;  (** region merged away (the dominated view) *)
  m_into : int;  (** surviving region *)
  m_at : int;  (** strands started before the merge *)
}

type spawn = {
  sp_index : int;  (** assigned when the child returns, after its own spawns *)
  sp_frame : int;  (** the spawning frame *)
  sp_strand : int;  (** the spawning frame's strand before the spawn *)
  sp_cont : int;  (** the continuation's first strand *)
}

type t = private {
  tape : int array;  (** the recorded run *)
  loc_labels : (int * string) list;  (** labels of locations that appear *)
  n_strands : int;
  accesses : access list;  (** serial order *)
  merges : merge list;  (** serial order *)
  reducer_reads : (int * int) list;  (** (reducer, strand), serial order *)
  aux_frames : (Rader_runtime.Tool.frame_kind * int * int) list;
      (** (kind, reducer, strand) of every view-aware frame, serial order *)
  spawns : spawn list;  (** in spawn-index order *)
  frames : (int * int * bool * Rader_runtime.Tool.frame_kind) list;
      (** (frame, parent, spawned, kind) in creation order; parent = -1 at
          the root *)
  dag : Rader_dag.Dag.t Lazy.t;  (** see {!dag} *)
}

(** [of_engine eng] decodes the tape of a completed recorded run.
    @raise Invalid_argument if the engine was not created with
    [~record:true], or its run did not complete. *)
val of_engine : Rader_runtime.Engine.t -> t

(** [dag t] is the performance dag, built by a second walk when first
    asked for. *)
val dag : t -> Rader_dag.Dag.t

(** [loc_label t loc] is the recorded label ("?" if unknown). *)
val loc_label : t -> int -> string

(** [save t path] writes the trace. *)
val save : t -> string -> unit

(** [load path] reads a trace back through the same decoder as
    {!of_engine}. Total: any bytes give [Ok] or [Error]. A missing or
    unreadable file, another format version, a bad integer, or a tape that
    is not a complete serial run is an [Error] naming the file and the
    line or tape entry, never an exception. *)
val load : string -> (t, string) result

(** [equal a b]: same tape and labels (for round-trip tests). *)
val equal : t -> t -> bool

(** [sp_tree t] is the canonical SP parse tree (paper §4, Fig. 4) of a
    {e serial} execution trace, with frame nesting read off the tape's
    enter and return entries: per frame, sync strands partition the
    strands and child subtrees into sync blocks; blocks are chained by the
    S spine; a block item composes in parallel exactly when it is a
    spawned child's subtree. Leaves are the trace's strand ids. Meaningful
    for traces recorded under [Steal_spec.none]. One walk, O(entries).
    @raise Invalid_argument if the trace has reduce frames. *)
val sp_tree : t -> Rader_dag.Sp_tree.t
