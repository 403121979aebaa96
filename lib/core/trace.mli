(** Recorded executions: the one decoder of the engine's tape
    ([Rader_runtime.Tape]).

    A trace is a recorded run's tape plus the labels of the locations it
    touches. One walk over the tape recounts every id the engine handed
    out — frames, strands, regions, spawn indices — and stores the logs
    below in flat arrays, one slot per item, in serial order unless said
    otherwise. For a trace with no reduce frame (one recorded under
    [Steal_spec.none], say) the same walk fills the canonical SP parse
    tree's index ({!index}); on demand a further walk builds the
    performance dag ({!dag}) or the boxed parse tree ({!sp_tree}). The
    walk validates, so a trace built in memory ({!of_engine}) and one read
    from disk ({!load}) pass one set of checks. Record once, analyze many
    times:

    {v rader record pbfs -o pbfs.trace && rader oracle pbfs.trace v}

    The file format is text: the header line ["rader-trace 2"], one tape
    entry per line, then one ["l <loc> <label>"] line per label.

    The arrays belong to the trace: read them, never write them. *)

type t = private {
  tape : int array;  (** the recorded run *)
  label_locs : int array;  (** labelled locations, ascending *)
  label_text : string array;  (** their labels *)
  n_strands : int;
  acc_loc : int array;  (** per access: its location *)
  acc_strand : int array;  (** the strand that made it *)
  acc_frame : int array;  (** the frame that made it *)
  acc_write : bool array;
  acc_view_aware : bool array;
      (** made by an update / reduce / identity frame *)
  rread_reducer : int array;  (** per reducer-read: the reducer *)
  rread_strand : int array;  (** the strand that made it *)
  aux_kind : Rader_runtime.Tool.frame_kind array;
      (** per view-aware frame: its kind *)
  aux_reducer : int array;  (** its reducer *)
  aux_strand : int array;  (** its first strand *)
  frame_parent : int array;
      (** per frame id (ids count up in creation order): its parent, -1 at
          the root *)
  frame_kind : Rader_runtime.Tool.frame_kind array;
  frame_spawned : bool array;
  spawn_frame : int array;
      (** per spawn index (assigned when the child returns, after its own
          spawns): the spawning frame *)
  spawn_strand : int array;  (** the spawning frame's strand before the spawn *)
  spawn_cont : int array;  (** the continuation's first strand *)
  merge_from : int array;  (** per merge: the region merged away *)
  merge_into : int array;  (** the surviving region *)
  merge_at : int array;  (** strands started before the merge *)
  ix : Rader_dag.Sp_tree.indexed option;  (** see {!index} *)
  groups : groups Lazy.t;  (** see {!by_loc} *)
  dag : Rader_dag.Dag.t Lazy.t;  (** see {!dag} *)
}

(** Accesses grouped by location: group [k] holds the accesses to
    [g_locs.(k)], namely [g_order.(i)] for [g_start.(k) <= i <
    g_start.(k + 1)], in serial order. *)
and groups = {
  g_locs : int array;  (** accessed locations, ascending *)
  g_start : int array;  (** one more entry than [g_locs] *)
  g_order : int array;  (** access indices *)
}

(** [of_engine eng] decodes the tape of a completed recorded run.
    @raise Invalid_argument if the engine was not created with
    [~record:true], or its run did not complete. *)
val of_engine : Rader_runtime.Engine.t -> t

(** [index t] is the index of the canonical SP parse tree (paper §4,
    Fig. 4) of [t], filled by the decoding walk: per strand its Hebrew
    rank and its all-S class (see {!Rader_dag.Sp_tree.indexed}). Strand
    ids are the English ranks: without reduce frames they number the
    strands in serial order.
    @raise Invalid_argument if the trace has reduce frames. *)
val index : t -> Rader_dag.Sp_tree.indexed

(** [by_loc t] groups the accesses by location, in O(accesses +
    locations) when location ids are dense (recorded ids are), and by a
    stable sort otherwise. Computed once. *)
val by_loc : t -> groups

(** [dag t] is the performance dag, built by a second walk when first
    asked for. *)
val dag : t -> Rader_dag.Dag.t

(** [loc_label t loc] is the recorded label ("?" if unknown), by binary
    search over [label_locs]. *)
val loc_label : t -> int -> string

(** [save t path] writes the trace. *)
val save : t -> string -> unit

(** [load path] reads a trace back through the same decoder as
    {!of_engine}. Total: any bytes give [Ok] or [Error]. A missing or
    unreadable file, another format version, a bad integer, or a tape that
    is not a complete serial run is an [Error] naming the file and the
    line or tape entry, never an exception. When a location has several
    label lines, the first one counts. *)
val load : string -> (t, string) result

(** [equal a b]: same tape and labels (for round-trip tests). *)
val equal : t -> t -> bool

(** [sp_tree t] is the canonical SP parse tree (paper §4, Fig. 4) as a
    boxed tree, for printing it: per frame, sync strands partition the
    strands and child subtrees into sync blocks; blocks are chained by the
    S spine; a block item composes in parallel exactly when it is a
    spawned child's subtree. Leaves are the trace's strand ids. Built by
    a second walk, O(entries); queries go through {!index} instead.
    @raise Invalid_argument if the trace has reduce frames. *)
val sp_tree : t -> Rader_dag.Sp_tree.t
