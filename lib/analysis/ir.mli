(** The analyzable intermediate representation of one profiling run.

    [of_program] executes a program once, instrumented and recorded, under
    [Steal_spec.none] — the canonical serial execution every offline
    analysis in the paper is defined against — and lifts the recorded
    trace into an IR: the canonical SP parse tree (paper §4, Fig. 4) with
    its index (O(1) parallelism, O(depth) path queries), plus
    strand↔reducer provenance joining the tree's leaves back to the
    reducer operations and view-aware auxiliary frames that executed
    them. The static passes ({!Verdict}, {!Lint})
    answer their questions with tree queries alone — no replay, no
    detector shadow state.

    Under [Steal_spec.none] no continuation is stolen, so no identity or
    reduce frame ever runs and the trace's dag is the pure user
    computation ({!Rader_core.Trace.sp_tree}'s precondition); update
    frames do run (serially, as called children) and their strands appear
    as ordinary leaves. *)

type t = {
  trace : Rader_core.Trace.t;  (** the recorded serial execution *)
  tree : Rader_dag.Sp_tree.t;  (** canonical SP parse tree of [trace] *)
  ix : Rader_dag.Sp_tree.indexed;  (** query index over [tree] *)
  result : int;  (** the program's result (ostensibly deterministic) *)
  reads_by_reducer : (int, int list) Hashtbl.t;
      (** reducer id → strands of its reducer-reads (create / get / set),
          serial order — the peers the Peer-Set algorithm compares *)
  updates_by_reducer : (int, int list) Hashtbl.t;
      (** reducer id → first strands of its update frames, serial order *)
  n_reducers : int;  (** reducer ids are [0 .. n_reducers - 1] *)
}

(** [of_program program] runs [program] once (recorded, no steals) and
    builds the IR. Total: a contained crash of the program under test
    yields [Error] with the structured diagnostic instead of a partial —
    hence structurally unsound — tree.
    @param max_events event budget for the recorded run (see
    [Engine.create]).
    @param deadline absolute wall-clock deadline for the recorded run (see
    [Engine.create]). *)
val of_program :
  ?max_events:int ->
  ?deadline:float ->
  (Rader_runtime.Engine.ctx -> int) ->
  (t, Rader_core.Diag.failure) result

(** [reducer_ids ir] is the ids of every reducer the run created,
    ascending. *)
val reducer_ids : t -> int list

(** [reads ir rid] is the reducer-read strands of reducer [rid] in serial
    order ([[]] for an unknown id). The first entry is the creation read. *)
val reads : t -> int -> int list

(** [updates ir rid] is the update-frame strands of reducer [rid] in
    serial order. *)
val updates : t -> int -> int list

(** [loc_label ir loc] is the source label of an instrumented location. *)
val loc_label : t -> int -> string

(** [accesses ir] is the instrumented access log in serial order. *)
val accesses : t -> Rader_core.Trace.access list
