(** Reducer-misuse lint over the {!Ir} — rules with stable IDs.

    Each rule inspects the canonical SP parse tree and the recorded
    provenance of one serial run; no detector shadow state is involved.
    Findings carry the witness strands, so they can be rendered onto the
    parse tree ({!to_dot}).

    {2 Rule catalog}

    - {b R001} (error) — {e view-read race}: two reads of the same reducer
      at strands with different peer sets ({!Verdict.view_read}); the
      observed value depends on scheduling (paper §3). Certain from
      structure.
    - {b R002} (error) — {e raw shared access}: a view-oblivious
      [Cell]/[Rarray] access logically parallel (their LCA in the parse
      tree is a P node, Feng & Leiserson Lemma 4: [Sp_tree.parallel]) with
      a view-oblivious write to the same location — a determinacy race no
      reducer protects.
    - {b R003} (info) — {e dead reducer}: a reducer created but never read
      or updated after creation; delete it or use it.
    - {b R004} (warning) — {e schedule-sensitive reduction}: the program's
      result differs between eager and at-sync reduction under the
      all-steals schedule, i.e. the reduction order is observable — the
      monoid is not associative/commutative enough for this use. Found
      differentially (two replays), skipped if either replay crashes.
    - {b R005} (warning) — {e view escape}: a location written through a
      view-aware frame (update body) is also accessed view-obliviously on
      a logically parallel strand, with a write on at least one side — a
      view's guts leaked out of its strand (the Fig.-1 shallow-copy bug).
    - {b R006} (error) — {e spec-independent race}: the symbolic verifier
      proved the location races under {e every} steal spec of the §7
      family (both witness endpoints view-oblivious), cross-checked
      against the residual replays — the strongest diagnostic the tool
      can issue. Only emitted when a {!Witness.t} is supplied (it needs
      the witness replays).

    Exit-code mapping in the CLI: any finding → 1, none → 0, usage → 2. *)

type severity = Error | Warning | Info

type finding = {
  rule : string;  (** stable id, ["R001"] .. ["R006"] *)
  severity : severity;
  subject : string;
      (** compact, space-free subject key, e.g. ["reducer:0"] or
          ["loc:12(list)"] — stable across runs of the same workload *)
  message : string;  (** human-readable one-liner *)
  strands : int list;  (** witness strands (leaves of the parse tree) *)
}

val severity_to_string : severity -> string

(** [(id, severity, synopsis)] for every rule, in id order. *)
val rules : (string * severity * string) list

(** [run ir] evaluates every rule and returns the findings sorted by rule
    id then subject. [program] enables the differential rule R004 (it
    needs two extra replays); without it R004 is skipped. [verify]
    enables R006, fed by the symbolic verification result.
    Location-pair rules (R002/R005) examine at most [max_pairs] strand
    pairs per location (default [100_000]) and stop at the first witness
    per (rule, location). *)
val run :
  ?program:(Rader_runtime.Engine.ctx -> int) ->
  ?verify:Witness.t ->
  ?max_pairs:int ->
  Ir.t ->
  finding list

(** [to_table findings] is an aligned human-readable table (one line per
    finding, header included); ["no findings\n"] when clean. *)
val to_table : finding list -> string

(** [to_json ~program findings] is one JSON object:
    [{"program": ..., "findings": [{rule, severity, subject, message,
    strands}, ...]}]. *)
val to_json : program:string -> finding list -> string

(** [to_dot ir findings] renders the parse tree with finding-bearing
    leaves filled: red for errors, orange for warnings, grey for info
    (the worst severity wins per strand). *)
val to_dot : Ir.t -> finding list -> string

(** [baseline_lines ~program findings] is one stable line per finding —
    ["PROGRAM RULE SUBJECT"] — for checked-in expected-findings baselines
    (see the CI lint gate). Sorted. *)
val baseline_lines : program:string -> finding list -> string list
