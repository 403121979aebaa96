module Coverage = Rader_core.Coverage
module Steal_spec = Rader_runtime.Steal_spec
module Engine = Rader_runtime.Engine

(* The closed-form §7 verdict, computed from the PR 4 IR. Three facts make
   it exact (soundness argument in DESIGN.md §14):

   1. SP+ under [Steal_spec.none] reduces to a parse-tree query — racy iff
      some serially-ordered access pair at the location is logically
      parallel, writes at least once, and has a view-oblivious later
      endpoint ([Coverage.scan_trace] recomputes exactly that).
   2. Every spec outside the *residual set* — the [spec_relevant] specs of
      the family minus [none] — replays byte-identically to [none] (the
      PR 4 relevance lemma), so the whole-family verdict is determined by
      the no-steal verdict plus the residual replays.
   3. A no-steal-racy pair whose endpoints are *both* view-oblivious stays
      racy under every spec of the family: plain user strands execute at
      the same location under any steal placement, their SP relation is
      program-determined, and the later-endpoint-oblivious check fires
      regardless of view ids. Those locations are *spec-independent* races
      (lint R006).

   What stays out of closed-form reach — the measured incompleteness
   boundary — is exactly the residual set: a steal there can relocate a
   view-aware access onto a freshly created view, run identity/reduce
   code the no-steal IR never saw, and change view-id comparisons. Those
   few specs are replayed, not predicted. *)

type t = {
  scan : Coverage.scan;  (** per-location no-steal verdict + certificates *)
  prof : Coverage.profile;
  residual : Steal_spec.t list;
      (** relevant specs beyond [none], in family order — the only specs
          whose verdict the closed form cannot predict *)
  n_family : int;  (** size of the full §7 family for this profile *)
}

let of_scan ~prof scan =
  let family = Coverage.all_specs ~k:prof.Coverage.k ~d:prof.Coverage.d in
  let residual =
    List.filter
      (fun (s : Steal_spec.t) ->
        s.Steal_spec.shape <> Steal_spec.Never
        && Coverage.spec_relevant prof s)
      family
  in
  { scan; prof; residual; n_family = List.length family }

let analyze ?max_pairs ~prof (ir : Ir.t) =
  of_scan ~prof (Coverage.scan_trace ?max_pairs ir.Ir.trace)

let racy_locs t =
  List.map (fun ls -> ls.Coverage.ls_loc) t.scan.Coverage.scan_racy

let always_racy_locs t =
  List.filter_map
    (fun (ls : Coverage.loc_scan) ->
      if ls.Coverage.ls_always then Some ls.Coverage.ls_loc else None)
    t.scan.Coverage.scan_racy

let complete t = not t.scan.Coverage.scan_truncated

(* Specs a sound checker must still replay: the no-steal spec whenever the
   scan found (or could have missed) a race there, then the residual set.
   Empty exactly when the whole family is proved race-free with zero
   replays. *)
let replay_specs t =
  let need_none =
    t.scan.Coverage.scan_racy <> [] || t.scan.Coverage.scan_truncated
  in
  (if need_none then [ Steal_spec.none ] else []) @ t.residual

let certificate_string = function
  | Coverage.No_parallel_pair -> "no parallel pair"
  | Coverage.Parallel_reads_only -> "parallel reads only"
  | Coverage.Va_suppressed -> "view-aware endpoints only"
