module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool
module Steal_spec = Rader_runtime.Steal_spec
module Obs = Rader_obs.Obs

type profile = {
  k : int;
  d : int;
  n_spawns : int;
  k_rel : int;
  rel_depths : int list;
}

(* Fold a recorded [Steal_spec.none] tape — whole, or the completed
   prefix of a crashed run — into the profile: each spawned child's return
   is one continuation of its parent's sync block, a sync starts a new
   block, and the maxima cover the blocks that completed.

   The same pass computes the program's *relevance profile* for spec
   pruning. A steal at continuation position [i] of a sync block can only
   perturb the analysis if some instrumented event — a cell access, a
   reducer-read, or a view-aware auxiliary frame — executes in the block's
   dynamic extent at or after that position: only then can the fresh
   region acquire a view, run a reduce, shift strand numbering, or change
   any access's region. So each frame keeps the largest continuation count
   at which an event was observed in its current sync block; a block
   whose count never reaches 1 cannot be perturbed by any steal. An event
   marks only the innermost frame; a returning child that saw one marks
   its parent, whose count cannot have changed while the child ran. [k_rel]
   is the maximum over all blocks (0 = no steal anywhere matters) and
   [rel_depths] the sorted depths of frames owning at least one
   perturbable block — the two coordinates {!spec_relevant} checks. *)
type pframe = {
  mutable conts : int; (* continuations in the current sync block *)
  mutable rel : int; (* the largest of them an event followed *)
  mutable saw : bool; (* an event happened in the frame's extent *)
  spawned : bool;
}

let profile_of_tape tape =
  let module Tape = Rader_runtime.Tape in
  let module Dynarr = Rader_support.Dynarr in
  let stack = Dynarr.create () in
  let max_k = ref 0 and max_d = ref 0 and n_spawns = ref 0 in
  let max_k_rel = ref 0 and rel_depth = Dynarr.create () in
  let saw_reducer = ref false in
  let mark f =
    if f.conts > f.rel then f.rel <- f.conts;
    f.saw <- true
  in
  let mark_top () = if not (Dynarr.is_empty stack) then mark (Dynarr.top stack) in
  (* The frame's current sync block is over: fold its marked maximum into
     the global relevance coordinates. *)
  let fold_block f =
    if f.rel >= 1 then begin
      max_k_rel := max !max_k_rel f.rel;
      let d = Dynarr.length stack - 1 in
      Dynarr.ensure rel_depth (d + 1) false;
      Dynarr.set rel_depth d true
    end;
    f.rel <- 0
  in
  Array.iter
    (fun e ->
      let tag = Tape.tag e and a = Tape.arg e in
      if tag = Tape.enter then begin
        if Tape.enter_kind a <> Tool.User_fn then begin
          saw_reducer := true;
          mark_top ()
        end;
        max_d := max !max_d (Dynarr.length stack);
        let spawned = Tape.enter_spawned a in
        Dynarr.push stack { conts = 0; rel = 0; saw = false; spawned }
      end
      else if tag = Tape.return then begin
        fold_block (Dynarr.top stack);
        let f = Dynarr.pop stack in
        if not (Dynarr.is_empty stack) then begin
          let p = Dynarr.top stack in
          if f.saw then mark p;
          if f.spawned then begin
            incr n_spawns;
            p.conts <- p.conts + 1;
            max_k := max !max_k p.conts
          end
        end
      end
      else if tag = Tape.sync then begin
        let f = Dynarr.top stack in
        fold_block f;
        f.conts <- 0
      end
      else if tag = Tape.access then mark_top ()
      else if tag = Tape.reducer_read then begin
        saw_reducer := true;
        mark_top ()
      end)
    tape;
  (* A program that performs no reducer operation at all — ostensibly
     deterministic control flow is spec-invariant, so it never will under
     any spec either — has no view-aware accesses anywhere: every steal is
     verdict-neutral regardless of plain accesses in its extent, and the
     whole family beyond [Steal_spec.none] is redundant. *)
  let k_rel, rel_depths =
    if not !saw_reducer then (0, [])
    else
      ( !max_k_rel,
        List.filter (Dynarr.get rel_depth) (List.init (Dynarr.length rel_depth) Fun.id) )
  in
  { k = !max_k; d = !max_d; n_spawns = !n_spawns; k_rel; rel_depths }

(* Record one [Steal_spec.none] run under the given budgets and fold its
   tape: the whole run, or the prefix a contained failure left. *)
let record_profile ?max_events ?deadline program =
  let eng = Engine.create ~record:true ?max_events ?deadline () in
  let failure =
    match Engine.run_result eng program with Ok _ -> None | Error f -> Some f
  in
  (profile_of_tape (Option.get (Engine.tape eng)), failure)

let profile program = fst (record_profile program)

(* A spec is *irrelevant* when every steal it could possibly perform lands
   strictly after the last instrumented event of its sync block: the stolen
   region then never materializes a view, every region merge is a no-op
   (no Reduce/Identity frames, no strand-numbering change), and every
   access keeps the region and SP relation it has under [Steal_spec.none]
   — so the replay's verdict is byte-identical to the no-steal replay that
   always runs first. Dropping such specs cannot change [racy_locs] or
   [reports]. Shapes that cannot be localized ([Always], [Probabilistic],
   [Spawn_indices], [Opaque]) are conservatively kept. *)
let spec_relevant prof (s : Steal_spec.t) =
  match s.Steal_spec.shape with
  | Steal_spec.Local_indices idxs -> List.exists (fun i -> i <= prof.k_rel) idxs
  | Steal_spec.At_depth dd -> List.mem dd prof.rel_depths
  | Steal_spec.Never | Steal_spec.Always | Steal_spec.Probabilistic
  | Steal_spec.Spawn_indices _ | Steal_spec.Opaque ->
      true

let prune_specs prof specs = List.filter (spec_relevant prof) specs

let specs_for_updates ~k ~d =
  let by_position =
    List.init k (fun i ->
        Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ i + 1 ])
  in
  let by_depth = List.init (d + 1) (fun dd -> Steal_spec.at_depth dd) in
  by_position @ by_depth

let specs_for_reductions ~k =
  let specs = ref [] in
  let push s = specs := s :: !specs in
  for a = 1 to k do
    (* single steal: elicits ⟨0..a⟩ ⊗ ⟨a..end⟩ *)
    push (Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_at_sync [ a ]);
    for b = a + 1 to k do
      (* right fold: elicits ⟨a..b⟩ ⊗ ⟨b..end⟩ then ⟨0..a⟩ ⊗ rest;
         left (eager) fold: elicits ⟨0..a⟩ ⊗ ⟨a..b⟩ then rest ⊗ ⟨b..end⟩ *)
      push (Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_at_sync [ a; b ]);
      push (Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ a; b ]);
      for c = b + 1 to k do
        (* middle pair first: elicits ⟨a..b⟩ ⊗ ⟨b..c⟩ (Theorem 7) *)
        push
          (Steal_spec.with_name
             (Steal_spec.at_local_indices
                ~policy:(Steal_spec.Reduce_schedule (fun ord -> if ord = 3 then 1 else 0))
                [ a; b; c ])
             (Printf.sprintf "triple(%d,%d,%d)" a b c))
      done
    done
  done;
  List.rev !specs

let all_specs ~k ~d =
  (Steal_spec.none :: specs_for_updates ~k ~d) @ specs_for_reductions ~k

(* ---------- symbolic no-steal scan ----------

   SP+ under [Steal_spec.none] degenerates to a closed form: no steal ever
   fires, so every access carries view id 0 and the detector's check
   collapses to "recorded access parallel with the current one, and the
   current one view-oblivious" (the view-aware branch compares equal view
   ids and never fires). Its shadow keeps a recorded access unless it is
   serial with the current strand, so by transitivity of SP precedence the
   retained entry is parallel to the current access whenever any dropped
   one was — per location, the single-slot shadow misses nothing. The
   no-steal verdict is therefore computable from the recorded trace alone:

     racy(none)(loc) ⟺ ∃ accesses x before y at loc, strands parallel
                        (parse-tree Lemma 4), at least one a write, and
                        y view-oblivious.

   When additionally x is view-oblivious, both endpoints are plain user
   code: they execute, at the same location, under *every* steal spec
   (steals never perturb view-oblivious strands of an ostensibly
   deterministic program), stay parallel (the SP relation of user strands
   is program-determined), and the later-endpoint-oblivious check fires
   regardless of view ids — the location races on every spec of the
   family. That is the strongest verdict the analyzer can issue (lint
   R006) and the basis for skipping the no-steal replay entirely when the
   scan proves it clean. *)

type certificate =
  | No_parallel_pair  (** no two accesses are ever logically parallel *)
  | Parallel_reads_only  (** parallel accesses exist but none writes *)
  | Va_suppressed
      (** a parallel pair with a write exists, but every such pair's later
          endpoint is view-aware: clean without steals; only the residual
          replays can decide the stolen schedules *)

type loc_scan = {
  ls_loc : int;
  ls_first : int;  (** witness pair: access indices, serial order *)
  ls_second : int;
  ls_always : bool;
      (** both witness endpoints view-oblivious: racy under every spec *)
}

type scan = {
  scan_racy : loc_scan list;  (** ascending location *)
  scan_clean : (int * certificate) list;  (** ascending location *)
  scan_truncated : bool;
      (** some location blew the pair budget: its verdict (and every
          skip decision resting on scan completeness) is void *)
  scan_prof : profile Lazy.t;  (** the scanned run's profile *)
}

(* Within a location the accesses come in serial order, so an earlier
   access's strand never has the larger id; strand ids are English ranks,
   so two accesses on distinct strands are parallel exactly when the
   earlier one has the larger Hebrew rank. *)
let scan_trace ?(max_pairs = 100_000) (trace : Trace.t) =
  let hebrew = (Trace.index trace).Rader_dag.Sp_tree.hebrew in
  let { Trace.g_locs; g_start; g_order } = Trace.by_loc trace in
  let strand = trace.Trace.acc_strand and write = trace.Trace.acc_write in
  let view_aware = trace.Trace.acc_view_aware in
  let truncated = ref false in
  let racy = ref [] in
  let clean = ref [] in
  for k = Array.length g_locs - 1 downto 0 do
    let loc = g_locs.(k) and lo = g_start.(k) and hi = g_start.(k + 1) in
    let budget = ref max_pairs in
    let any_parallel = ref false in
    let suppressed = ref false in
    let first_racy = ref (-1, -1) in
    let always = ref false in
    (try
       for i = lo to hi - 2 do
         let x = g_order.(i) in
         let sx = strand.(x) in
         let hx = hebrew.(sx) in
         for j = i + 1 to hi - 1 do
           if !budget <= 0 then begin
             truncated := true;
             raise Exit
           end;
           decr budget;
           let y = g_order.(j) in
           let sy = strand.(y) in
           if sx <> sy && hx > hebrew.(sy) then begin
             any_parallel := true;
             if write.(x) || write.(y) then
               if not view_aware.(y) then begin
                 if fst !first_racy < 0 || not view_aware.(x) then first_racy := (x, y);
                 if not view_aware.(x) then begin
                   always := true;
                   raise Exit (* strongest verdict: stop *)
                 end
               end
               else suppressed := true
           end
         done
       done
     with Exit -> ());
    match !first_racy with
    | (x, y) when x >= 0 ->
        racy := { ls_loc = loc; ls_first = x; ls_second = y; ls_always = !always } :: !racy
    | _ ->
        let cert =
          if !suppressed then Va_suppressed
          else if !any_parallel then Parallel_reads_only
          else No_parallel_pair
        in
        clean := (loc, cert) :: !clean
  done;
  {
    scan_racy = !racy;
    scan_clean = !clean;
    scan_truncated = !truncated;
    scan_prof = lazy (profile_of_tape trace.Trace.tape);
  }

let symbolic_scan ?max_pairs program =
  let eng = Engine.create ~record:true () in
  match Engine.run_result eng program with
  | Error f -> Error f
  | Ok _ -> Ok (scan_trace ?max_pairs (Trace.of_engine eng))

type span = {
  span_spec : string;
  span_worker : int;
  span_t0_us : float;
  span_t1_us : float;
}

type obs_summary = {
  obs_counters : Obs.counters;
  obs_spans : span list;
  obs_phases : (string * float) list;
}

type result = {
  prof : profile;
  n_specs : int;
  n_pruned : int;
  n_skipped : int;
  n_run : int;
  racy_locs : int list;
  reports : Report.t list;
  per_spec : (Steal_spec.t * int list) list;
  incomplete : (string * Diag.failure) list;
  complete : bool;
  obs : obs_summary option;
}

let take n xs =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go n [] xs

(* What one spec replay produced. [Not_run] = the sweep-wide deadline
   expired before the spec was dispatched. *)
type spec_outcome =
  | Ran of {
      locs : int list;
      races : Report.t list;
      failure : Diag.failure option;
      (* observability (with_obs only): this replay's deterministic
         counter delta, plus wall-clock span coordinates for the trace *)
      counters : Obs.counters option;
      worker : int;
      t0_us : float;
      t1_us : float;
    }
  | Not_run

let exhaustive_check ?max_specs ?max_events ?deadline ?(jobs = 1)
    ?(with_obs = false) ?(prune = false) ?scan ?reach program =
  let abs_deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline in
  let past_deadline () =
    match abs_deadline with
    | Some dl -> Unix.gettimeofday () > dl
    | None -> false
  in
  let obs_was = Obs.enabled () in
  if with_obs then Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled obs_was) @@ fun () ->
  let phase_profile = Obs.phase "profile" in
  let phase_replay = Obs.phase "replay" in
  let phase_merge = Obs.phase "merge" in
  let prof_snap = if with_obs then Some (Obs.snapshot ()) else None in
  (* The profile comes from a recorded run: the scan's own, or one run
     here under the replays' budgets. *)
  let prof, prof_failure =
    Obs.timed phase_profile (fun () ->
        match scan with
        | Some s -> (Lazy.force s.scan_prof, None)
        | None -> record_profile ?max_events ?deadline:abs_deadline program)
  in
  let prof_counters = Option.map Obs.since prof_snap in
  let specs = all_specs ~k:prof.k ~d:prof.d in
  let n_specs = List.length specs in
  (* Pruning and the symbolic fast path are sound only against a complete
     relevance profile: if the profiling run crashed, keep the whole
     family. *)
  let scan = if prof_failure = None then scan else None in
  let specs, n_pruned, n_skipped =
    match scan with
    | Some s ->
        (* Symbolic selection: every spec outside the residual set is
           provably verdict-identical to [Steal_spec.none] (the relevance
           lemma), and [none] itself is needed only when the scan found —
           or, truncated, could have missed — a no-steal race. *)
        let keep (sp : Steal_spec.t) =
          match sp.Steal_spec.shape with
          | Steal_spec.Never -> s.scan_racy <> [] || s.scan_truncated
          | _ -> spec_relevant prof sp
        in
        let kept = List.filter keep specs in
        (kept, 0, n_specs - List.length kept)
    | None ->
        if prune && prof_failure = None then begin
          let kept = prune_specs prof specs in
          (kept, n_specs - List.length kept, 0)
        end
        else (specs, 0, 0)
  in
  let specs, dropped =
    match max_specs with
    | Some m when m < n_specs -> take m specs
    | _ -> (specs, [])
  in
  let specs = Array.of_list specs in
  (* Fan the replays out across domains. Each worker owns one engine +
     detector pair and recycles it per spec (Engine.reset ~tool /
     Sp_plus.reset) instead of reallocating; each replay's verdicts are
     returned as a self-contained outcome, so workers never share mutable
     state. Under [with_obs] each replay also carries its own counter
     delta — replays are deterministic, so the deltas (and their
     spec-order sum) are independent of which worker ran them. *)
  let outcomes, _ =
    Obs.timed phase_replay (fun () ->
        Parallel_sweep.map ~jobs ~stop:past_deadline
          ~init:(fun wid ->
            let eng = Engine.create () in
            let det = Sp_plus.attach ?reach eng in
            (wid, eng, det))
          ~task:(fun (wid, eng, det) i ->
            (* Re-check the sweep deadline at dispatch: a spec handed out
               in the window between the queue's [stop] poll and the task
               starting (jobs >= 2) is charged to the deadline exactly
               like the serial sweep charges it, instead of racing a
               doomed replay whose events would skew the obs summary. *)
            if past_deadline () then Not_run
            else begin
            Engine.reset ~tool:(Sp_plus.tool det) ~spec:specs.(i) ?max_events
              ?deadline:abs_deadline eng;
            Sp_plus.reset det;
            let t0_us = if with_obs then Obs.now_us () else 0.0 in
            let snap = if with_obs then Some (Obs.snapshot ()) else None in
            let failure =
              match Engine.run_result eng program with
              | Ok _ -> None
              | Error f -> Some f
            in
            (* the detector's verdicts over the completed prefix still count *)
            Ran
              {
                locs = Sp_plus.racy_locs det;
                races = Sp_plus.races det;
                failure;
                counters = Option.map Obs.since snap;
                worker = wid;
                t0_us;
                t1_us = (if with_obs then Obs.now_us () else 0.0);
              }
            end)
          ~skipped:(fun _ -> Not_run)
          (Array.length specs))
  in
  (* Merge in spec order: the fold below is exactly the loop body of the
     serial sweep, so the result — report order, dedup decisions,
     [incomplete] order — is identical no matter how many domains ran. *)
  let seen = Hashtbl.create 32 in
  let reports = ref [] in
  let per_spec = ref [] in
  let incomplete =
    ref (match prof_failure with Some f -> [ ("profile", f) ] | None -> [])
  in
  let n_run = ref 0 in
  let merged = Option.map Obs.copy prof_counters in
  let spans = ref [] in
  Obs.timed phase_merge (fun () ->
      Array.iteri
        (fun i outcome ->
          let spec = specs.(i) in
          match outcome with
          | Not_run ->
              (* out of time: charge the remaining specs to the deadline without
                 running them, so the caller sees exactly what was not covered *)
              incomplete :=
                ( spec.Steal_spec.name,
                  Diag.Budget_exceeded (Diag.Deadline (Option.get abs_deadline)) )
                :: !incomplete
          | Ran { locs; races; failure; counters; worker; t0_us; t1_us } ->
              incr n_run;
              (match failure with
              | None -> ()
              | Some f -> incomplete := (spec.Steal_spec.name, f) :: !incomplete);
              (match (merged, counters) with
              | Some into, Some c ->
                  Obs.add ~into c;
                  spans :=
                    {
                      span_spec = spec.Steal_spec.name;
                      span_worker = worker;
                      span_t0_us = t0_us;
                      span_t1_us = t1_us;
                    }
                    :: !spans
              | _ -> ());
              per_spec := (spec, locs) :: !per_spec;
              List.iter
                (fun r ->
                  if not (Hashtbl.mem seen r.Report.subject) then begin
                    Hashtbl.replace seen r.Report.subject ();
                    reports := r :: !reports
                  end)
                races)
        outcomes);
  let m = Option.value max_specs ~default:0 in
  List.iter
    (fun (spec : Steal_spec.t) ->
      incomplete :=
        (spec.Steal_spec.name, Diag.Budget_exceeded (Diag.Max_specs m))
        :: !incomplete)
    dropped;
  let incomplete = List.rev !incomplete in
  let obs =
    Option.map
      (fun obs_counters ->
        {
          obs_counters;
          obs_spans = List.rev !spans;
          obs_phases =
            List.map
              (fun p -> (Obs.phase_name p, Obs.phase_seconds p))
              [ phase_profile; phase_replay; phase_merge ];
        })
      merged
  in
  {
    prof;
    n_specs;
    n_pruned;
    n_skipped;
    n_run = !n_run;
    racy_locs = List.sort_uniq compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []);
    reports = List.rev !reports;
    per_spec = List.rev !per_spec;
    incomplete;
    complete = incomplete = [];
    obs;
  }

let witness_spec res loc =
  List.find_map
    (fun (spec, locs) -> if List.mem loc locs then Some spec else None)
    res.per_spec
