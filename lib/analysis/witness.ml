module Coverage = Rader_core.Coverage
module Report = Rader_core.Report
module Diag = Rader_core.Diag
module Steal_spec = Rader_runtime.Steal_spec
module Trace = Rader_core.Trace
module Obs = Rader_obs.Obs

(* The `rader verify` driver: symbolic whole-family verdict + replay
   confirmation of every witness. Soundness comes from running the actual
   sweep over exactly [Symbolic.replay_specs] — done by
   [Coverage.exhaustive_check ~scan], whose racy_locs/reports are
   byte-identical to the enumerated sweep by the relevance lemma — so the
   symbolic layer here only *explains* (witness pairs, certificates,
   spec-independence) and *accelerates* (skipped replays); it never
   decides a verdict a replay did not confirm. *)

type verdict =
  | Racy of {
      witness : string;  (** replay-confirmed witness spec name *)
      first_strand : int;
      second_strand : int;
      pair : string;  (** e.g. "write/write" *)
      always : bool;  (** racy on every spec of the family (R006) *)
    }
  | Clean of {
      cert : Coverage.certificate option;
          (** [None]: location only surfaced in replays (unscanned) *)
      cleared_by : int;  (** residual replays that also had to come back clean *)
    }

type row = { r_loc : int; r_label : string; r_verdict : verdict }

type t = {
  program : string;
  prof : Coverage.profile;
  n_specs : int;  (** full §7 family size *)
  n_replays : int;  (** spec replays actually run *)
  n_skipped : int;  (** specs eliminated symbolically *)
  n_residual : int;
  racy_locs : int list;  (** byte-identical to the enumerated sweep's *)
  reports : Report.t list;
  rows : row list;  (** ascending location *)
  spec_independent : int list;  (** R006 locations, ascending *)
  unconfirmed : int list;
      (** scan-claimed racy locations no replay confirmed — a symbolic
          over-approximation; the replayed verdict above stands *)
  truncated : bool;  (** pair scan blew its budget somewhere *)
  incomplete : (string * Diag.failure) list;
  complete : bool;
  res : Coverage.result;  (** the underlying sweep, for metrics/obs *)
}

(* Per-location rows from arrays indexed by location (ids are the
   registry's, dense from 0): each lookup is O(1), and the rows come out in
   time linear in locations plus the replays' verdicts. *)
let assemble ~name (ir : Ir.t) (sym : Symbolic.t) (res : Coverage.result) =
  let tr = ir.Ir.trace and scan = sym.Symbolic.scan in
  let n_locs =
    List.fold_left
      (fun m l -> Int.max m (l + 1))
      (Array.fold_left (fun m l -> Int.max m (l + 1)) 0 (Trace.by_loc tr).Trace.g_locs)
      res.Coverage.racy_locs
  in
  let racy = Array.make n_locs false in
  List.iter (fun l -> racy.(l) <- true) res.Coverage.racy_locs;
  let report = Array.make n_locs None in
  List.iter
    (fun (r : Report.t) ->
      let l = r.Report.subject in
      if l >= 0 && l < n_locs && report.(l) = None then report.(l) <- Some r)
    res.Coverage.reports;
  let pair = Array.make n_locs None and cert = Array.make n_locs None in
  List.iter (fun (ls : Coverage.loc_scan) -> pair.(ls.Coverage.ls_loc) <- Some ls) scan.Coverage.scan_racy;
  List.iter (fun (l, c) -> cert.(l) <- Some c) scan.Coverage.scan_clean;
  (* the first spec, in family order, whose replay elicited each location *)
  let witness = Array.make n_locs None in
  List.iter
    (fun ((sp : Steal_spec.t), locs) ->
      List.iter (fun l -> if witness.(l) = None then witness.(l) <- Some sp.Steal_spec.name) locs)
    res.Coverage.per_spec;
  let crashed =
    List.filter_map
      (fun (n, _) -> if n = "profile" then None else Some n)
      res.Coverage.incomplete
  in
  (* R006: the scan's both-oblivious pair proves the race on every
     non-residual spec; the residual replays (minus crashed ones) are
     cross-checked to have elicited it too: a location is racy everywhere
     when every surviving replay counts it once. *)
  let survivors = ref 0 in
  let elicited = Array.make n_locs 0 and last = Array.make n_locs (-1) in
  List.iteri
    (fun i ((sp : Steal_spec.t), locs) ->
      if not (List.mem sp.Steal_spec.name crashed) then begin
        incr survivors;
        List.iter
          (fun l ->
            if last.(l) <> i then begin
              last.(l) <- i;
              elicited.(l) <- elicited.(l) + 1
            end)
          locs
      end)
    res.Coverage.per_spec;
  let spec_independent =
    List.filter
      (fun loc -> racy.(loc) && elicited.(loc) = !survivors)
      (Symbolic.always_racy_locs sym)
  in
  let always = Array.make n_locs false in
  List.iter (fun l -> always.(l) <- true) spec_independent;
  let unconfirmed = List.filter (fun loc -> not racy.(loc)) (Symbolic.racy_locs sym) in
  let label loc =
    match Trace.loc_label tr loc with
    | "" | "?" -> (
        match report.(loc) with
        | Some r -> r.Report.subject_label
        | None -> Printf.sprintf "loc%d" loc)
    | l -> l
  in
  let access_kind a = if tr.Trace.acc_write.(a) then "write" else "read" in
  let n_residual = List.length sym.Symbolic.residual in
  let rows = ref [] in
  for loc = n_locs - 1 downto 0 do
    let verdict =
      if racy.(loc) then
        let first_strand, second_strand, pair =
          match pair.(loc) with
          | Some { Coverage.ls_first = x; ls_second = y; _ } ->
              ( tr.Trace.acc_strand.(x),
                tr.Trace.acc_strand.(y),
                access_kind x ^ "/" ^ access_kind y )
          | None -> (
              (* steal-dependent: the witness endpoints live in the
                 replay's report, not the no-steal IR *)
              match report.(loc) with
              | Some r ->
                  ( -1,
                    r.Report.second_strand,
                    Report.access_str r.Report.first_access
                    ^ "/"
                    ^ Report.access_str r.Report.second_access )
              | None -> (-1, -1, "?"))
        in
        let witness =
          Option.value witness.(loc) ~default:"?" (* unreachable: racy locs come from per_spec *)
        in
        Some (Racy { witness; first_strand; second_strand; pair; always = always.(loc) })
      else if pair.(loc) <> None || cert.(loc) <> None then
        Some (Clean { cert = cert.(loc); cleared_by = n_residual })
      else None
    in
    Option.iter (fun v -> rows := { r_loc = loc; r_label = label loc; r_verdict = v } :: !rows) verdict
  done;
  {
    program = name;
    prof = res.Coverage.prof;
    n_specs = res.Coverage.n_specs;
    n_replays = res.Coverage.n_run;
    n_skipped = res.Coverage.n_skipped;
    n_residual;
    racy_locs = res.Coverage.racy_locs;
    reports = res.Coverage.reports;
    rows = !rows;
    spec_independent;
    unconfirmed;
    truncated = not (Symbolic.complete sym);
    incomplete = res.Coverage.incomplete;
    complete = res.Coverage.complete;
    res;
  }

(* One recording feeds everything before the replays: the IR, the scan
   (on the parse-tree index its decoding walk filled) and, through [~scan], the sweep's
   profile — a fold over the recording's tape — and choice of replays. The
   program runs once plus once per replay. The budgets start at entry, so the recording and
   the scan count against the deadline and the sweep gets what is left. *)
let verify ?reach ?max_pairs ?jobs ?max_events ?deadline ?with_obs ~name
    program =
  let abs_deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline in
  let phase_record = Obs.phase "record" and phase_scan = Obs.phase "scan" in
  match
    Obs.timed phase_record (fun () ->
        Ir.of_program ?max_events ?deadline:abs_deadline program)
  with
  | Error f -> Error f
  | Ok ir ->
      let scan = Obs.timed phase_scan (fun () -> Coverage.scan_trace ?max_pairs ir.Ir.trace) in
      let remaining = Option.map (fun dl -> dl -. Unix.gettimeofday ()) abs_deadline in
      let res =
        Coverage.exhaustive_check ~scan ?reach ?jobs ?max_events
          ?deadline:remaining ?with_obs program
      in
      let front =
        List.map
          (fun p -> (Obs.phase_name p, Obs.phase_seconds p))
          [ phase_record; phase_scan ]
      in
      let obs =
        Option.map
          (fun o -> { o with Coverage.obs_phases = front @ o.Coverage.obs_phases })
          res.Coverage.obs
      in
      let sym = Symbolic.of_scan ~prof:res.Coverage.prof scan in
      Ok (assemble ~name ir sym { res with Coverage.obs })

(* ---------- renderers ---------- *)

let verdict_cells v =
  match v with
  | Racy { witness; first_strand; second_strand; pair; always } ->
      let detail =
        (if first_strand >= 0 then
           Printf.sprintf "strands %d vs %d (%s)" first_strand second_strand
             pair
         else Printf.sprintf "%s, steal-elicited" pair)
        ^ (if always then ", spec-independent [R006]" else "")
        ^ ", replay-confirmed"
      in
      ("racy", witness, detail)
  | Clean { cert; cleared_by } ->
      let base =
        match cert with
        | Some c -> Symbolic.certificate_string c
        | None -> "replays only"
      in
      let detail =
        if cleared_by = 0 then base ^ " (certified on every spec)"
        else Printf.sprintf "%s, cleared by %d residual replays" base cleared_by
      in
      ("clean", "-", detail)

let to_table t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "program: %s\n" t.program);
  Buffer.add_string buf
    (Printf.sprintf
       "family: %d specs (k=%d d=%d k_rel=%d), residual %d; replays %d, \
        skipped %d\n"
       t.n_specs t.prof.Coverage.k t.prof.Coverage.d t.prof.Coverage.k_rel
       t.n_residual t.n_replays t.n_skipped);
  if t.racy_locs = [] && not t.truncated && t.complete then begin
    Buffer.add_string buf
      (Printf.sprintf "race-free across %d specs, %d replays\n" t.n_specs
         t.n_replays);
    Buffer.add_string buf "racy locs:\n"
  end
  else begin
    let rows_txt =
      ("LOC", "LABEL", "VERDICT", "WITNESS", "DETAIL")
      :: List.map
           (fun r ->
             let v, w, d = verdict_cells r.r_verdict in
             (string_of_int r.r_loc, r.r_label, v, w, d))
           t.rows
    in
    let w sel =
      List.fold_left (fun m r -> max m (String.length (sel r))) 0 rows_txt
    in
    let w1 = w (fun (a, _, _, _, _) -> a)
    and w2 = w (fun (_, b, _, _, _) -> b)
    and w3 = w (fun (_, _, c, _, _) -> c)
    and w4 = w (fun (_, _, _, d, _) -> d) in
    List.iter
      (fun (a, b, c, d, e) ->
        Buffer.add_string buf
          (Printf.sprintf "%-*s  %-*s  %-*s  %-*s  %s\n" w1 a w2 b w3 c w4 d e))
      rows_txt;
    Buffer.add_string buf
      (Printf.sprintf "racy locs:%s\n"
         (String.concat ""
            (List.map (fun l -> " " ^ string_of_int l) t.racy_locs)))
  end;
  if t.truncated then
    Buffer.add_string buf
      "note: pair scan truncated; no-steal replay kept (verdict sound, \
       symbolic detail partial)\n";
  List.iter
    (fun loc ->
      Buffer.add_string buf
        (Printf.sprintf
           "warning: symbolic claim on loc %d unconfirmed by replay; replayed \
            verdict stands\n"
           loc))
    t.unconfirmed;
  List.iter
    (fun (spec, f) ->
      Buffer.add_string buf
        (Printf.sprintf "incomplete: %s — %s\n" spec (Diag.to_string f)))
    t.incomplete;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"program\":\"%s\",\"n_specs\":%d,\"n_replays\":%d,\"n_skipped\":%d,\
        \"n_residual\":%d,\"complete\":%b,\"truncated\":%b,"
       (json_escape t.program) t.n_specs t.n_replays t.n_skipped t.n_residual
       t.complete t.truncated);
  Buffer.add_string buf
    (Printf.sprintf "\"racy_locs\":[%s],"
       (String.concat "," (List.map string_of_int t.racy_locs)));
  Buffer.add_string buf
    (Printf.sprintf "\"spec_independent\":[%s],"
       (String.concat "," (List.map string_of_int t.spec_independent)));
  Buffer.add_string buf
    (Printf.sprintf "\"unconfirmed\":[%s],"
       (String.concat "," (List.map string_of_int t.unconfirmed)));
  Buffer.add_string buf "\"locs\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      let v, w, d = verdict_cells r.r_verdict in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"loc\":%d,\"label\":\"%s\",\"verdict\":\"%s\",\"witness\":\"%s\",\
            \"detail\":\"%s\"}"
           r.r_loc (json_escape r.r_label) v (json_escape w) (json_escape d)))
    t.rows;
  Buffer.add_string buf "],";
  Buffer.add_string buf
    (Printf.sprintf "\"incomplete\":[%s]}"
       (String.concat ","
          (List.map
             (fun (spec, f) ->
               Printf.sprintf "{\"spec\":\"%s\",\"failure\":\"%s\"}"
                 (json_escape spec)
                 (json_escape (Diag.to_string f)))
             t.incomplete)));
  Buffer.contents buf
