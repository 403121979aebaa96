open Rader_runtime
module Trace = Rader_core.Trace

type severity = Error | Warning | Info

type finding = {
  rule : string;
  severity : severity;
  subject : string;
  message : string;
  strands : int list;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let rules =
  [
    ("R001", Error, "view-read race: reducer read at strands with different peer sets");
    ("R002", Error, "raw shared access logically parallel with a write");
    ("R003", Info, "reducer created but never read or updated");
    ("R004", Warning, "result depends on the reduction schedule (eager vs at-sync)");
    ("R005", Warning, "view-aware data accessed view-obliviously in parallel");
    ("R006", Error, "spec-independent race: racy under every steal spec");
  ]

(* Compact, space-free subject keys: baselines are line-oriented. *)
let sanitize label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '[' | ']' | '.' | '_' | '-' -> c
      | _ -> '_')
    label

let reducer_subject rid = Printf.sprintf "reducer:%d" rid
let loc_subject ir loc = Printf.sprintf "loc:%d(%s)" loc (sanitize (Ir.loc_label ir loc))

(* ---------- R001: static view-read verdict ---------- *)

let r001 ir =
  List.map
    (fun (w : Verdict.witness) ->
      {
        rule = "R001";
        severity = Error;
        subject = reducer_subject w.Verdict.w_reducer;
        message =
          Printf.sprintf
            "reads of reducer %d at strands %d and %d have different peer \
             sets: the value read depends on scheduling"
            w.Verdict.w_reducer w.Verdict.w_first w.Verdict.w_second;
        strands = [ w.Verdict.w_first; w.Verdict.w_second ];
      })
    (Verdict.view_read ir)

(* ---------- R002 / R005: location-pair rules ---------- *)

let by_loc ir =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (a : Trace.access) ->
      let prev = try Hashtbl.find tbl a.Trace.a_loc with Not_found -> [] in
      Hashtbl.replace tbl a.Trace.a_loc (a :: prev))
    (Ir.accesses ir);
  (* per-loc lists back in serial order; locs ascending for determinism *)
  List.sort compare (Hashtbl.fold (fun l accs acc -> (l, List.rev accs) :: acc) tbl [])

let loc_rules (ir : Ir.t) ~max_pairs =
  let parallel u v = u <> v && Rader_dag.Sp_tree.parallel ir.Ir.ix u v in
  List.concat_map
    (fun (loc, accs) ->
      let budget = ref max_pairs in
      (* first witness pair satisfying [pick], scanning serial order *)
      let find_pair pick =
        let rec outer = function
          | [] -> None
          | (x : Trace.access) :: rest ->
              let rec inner = function
                | [] -> outer rest
                | (y : Trace.access) :: more ->
                    if !budget <= 0 then None
                    else begin
                      decr budget;
                      if pick x y && parallel x.Trace.a_strand y.Trace.a_strand
                      then Some (x, y)
                      else inner more
                    end
              in
              inner rest
        in
        outer accs
      in
      let raw_race =
        find_pair (fun x y ->
            (not x.Trace.a_view_aware)
            && (not y.Trace.a_view_aware)
            && (x.Trace.a_is_write || y.Trace.a_is_write))
      in
      let escape =
        find_pair (fun x y ->
            x.Trace.a_view_aware <> y.Trace.a_view_aware
            && (x.Trace.a_is_write || y.Trace.a_is_write))
      in
      let f002 =
        match raw_race with
        | None -> []
        | Some (x, y) ->
            [
              {
                rule = "R002";
                severity = Error;
                subject = loc_subject ir loc;
                message =
                  Printf.sprintf
                    "raw accesses to %s at strands %d and %d are logically \
                     parallel and one writes: determinacy race"
                    (Ir.loc_label ir loc) x.Trace.a_strand y.Trace.a_strand;
                strands = [ x.Trace.a_strand; y.Trace.a_strand ];
              };
            ]
      in
      let f005 =
        match escape with
        | None -> []
        | Some (x, y) ->
            let va, vo = if x.Trace.a_view_aware then (x, y) else (y, x) in
            [
              {
                rule = "R005";
                severity = Warning;
                subject = loc_subject ir loc;
                message =
                  Printf.sprintf
                    "%s is touched by a view-aware frame (strand %d) and \
                     raw code (strand %d) in parallel: a view escaped its \
                     strand"
                    (Ir.loc_label ir loc) va.Trace.a_strand vo.Trace.a_strand;
                strands = [ va.Trace.a_strand; vo.Trace.a_strand ];
              };
            ]
      in
      f002 @ f005)
    (by_loc ir)

(* ---------- R003: dead reducers ---------- *)

let r003 ir =
  List.filter_map
    (fun rid ->
      match (Ir.reads ir rid, Ir.updates ir rid) with
      | creation :: [], [] ->
          Some
            {
              rule = "R003";
              severity = Info;
              subject = reducer_subject rid;
              message =
                Printf.sprintf
                  "reducer %d (created at strand %d) is never read or \
                   updated after creation"
                  rid creation;
              strands = [ creation ];
            }
      | _ -> None)
    (Ir.reducer_ids ir)

(* ---------- R004: differential schedule sensitivity ---------- *)

let r004 program =
  let replay policy =
    let eng = Engine.create ~spec:(Steal_spec.all ~policy ()) () in
    Engine.run_result eng program
  in
  match (replay Steal_spec.Reduce_eagerly, replay Steal_spec.Reduce_at_sync) with
  | Ok eager, Ok at_sync when eager <> at_sync ->
      [
        {
          rule = "R004";
          severity = Warning;
          subject = "schedule";
          message =
            Printf.sprintf
              "result differs between eager (%d) and at-sync (%d) \
               reduction under the all-steals schedule: the reduction \
               order is observable"
              eager at_sync;
          strands = [];
        };
      ]
  | _ -> (* equal, or a replay crashed: nothing provable *) []

(* ---------- R006: spec-independent race ---------- *)

(* Fed by the symbolic verification result: a location whose witness pair
   is view-oblivious at both endpoints races under *every* steal spec of
   the §7 family (Symbolic's class-A argument), cross-checked against the
   residual replays by [Witness.verify]. The strongest diagnostic the
   tool can issue — no schedule, steal placement or reduction order makes
   the program safe. *)
let r006 ir (w : Witness.t) =
  List.filter_map
    (fun (row : Witness.row) ->
      match row.Witness.r_verdict with
      | Witness.Racy { first_strand; second_strand; always = true; _ } ->
          Some
            {
              rule = "R006";
              severity = Error;
              subject = loc_subject ir row.Witness.r_loc;
              message =
                Printf.sprintf
                  "raw parallel accesses to %s (strands %d and %d) race \
                   under every steal spec of the family (%d specs, \
                   replay-confirmed): no schedule is safe"
                  row.Witness.r_label first_strand second_strand
                  w.Witness.n_specs;
              strands = [ first_strand; second_strand ];
            }
      | _ -> None)
    w.Witness.rows

(* ---------- driver ---------- *)

let run ?program ?verify ?(max_pairs = 100_000) ir =
  let findings =
    r001 ir @ loc_rules ir ~max_pairs @ r003 ir
    @ (match program with None -> [] | Some p -> r004 p)
    @ (match verify with None -> [] | Some w -> r006 ir w)
  in
  List.sort (fun a b -> compare (a.rule, a.subject) (b.rule, b.subject)) findings

(* ---------- renderers ---------- *)

let to_table = function
  | [] -> "no findings\n"
  | findings ->
      let rows =
        ("RULE", "SEVERITY", "SUBJECT", "MESSAGE")
        :: List.map
             (fun f -> (f.rule, severity_to_string f.severity, f.subject, f.message))
             findings
      in
      let w sel = List.fold_left (fun m r -> max m (String.length (sel r))) 0 rows in
      let w1 = w (fun (a, _, _, _) -> a)
      and w2 = w (fun (_, b, _, _) -> b)
      and w3 = w (fun (_, _, c, _) -> c) in
      String.concat ""
        (List.map
           (fun (a, b, c, d) -> Printf.sprintf "%-*s  %-*s  %-*s  %s\n" w1 a w2 b w3 c d)
           rows)

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

let to_json ~program findings =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "{\"program\":\"%s\",\"findings\":[" (json_escape program));
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"rule\":\"%s\",\"severity\":\"%s\",\"subject\":\"%s\",\"message\":\"%s\",\"strands\":[%s]}"
           (json_escape f.rule)
           (severity_to_string f.severity)
           (json_escape f.subject) (json_escape f.message)
           (String.concat "," (List.map string_of_int f.strands))))
    findings;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let to_dot (ir : Ir.t) findings =
  let worst = Hashtbl.create 16 in
  let rank = function Error -> 2 | Warning -> 1 | Info -> 0 in
  List.iter
    (fun f ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt worst s with
          | Some sev when rank sev >= rank f.severity -> ()
          | _ -> Hashtbl.replace worst s f.severity)
        f.strands)
    findings;
  let leaf_attrs s =
    match Hashtbl.find_opt worst s with
    | None -> []
    | Some sev ->
        let color =
          match sev with
          | Error -> "\"#f08080\""
          | Warning -> "\"#ffd27f\""
          | Info -> "\"#d3d3d3\""
        in
        [ ("style", "filled"); ("fillcolor", color) ]
  in
  Rader_dag.Sp_tree.to_dot ~leaf_attrs ir.Ir.tree

let baseline_lines ~program findings =
  List.sort compare
    (List.map (fun f -> Printf.sprintf "%s %s %s" program f.rule f.subject) findings)
