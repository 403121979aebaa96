open Rader_runtime
module Report = Rader_core.Report
module Steal_trace = Rader_core.Steal_trace
module Sp_plus = Rader_core.Sp_plus
module Peer_set = Rader_core.Peer_set

type judge = {
  j_program : Engine.ctx -> int;
  j_reach : Rader_reach.Reach.backend option;
  (* the no-steal run: Peer-Set's reports and the frames *)
  mutable j_base : (Report.t list * Steal_trace.frames) option;
}

let judge ?reach program = { j_program = program; j_reach = reach; j_base = None }

type run = {
  value : (int, Fault.failure) result;
  trace : Steal_trace.t;
  races : Report.t list;
}

let by_kind_subject a b =
  match compare a.Report.kind b.Report.kind with
  | 0 -> compare a.Report.subject b.Report.subject
  | c -> c

let run ?max_events ?deadline j ~seed ~density =
  if not (density >= 0. && density <= 1.) then
    invalid_arg "Online.run: density must be in [0, 1]";
  let base =
    match j.j_base with
    | Some base -> Ok base
    | None ->
        let eng = Engine.create ?max_events ?deadline () in
        let pe = Peer_set.create ?reach:j.j_reach eng in
        let tool, frames = Steal_trace.observe (Peer_set.tool pe) in
        Engine.set_tool eng tool;
        Result.map
          (fun _ ->
            let base = (Peer_set.races pe, frames ()) in
            j.j_base <- Some base;
            base)
          (Engine.run_result eng j.j_program)
  in
  match base with
  | Error f ->
      { value = Error f; trace = { Steal_trace.seed; density; entries = [] }; races = [] }
  | Ok (view_reads, frames) -> (
      let spec, trace = Steal_trace.structural ~seed ~density frames in
      let eng = Engine.create ~spec ?max_events ?deadline () in
      let sp = Sp_plus.attach ?reach:j.j_reach eng in
      match Engine.run_result eng j.j_program with
      | Error f -> { value = Error f; trace; races = [] }
      | Ok v ->
          {
            value = Ok v;
            trace;
            races = List.sort by_kind_subject (Sp_plus.races sp @ view_reads);
          })
