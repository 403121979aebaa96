module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool
module Reach = Rader_reach.Reach
module Shadow = Rader_memory.Shadow

(* The S and P bags are SP+'s dset precedence core fed only the events
   SP-bags knows: frame enter, frame return (parallel iff spawned) and
   sync. No steal or reduce is forwarded, so every frame keeps the one P
   bag it entered with, and a recorded frame is in a P bag exactly when
   [Reach.Sp.classify] says [Parallel]. *)
type t = {
  eng : Engine.t;
  bags : Reach.Sp.t;
  reader : Shadow.t;
  writer : Shadow.t;
  collector : Report.collector;
}

let create eng =
  {
    eng;
    bags = Reach.Sp.create Reach.Dset;
    reader = Shadow.create ();
    writer = Shadow.create ();
    collector = Report.collector ();
  }

let in_p_bag d frame_id =
  frame_id <> Shadow.absent
  &&
  match Reach.Sp.classify d.bags frame_id with
  | Reach.Sp.Parallel _ -> true
  | Reach.Sp.Serial -> false

(* Shadows record only the current frame, which [note] requires. *)
let record d shadow loc frame =
  Reach.Sp.note d.bags ~frame;
  Shadow.set shadow loc frame

let report d ~loc ~first_frame ~first_access ~second_access ~frame =
  Report.report d.collector
    {
      Report.kind = Report.Determinacy_race;
      subject = loc;
      subject_label = Engine.loc_label d.eng loc;
      first_frame;
      first_access;
      second_frame = frame;
      second_access;
      second_strand = Engine.current_strand d.eng;
      second_view_aware = false;
      detail = "";
    }

let on_read d ~frame ~loc =
  let w = Shadow.get d.writer loc in
  if in_p_bag d w then
    report d ~loc ~first_frame:w ~first_access:Report.Write
      ~second_access:Report.Read ~frame;
  let r = Shadow.get d.reader loc in
  if r = Shadow.absent || not (in_p_bag d r) then record d d.reader loc frame

let on_write d ~frame ~loc =
  let r = Shadow.get d.reader loc in
  if in_p_bag d r then
    report d ~loc ~first_frame:r ~first_access:Report.Read
      ~second_access:Report.Write ~frame;
  let w = Shadow.get d.writer loc in
  if in_p_bag d w then
    report d ~loc ~first_frame:w ~first_access:Report.Write
      ~second_access:Report.Write ~frame;
  if w = Shadow.absent || not (in_p_bag d w) then record d d.writer loc frame

let tool d =
  {
    Tool.null with
    on_frame_enter =
      (fun ~frame ~parent:_ ~spawned:_ ~kind:_ ->
        Reach.Sp.on_frame_enter d.bags ~frame);
    on_frame_return =
      (fun ~frame ~parent:_ ~spawned ~kind:_ ->
        ignore (Reach.Sp.on_frame_return d.bags ~frame ~parallel:spawned));
    on_sync = (fun ~frame -> ignore (Reach.Sp.on_sync d.bags ~frame));
    on_read = (fun ~frame ~loc ~view_aware:_ -> on_read d ~frame ~loc);
    on_write = (fun ~frame ~loc ~view_aware:_ -> on_write d ~frame ~loc);
  }

let attach eng =
  let d = create eng in
  Engine.set_tool eng (tool d);
  d

let races d = Report.races d.collector

let found d = Report.count d.collector > 0
