module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool
module Bag = Rader_dsets.Bag
module Shadow = Rader_memory.Shadow
module Dynarr = Rader_support.Dynarr

type bag_kind = KS | KP

type fstate = { fid : int; s : bag_kind Bag.t; p : bag_kind Bag.t }

type t = {
  eng : Engine.t;
  store : bag_kind Bag.store;
  stack : fstate Dynarr.t;
  reader : Shadow.t;
  writer : Shadow.t;
  collector : Report.collector;
}

let create eng =
  {
    eng;
    store = Bag.create_store ();
    stack = Dynarr.create ();
    reader = Shadow.create ();
    writer = Shadow.create ();
    collector = Report.collector ();
  }

let top d = Dynarr.top d.stack

let on_frame_enter d ~frame =
  Dynarr.push d.stack
    { fid = frame; s = Bag.make d.store KS [ frame ]; p = Bag.make d.store KP [] }

let on_frame_return d ~frame ~spawned =
  let g = Dynarr.pop d.stack in
  assert (g.fid = frame);
  if not (Dynarr.is_empty d.stack) then begin
    let f = top d in
    Bag.union_into d.store ~dst:f.p ~src:g.p;
    if spawned then Bag.union_into d.store ~dst:f.p ~src:g.s
    else Bag.union_into d.store ~dst:f.s ~src:g.s
  end

let on_sync d ~frame =
  let f = top d in
  assert (f.fid = frame);
  Bag.union_into d.store ~dst:f.s ~src:f.p

let in_p_bag d frame_id =
  frame_id <> Shadow.absent
  &&
  match Bag.find d.store frame_id with
  | Some bag -> Bag.payload bag = KP
  | None -> false

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
  if r = Shadow.absent || not (in_p_bag d r) then Shadow.set d.reader loc frame

let on_write d ~frame ~loc =
  let r = Shadow.get d.reader loc in
  if in_p_bag d r then
    report d ~loc ~first_frame:r ~first_access:Report.Read
      ~second_access:Report.Write ~frame;
  let w = Shadow.get d.writer loc in
  if in_p_bag d w then
    report d ~loc ~first_frame:w ~first_access:Report.Write
      ~second_access:Report.Write ~frame;
  if w = Shadow.absent || not (in_p_bag d w) then Shadow.set d.writer loc frame

let tool d =
  {
    Tool.null with
    on_frame_enter =
      (fun ~frame ~parent:_ ~spawned:_ ~kind:_ -> on_frame_enter d ~frame);
    on_frame_return =
      (fun ~frame ~parent:_ ~spawned ~kind:_ ->
        on_frame_return d ~frame ~spawned);
    on_sync = (fun ~frame -> on_sync d ~frame);
    on_read = (fun ~frame ~loc ~view_aware:_ -> on_read d ~frame ~loc);
    on_write = (fun ~frame ~loc ~view_aware:_ -> on_write d ~frame ~loc);
  }

let attach eng =
  let d = create eng in
  Engine.set_tool eng (tool d);
  d

let races d = Report.races d.collector

let found d = Report.count d.collector > 0
