module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool
module Om = Rader_support.Om
module Shadow = Rader_memory.Shadow
module Dynarr = Rader_support.Dynarr

type fstate = {
  fid : int;
  mutable cur_e : Om.elt; (* English label of the current strand *)
  mutable cur_h : Om.elt; (* Hebrew label of the current strand *)
  mutable pending_cont_h : Om.elt; (* Hebrew label reserved for the
                                      continuation of the ongoing spawn *)
  mutable first_child_last_h : Om.elt; (* Hebrew label of the last strand of
                                          the current sync block's first
                                          spawned child; -1 if none *)
}

type t = {
  eng : Engine.t;
  english : Om.t;
  hebrew : Om.t;
  stack : fstate Dynarr.t;
  reader_h : Shadow.t; (* loc -> Hebrew label of last recorded reader *)
  writer_h : Shadow.t;
  collector : Report.collector;
  reader_frame : Shadow.t; (* loc -> frame of recorded reader, for reports *)
  writer_frame : Shadow.t;
}

let create eng =
  {
    eng;
    english = Om.create ();
    hebrew = Om.create ();
    stack = Dynarr.create ();
    reader_h = Shadow.create ();
    writer_h = Shadow.create ();
    collector = Report.collector ();
    reader_frame = Shadow.create ();
    writer_frame = Shadow.create ();
  }

let top d = Dynarr.top d.stack

let on_frame_enter d ~frame ~spawned =
  if Dynarr.is_empty d.stack then
    Dynarr.push d.stack
      {
        fid = frame;
        cur_e = Om.base d.english;
        cur_h = Om.base d.hebrew;
        pending_cont_h = -1;
        first_child_last_h = -1;
      }
  else begin
    let f = top d in
    let child_e = Om.insert_after d.english f.cur_e in
    let child_h =
      if spawned then begin
        (* Hebrew: continuation first, then the child; reserve the
           continuation's label now so the child's strands land after it. *)
        let cont_h = Om.insert_after d.hebrew f.cur_h in
        f.pending_cont_h <- cont_h;
        Om.insert_after d.hebrew cont_h
      end
      else Om.insert_after d.hebrew f.cur_h
    in
    Dynarr.push d.stack
      {
        fid = frame;
        cur_e = child_e;
        cur_h = child_h;
        pending_cont_h = -1;
        first_child_last_h = -1;
      }
  end

let on_frame_return d ~frame ~spawned =
  let g = Dynarr.pop d.stack in
  assert (g.fid = frame);
  if not (Dynarr.is_empty d.stack) then begin
    let f = top d in
    (* English order = serial order: the continuation strand follows the
       child's last strand. *)
    f.cur_e <- Om.insert_after d.english g.cur_e;
    if spawned then begin
      if f.first_child_last_h = -1 then f.first_child_last_h <- g.cur_h;
      f.cur_h <- f.pending_cont_h
    end
    else f.cur_h <- Om.insert_after d.hebrew g.cur_h
  end

let on_sync d ~frame =
  let f = top d in
  assert (f.fid = frame);
  (* The post-sync strand is in series with everything in the block. In
     Hebrew order the block's maximum is the last strand of the FIRST
     spawned child (spawned children's chains stack in reverse). *)
  f.cur_e <- Om.insert_after d.english f.cur_e;
  f.cur_h <-
    Om.insert_after d.hebrew
      (if f.first_child_last_h = -1 then f.cur_h else f.first_child_last_h);
  f.first_child_last_h <- -1

(* The recorded access is serially — hence English- — before the current
   strand, so it is logically parallel iff the current strand is
   Hebrew-before it. False when nothing is recorded. *)
let recorded_parallel d sh_h loc =
  let h = Shadow.get sh_h loc in
  h <> Shadow.absent && Om.precedes d.hebrew (top d).cur_h h

(* Shadow update follows the pseudotransitivity discipline: keep the
   recorded access unless it is serial with (or absent for) the current
   strand. *)
let record d sh_h sh_f loc ~frame =
  Shadow.set sh_h loc (top d).cur_h;
  Shadow.set sh_f loc frame

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
      detail = "(SP-order)";
    }

let on_read d ~frame ~loc =
  if recorded_parallel d d.writer_h loc then
    report d ~loc
      ~first_frame:(Shadow.get d.writer_frame loc)
      ~first_access:Report.Write ~second_access:Report.Read ~frame;
  if not (recorded_parallel d d.reader_h loc) then
    record d d.reader_h d.reader_frame loc ~frame

let on_write d ~frame ~loc =
  if recorded_parallel d d.reader_h loc then
    report d ~loc
      ~first_frame:(Shadow.get d.reader_frame loc)
      ~first_access:Report.Read ~second_access:Report.Write ~frame;
  let wpar = recorded_parallel d d.writer_h loc in
  if wpar then
    report d ~loc
      ~first_frame:(Shadow.get d.writer_frame loc)
      ~first_access:Report.Write ~second_access:Report.Write ~frame;
  if not wpar then record d d.writer_h d.writer_frame loc ~frame

let tool d =
  {
    Tool.null with
    on_frame_enter =
      (fun ~frame ~parent:_ ~spawned ~kind:_ ->
        on_frame_enter d ~frame ~spawned);
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
