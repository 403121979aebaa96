module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool
module Shadow = Rader_memory.Shadow
module Dynarr = Rader_support.Dynarr

module Label = struct
  type l = (int * int) array

  let precedes (a : l) (b : l) =
    let na = Array.length a and nb = Array.length b in
    let rec go i =
      if i >= na then true (* a is a prefix of b (or equal): serial *)
      else if i >= nb then false
      else begin
        let oa, sa = a.(i) and ob, sb = b.(i) in
        if oa = ob && sa = sb then go (i + 1)
        else sa = sb && oa mod sa = ob mod sb && oa < ob
      end
    in
    go 0
end

type fstate = {
  fid : int;
  mutable label : Label.l;
  mutable block_base : Label.l; (* label at the start of the sync block *)
  mutable spawned_in_block : bool;
}

type t = {
  eng : Engine.t;
  stack : fstate Dynarr.t;
  labels : Label.l Dynarr.t; (* interning table: shadow stores indices *)
  reader : Shadow.t;
  writer : Shadow.t;
  reader_frame : Shadow.t;
  writer_frame : Shadow.t;
  collector : Report.collector;
}

let create eng =
  {
    eng;
    stack = Dynarr.create ();
    labels = Dynarr.create ();
    reader = Shadow.create ();
    writer = Shadow.create ();
    reader_frame = Shadow.create ();
    writer_frame = Shadow.create ();
    collector = Report.collector ();
  }

let top d = Dynarr.top d.stack

let extend label pair = Array.append label [| pair |]

(* Bump the last pair (o, s) of [label] to (o + s, s): the sequential
   successor of every branch forked under it. *)
let bump label =
  let n = Array.length label in
  let label' = Array.copy label in
  let o, s = label'.(n - 1) in
  label'.(n - 1) <- (o + s, s);
  label'

let on_frame_enter d ~frame ~spawned =
  if Dynarr.is_empty d.stack then
    Dynarr.push d.stack
      {
        fid = frame;
        label = [| (1, 1) |];
        block_base = [| (1, 1) |];
        spawned_in_block = false;
      }
  else begin
    let f = top d in
    let child_label =
      if spawned then begin
        let child = extend f.label (1, 2) in
        (* the parent's continuation becomes the sibling branch *)
        f.label <- extend f.label (2, 2);
        f.spawned_in_block <- true;
        child
      end
      else f.label (* calls are serial: inherit *)
    in
    Dynarr.push d.stack
      {
        fid = frame;
        label = child_label;
        block_base = child_label;
        spawned_in_block = false;
      }
  end

let on_frame_return d ~frame ~spawned =
  let g = Dynarr.pop d.stack in
  assert (g.fid = frame);
  if not (Dynarr.is_empty d.stack) then begin
    let f = top d in
    if spawned then ()
      (* the parent already switched to the sibling branch at the spawn *)
    else
      (* calls are serial: the caller continues as the callee's final
         thread, inheriting any join bumps the callee performed *)
      f.label <- g.label
  end

let on_sync d ~frame =
  let f = top d in
  assert (f.fid = frame);
  if f.spawned_in_block then begin
    (* The post-sync strand sequentially succeeds every branch of the
       block: bump the last pair at the block's base depth. Take the
       prefix of the CURRENT label (not the stale block base): a called
       child's own join may already have bumped pairs at this depth, and
       the successor must account for those generations. *)
    let prefix = Array.sub f.label 0 (Array.length f.block_base) in
    f.label <- bump prefix;
    f.block_base <- f.label;
    f.spawned_in_block <- false
  end

let intern d label =
  let id = Dynarr.length d.labels in
  Dynarr.push d.labels label;
  id

let stored_parallel d shadow loc ~current =
  let id = Shadow.get shadow loc in
  if id = Shadow.absent then `Absent
  else begin
    let stored = Dynarr.get d.labels id in
    if Label.precedes stored current then `Serial else `Parallel
  end

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
      detail = "(offset-span)";
    }

let on_read d ~frame ~loc =
  let f = top d in
  (match stored_parallel d d.writer loc ~current:f.label with
  | `Parallel ->
      report d ~loc
        ~first_frame:(Shadow.get d.writer_frame loc)
        ~first_access:Report.Write ~second_access:Report.Read ~frame
  | `Serial | `Absent -> ());
  match stored_parallel d d.reader loc ~current:f.label with
  | `Absent | `Serial ->
      Shadow.set d.reader loc (intern d f.label);
      Shadow.set d.reader_frame loc frame
  | `Parallel -> ()

let on_write d ~frame ~loc =
  let f = top d in
  (match stored_parallel d d.reader loc ~current:f.label with
  | `Parallel ->
      report d ~loc
        ~first_frame:(Shadow.get d.reader_frame loc)
        ~first_access:Report.Read ~second_access:Report.Write ~frame
  | `Serial | `Absent -> ());
  (match stored_parallel d d.writer loc ~current:f.label with
  | `Parallel ->
      report d ~loc
        ~first_frame:(Shadow.get d.writer_frame loc)
        ~first_access:Report.Write ~second_access:Report.Write ~frame
  | `Serial | `Absent -> ());
  match stored_parallel d d.writer loc ~current:f.label with
  | `Absent | `Serial ->
      Shadow.set d.writer loc (intern d f.label);
      Shadow.set d.writer_frame loc frame
  | `Parallel -> ()

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
