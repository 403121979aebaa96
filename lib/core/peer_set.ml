module Reach = Rader_reach.Reach
module Shadow = Rader_memory.Shadow
module Obs = Rader_obs.Obs
module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool

type t = {
  eng : Engine.t;
  reach : Reach.Peer.t;
  reader : Shadow.t; (* reducer id -> last reader frame *)
  reader_sc : Shadow.t; (* reducer id -> spawn count of last reader *)
  collector : Report.collector;
  tool : Tool.t;
}

let backend t = Reach.Peer.backend t.reach

let reset t =
  Reach.Peer.reset t.reach;
  Shadow.clear t.reader;
  Shadow.clear t.reader_sc;
  Report.clear t.collector

let tool t = t.tool
let races t = Report.races t.collector
let found t = Report.count t.collector > 0

let frame_enter t ~frame ~spawned ~kind =
  if kind = Tool.User_fn then
    Reach.Peer.on_frame_enter t.reach ~frame ~spawned

let frame_return t ~frame ~spawned ~kind =
  if kind = Tool.User_fn then
    Reach.Peer.on_frame_return t.reach ~frame ~spawned

let sync t ~frame = Reach.Peer.on_sync t.reach ~frame

let reducer_read t ~frame ~reducer =
  if Obs.enabled () then Obs.bump_peerset_query ();
  let sc = Reach.Peer.spawn_count t.reach in
  let last = Shadow.get t.reader reducer in
  if last <> Shadow.absent then begin
    (* Lemma 3: same peer set iff same spawn count and not in a P bag.
       Short-circuit order matches the seed: the spawn-count shadow is
       only consulted when the bag is not already P. *)
    let racy =
      Reach.Peer.parallel_read t.reach ~reducer ~frame:last
      || Shadow.get t.reader_sc reducer <> sc
    in
    if racy then
      Report.report t.collector
        {
          Report.kind = Report.View_read_race;
          subject = reducer;
          subject_label = Printf.sprintf "reducer #%d" reducer;
          first_frame = last;
          first_access = Report.Reducer_read;
          second_frame = frame;
          second_access = Report.Reducer_read;
          second_strand = Engine.current_strand t.eng;
          second_view_aware = false;
          detail = "reducer-reads have different peer sets";
        }
  end;
  Shadow.set t.reader reducer frame;
  Shadow.set t.reader_sc reducer sc;
  Reach.Peer.note_read t.reach ~reducer ~frame

(* Built once per detector, like [Sp_plus]'s record. *)
let create ?(reach = Reach.Dset) eng =
  let rec d =
    {
      eng;
      reach = Reach.Peer.create reach;
      reader = Shadow.create ();
      reader_sc = Shadow.create ();
      collector = Report.collector ();
      tool =
        {
          Tool.null with
          on_frame_enter =
            (fun ~frame ~parent:_ ~spawned ~kind ->
              frame_enter d ~frame ~spawned ~kind);
          on_frame_return =
            (fun ~frame ~parent:_ ~spawned ~kind ->
              frame_return d ~frame ~spawned ~kind);
          on_sync = (fun ~frame -> sync d ~frame);
          on_reducer_read =
            (fun ~frame ~reducer -> reducer_read d ~frame ~reducer);
        };
    }
  in
  d

let attach ?reach eng =
  let d = create ?reach eng in
  Engine.set_tool eng d.tool;
  d
