module Reach = Rader_reach.Reach
module Shadow = Rader_memory.Shadow
module Obs = Rader_obs.Obs

type t = {
  reach : Reach.Peer.t;
  reader : Shadow.t; (* reducer id -> last reader frame *)
  reader_sc : Shadow.t; (* reducer id -> spawn count of last reader *)
  collector : Report.collector;
  strand : unit -> int;
}

let create ?(backend = Reach.Dset) ~strand () =
  {
    reach = Reach.Peer.create backend;
    reader = Shadow.create ();
    reader_sc = Shadow.create ();
    collector = Report.collector ();
    strand;
  }

let backend t = Reach.Peer.backend t.reach

let reset t =
  Reach.Peer.reset t.reach;
  Shadow.clear t.reader;
  Shadow.clear t.reader_sc;
  Report.clear t.collector

let races t = Report.races t.collector
let found t = Report.count t.collector > 0

let frame_enter t ~frame ~spawned ~kind =
  if kind = Frame_kind.User_fn then
    Reach.Peer.on_frame_enter t.reach ~frame ~spawned

let frame_return t ~frame ~spawned ~kind =
  if kind = Frame_kind.User_fn then
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
          second_strand = t.strand ();
          second_view_aware = false;
          detail = "reducer-reads have different peer sets";
        }
  end;
  Shadow.set t.reader reducer frame;
  Shadow.set t.reader_sc reducer sc;
  Reach.Peer.note_read t.reach ~reducer ~frame
