module Reach = Rader_reach.Reach
module Shadow = Rader_memory.Shadow
module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool

(* Two hot-path savings over the seed's closure-record detector:

   - the precedence core notes lazily: frames enter the disjoint-set
     forest (dset) or copy their fingerprint (depa) only when their id is
     first recorded in a shadow space, so programs whose frames never
     touch instrumented memory do no set work at all;
   - a two-slot classification memo keyed by a structural generation
     counter, bumped only when the backend reports that an event actually
     moved a noted frame (a payload-carrying union under dset, a noted
     subtree or epoch under depa; empty-bag returns and syncs are
     no-ops under both): within one strand the SP relation is
     constant, so a run of accesses over the same recorded frame costs
     one reachability query, and pure-control frame churn between runs
     costs none.

   Reports are cold: labels and the strand are read from the engine only
   when a race is found. *)

type t = {
  eng : Engine.t;
  reach : Reach.Sp.t;
  reader : Shadow.t;
  writer : Shadow.t;
  (* frame stack: ids plus kind codes (user 0, update 1, reduce 2,
     identity 3) *)
  mutable fids : int array;
  mutable kinds : int array;
  mutable depth : int;
  (* structural generation: bumps invalidate the classify memo *)
  mutable gen : int;
  (* two-slot memo: (gen, frame) -> -1 = Serial, vid >= 0 = Parallel vid *)
  mutable m0_gen : int;
  mutable m0_u : int;
  mutable m0_res : int;
  mutable m1_gen : int;
  mutable m1_u : int;
  mutable m1_res : int;
  collector : Report.collector;
  tool : Tool.t;
}

let kind_code = function
  | Tool.User_fn -> 0
  | Tool.Update_fn -> 1
  | Tool.Reduce_fn -> 2
  | Tool.Identity_fn -> 3

let reduce_code = 2

let backend t = Reach.Sp.backend t.reach

let reset t =
  Reach.Sp.reset t.reach;
  Shadow.clear t.reader;
  Shadow.clear t.writer;
  Report.clear t.collector;
  t.depth <- 0;
  t.gen <- t.gen + 1

let tool t = t.tool
let races t = Report.races t.collector
let found t = Report.count t.collector > 0
let racy_locs t = Report.racy_subjects t.collector

(* -------- structural events -------- *)

(* No memo invalidation here: entering a frame pushes fresh empty bags
   (dset) or extends the current path strictly below any recorded frame's
   LCA (depa) — no existing frame changes set membership, no root payload
   is rewritten, so every cached classification recomputes identically. *)
let frame_enter t ~frame ~kind =
  Reach.Sp.on_frame_enter t.reach ~frame;
  if t.depth >= Array.length t.fids then begin
    let cap = 2 * Array.length t.fids in
    let fids = Array.make cap 0 and kinds = Array.make cap 0 in
    Array.blit t.fids 0 fids 0 t.depth;
    Array.blit t.kinds 0 kinds 0 t.depth;
    t.fids <- fids;
    t.kinds <- kinds
  end;
  t.fids.(t.depth) <- frame;
  t.kinds.(t.depth) <- kind_code kind;
  t.depth <- t.depth + 1

(* Returns, syncs and reduces invalidate the classify memo only when the
   backend reports a real structural change (see [Reach.Sp]): a
   pure-control frame returning with empty bags moves no noted frame, so
   every cached classification recomputes identically and the memo
   survives. *)
let frame_return t ~frame ~spawned =
  let i = t.depth - 1 in
  t.depth <- i;
  assert (t.fids.(i) = frame);
  (* A returning Reduce invocation joins the P bag whose views it just
     merged; spawned children join the top P bag; called children are
     serial with the parent (paper §6). *)
  if
    Reach.Sp.on_frame_return t.reach ~frame
      ~parallel:(t.kinds.(i) = reduce_code || spawned)
  then t.gen <- t.gen + 1

let sync t ~frame =
  assert (t.fids.(t.depth - 1) = frame);
  if Reach.Sp.on_sync t.reach ~frame then t.gen <- t.gen + 1

(* A steal pushes a fresh empty P bag (dset) / a strictly newer epoch
   (depa): recorded frames keep their sets, roots keep their payloads, and
   epoch lookups for already-recorded epochs are unaffected — the memo
   stays valid. (The current view does change, but it is read directly,
   never memoized.) *)
let steal t ~frame ~region =
  Reach.Sp.on_steal t.reach ~frame ~region

let reduce t ~frame =
  if Reach.Sp.on_reduce t.reach ~frame then t.gen <- t.gen + 1

(* -------- accesses -------- *)

(* Shadow-entry classification, memoized within the current structural
   generation: -1 = Serial, otherwise the P bag's view id. *)
let classify t u =
  if u = Shadow.absent then -1
  else if t.m0_gen = t.gen && t.m0_u = u then t.m0_res
  else if t.m1_gen = t.gen && t.m1_u = u then t.m1_res
  else begin
    let res =
      match Reach.Sp.classify t.reach u with
      | Reach.Sp.Serial -> -1
      | Reach.Sp.Parallel vid -> vid
    in
    t.m1_gen <- t.m0_gen;
    t.m1_u <- t.m0_u;
    t.m1_res <- t.m0_res;
    t.m0_gen <- t.gen;
    t.m0_u <- u;
    t.m0_res <- res;
    res
  end

let access_of_write w = if w then Report.Write else Report.Read

(* [pv]/[cur] are the recorded and current view ids, meaningful only when
   the second access is view-aware (the race is then a cross-view one). *)
let report t ~loc ~first_frame ~first_is_write ~second_frame ~second_is_write
    ~view_aware ~pv ~cur =
  Report.report t.collector
    {
      Report.kind = Report.Determinacy_race;
      subject = loc;
      subject_label = Engine.loc_label t.eng loc;
      first_frame;
      first_access = access_of_write first_is_write;
      second_frame;
      second_access = access_of_write second_is_write;
      second_strand = Engine.current_strand t.eng;
      second_view_aware = view_aware;
      detail =
        (if view_aware then Printf.sprintf "parallel views %d vs %d" pv cur
         else "");
    }

let check t ~loc ~frame ~view_aware ~first_frame ~first_is_write
    ~second_is_write =
  let pv = classify t first_frame in
  if pv >= 0 then
    if not view_aware then
      report t ~loc ~first_frame ~first_is_write ~second_frame:frame
        ~second_is_write ~view_aware ~pv ~cur:0
    else begin
      let cur = Reach.Sp.cur_view t.reach in
      if pv <> cur then
        report t ~loc ~first_frame ~first_is_write ~second_frame:frame
          ~second_is_write ~view_aware ~pv ~cur
    end

(* Shadow update: keep the recorded access unless it is serial with the
   current strand, even when the current strand is a reduce of its view
   (paper Fig. 6 overwrites that entry; DESIGN.md §5). For accesses
   w < r < x in serial order, w ∥ r and r ∥ x imply w ∥ x, and from r on
   w and r share one view, so keeping w loses no race r would catch —
   whereas a view-oblivious x joined after the reduce r but parallel to
   an unsynced w races with w only. *)
let may_update t recorded = classify t recorded < 0

let read t ~frame ~loc ~view_aware =
  check t ~loc ~frame ~view_aware
    ~first_frame:(Shadow.get t.writer loc)
    ~first_is_write:true ~second_is_write:false;
  let r = Shadow.get t.reader loc in
  if may_update t r then begin
    Reach.Sp.note t.reach ~frame;
    Shadow.set t.reader loc frame
  end

let write t ~frame ~loc ~view_aware =
  check t ~loc ~frame ~view_aware
    ~first_frame:(Shadow.get t.reader loc)
    ~first_is_write:false ~second_is_write:true;
  let w = Shadow.get t.writer loc in
  check t ~loc ~frame ~view_aware ~first_frame:w ~first_is_write:true
    ~second_is_write:true;
  if may_update t w then begin
    Reach.Sp.note t.reach ~frame;
    Shadow.set t.writer loc frame
  end

(* The record is built once per detector, so an [Engine.reset ~tool] per
   replayed spec allocates nothing. *)
let create ?(reach = Reach.Dset) eng =
  let rec d =
    {
      eng;
      reach = Reach.Sp.create reach;
      reader = Shadow.create ();
      writer = Shadow.create ();
      fids = Array.make 64 0;
      kinds = Array.make 64 0;
      depth = 0;
      gen = 0;
      m0_gen = -1;
      m0_u = -1;
      m0_res = -1;
      m1_gen = -1;
      m1_u = -1;
      m1_res = -1;
      collector = Report.collector ();
      tool =
        {
          Tool.null with
          on_frame_enter =
            (fun ~frame ~parent:_ ~spawned:_ ~kind -> frame_enter d ~frame ~kind);
          on_frame_return =
            (fun ~frame ~parent:_ ~spawned ~kind:_ ->
              frame_return d ~frame ~spawned);
          on_sync = (fun ~frame -> sync d ~frame);
          on_steal = (fun ~frame ~region -> steal d ~frame ~region);
          on_reduce =
            (fun ~frame ~into_region:_ ~from_region:_ -> reduce d ~frame);
          on_read = (fun ~frame ~loc ~view_aware -> read d ~frame ~loc ~view_aware);
          on_write =
            (fun ~frame ~loc ~view_aware -> write d ~frame ~loc ~view_aware);
        };
    }
  in
  d

let attach ?reach eng =
  let d = create ?reach eng in
  Engine.set_tool eng d.tool;
  d
