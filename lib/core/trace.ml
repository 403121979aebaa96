module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool
module Tape = Rader_runtime.Tape
module Dynarr = Rader_support.Dynarr
module Intvec = Rader_support.Intvec
module Dag = Rader_dag.Dag
module Sp_tree = Rader_dag.Sp_tree

type t = {
  tape : int array;
  label_locs : int array;
  label_text : string array;
  n_strands : int;
  acc_loc : int array;
  acc_strand : int array;
  acc_frame : int array;
  acc_write : bool array;
  acc_view_aware : bool array;
  rread_reducer : int array;
  rread_strand : int array;
  aux_kind : Tool.frame_kind array;
  aux_reducer : int array;
  aux_strand : int array;
  frame_parent : int array;
  frame_kind : Tool.frame_kind array;
  frame_spawned : bool array;
  spawn_frame : int array;
  spawn_strand : int array;
  spawn_cont : int array;
  merge_from : int array;
  merge_into : int array;
  merge_at : int array;
  ix : Sp_tree.indexed option;
  groups : groups Lazy.t;
  dag : Dag.t Lazy.t;
}

and groups = { g_locs : int array; g_start : int array; g_order : int array }

(* ---------- grouping accesses by location ---------- *)

(* A counting sort when location ids are dense, as recorded ones are
   (the registry hands them out from 0); a loaded tape may name any id, so
   sparse ones fall back to a stable sort. Either way a group keeps its
   accesses in serial order. *)
let group_by_loc acc_loc =
  let n = Array.length acc_loc in
  let max_loc = Array.fold_left Int.max (-1) acc_loc in
  let order =
    if max_loc < (4 * n) + 4096 then begin
      let next = Array.make (max_loc + 2) 0 in
      for i = 0 to n - 1 do
        let l = acc_loc.(i) + 1 in
        next.(l) <- next.(l) + 1
      done;
      for l = 1 to max_loc + 1 do
        next.(l) <- next.(l) + next.(l - 1)
      done;
      let order = Array.make n 0 in
      for i = 0 to n - 1 do
        let l = acc_loc.(i) in
        order.(next.(l)) <- i;
        next.(l) <- next.(l) + 1
      done;
      order
    end
    else begin
      let order = Array.init n Fun.id in
      Array.stable_sort (fun i j -> Int.compare acc_loc.(i) acc_loc.(j)) order;
      order
    end
  in
  let locs = Intvec.create () and start = Intvec.create () in
  for k = 0 to n - 1 do
    let l = acc_loc.(order.(k)) in
    if k = 0 || l <> acc_loc.(order.(k - 1)) then begin
      Intvec.push locs l;
      Intvec.push start k
    end
  done;
  Intvec.push start n;
  { g_locs = Intvec.to_array locs; g_start = Intvec.to_array start; g_order = order }

(* ---------- the decoder ---------- *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* A frame being decoded. [blocks] and [items] build its boxed parse tree
   (paper Fig. 4) when asked for: its finished sync-block trees and the
   items of the block in progress, both newest first. The other fields
   fill the parse tree's index (see [walk]). *)
type frame = {
  fid : int;
  kind : Tool.frame_kind;
  view_aware : bool;
  spawned : bool;
  rbase : int; (* its entry region's slot in the region stack *)
  first : int; (* its first strand *)
  home : int; (* the class of its S spine *)
  pending : int; (* height of the pending-spawn stack at entry *)
  mutable strand : int; (* current strand *)
  mutable cls : int; (* class of the current strand *)
  mutable block : int; (* Hebrew offset of the current sync block *)
  mutable placed : int; (* leaves placed in its forward part so far *)
  mutable blocks : Sp_tree.t list;
  mutable items : Sp_tree.item list;
}

let close_block fr =
  if fr.items <> [] then begin
    fr.blocks <- Sp_tree.block_tree (List.rev fr.items) :: fr.blocks;
    fr.items <- []
  end

let finish fr =
  close_block fr;
  Sp_tree.function_tree (List.rev fr.blocks)

let reduce_tree_msg =
  "performance dag with reduce strands (record under Steal_spec.none)"

(* One walk over a tape recounts every id the engine handed out — frames,
   strands, regions, spawn indices — and yields the trace, without labels,
   and the boxed parse tree if [tree]. [edges] builds the performance dag
   now; without it, the trace builds it on demand by walking again. A
   count of the tape's tags first sizes the logs' arrays. The walk checks
   everything the engine guarantees, so that any tape it accepts decodes
   into a trace the oracles and the index can use; it raises [Malformed]
   otherwise.

   The edge rule (paper §5): a strand follows its frame's previous strand,
   except that a sync — and each reduce of a merge — follows the tails of
   the regions it joins: every completed spawned child's last strand, the
   spawn strand of each stolen continuation (its segment's last strand),
   the syncing frame's current strand and each earlier reduce strand of
   the merge.

   The index (no reduce frame seen). Strands are numbered in serial
   order, which is the parse tree's English order. Hebrew order visits a
   P node's right child first: in a sync block, the frame's own strands
   and its called children come in serial order, then its spawned
   children in reverse. A strand therefore gets its offset in its frame's
   Hebrew order when it starts, and so does a called child; a spawned
   child, whose size is then known, waits on the pending-spawn stack until
   its block closes. One pass over the frames, parents first, then turns
   offsets into ranks. Cutting the tree at its P nodes leaves the classes:
   a frame's spine and each block's strands up to its first spawn share
   the frame's home class; a spawned child, and the rest of a block after
   each spawn, start a new one; a called child's home is its caller's
   class. *)
let rec walk ~edges ~tree tape =
  let n_entries = Array.length tape in
  let n_frames = ref 0 and n_spawned = ref 0 and n_aux = ref 0 and n_reduces = ref 0 in
  let n_acc = ref 0 and n_rreads = ref 0 and n_merges = ref 0 in
  let n_returns = ref 0 and n_stolen = ref 0 and n_syncs = ref 0 and n_steals = ref 0 in
  for i = 0 to n_entries - 1 do
    let e = tape.(i) in
    let tag = Tape.tag e in
    if tag = Tape.access then incr n_acc
    else if tag = Tape.enter then begin
      let kind = Tape.enter_kind (Tape.arg e) in
      incr n_frames;
      if Tape.enter_spawned (Tape.arg e) then incr n_spawned;
      if kind <> Tool.User_fn then incr n_aux;
      if kind = Tool.Reduce_fn then incr n_reduces
    end
    else if tag = Tape.return then begin
      incr n_returns;
      if Tape.arg e = 1 then incr n_stolen
    end
    else if tag = Tape.sync then incr n_syncs
    else if tag = Tape.steal then incr n_steals
    else if tag = Tape.reducer_read then incr n_rreads
    else if tag = Tape.merge then incr n_merges
  done;
  let acc_loc = Array.make !n_acc 0 and acc_strand = Array.make !n_acc 0 in
  let acc_frame = Array.make !n_acc 0 in
  let acc_write = Array.make !n_acc false and acc_view_aware = Array.make !n_acc false in
  let rread_reducer = Array.make !n_rreads 0 and rread_strand = Array.make !n_rreads 0 in
  let aux_kind = Array.make !n_aux Tool.User_fn in
  let aux_reducer = Array.make !n_aux 0 and aux_strand = Array.make !n_aux 0 in
  let frame_parent = Array.make !n_frames (-1) in
  let frame_kind = Array.make !n_frames Tool.User_fn in
  let frame_spawned = Array.make !n_frames false in
  let spawn_frame = Array.make !n_spawned 0 and spawn_strand = Array.make !n_spawned 0 in
  let spawn_cont = Array.make !n_spawned 0 in
  let merge_from = Array.make !n_merges 0 and merge_into = Array.make !n_merges 0 in
  let merge_at = Array.make !n_merges 0 in
  (* the index: per strand, its frame, its Hebrew offset in that frame
     and its class; per frame, its Hebrew offset in its parent *)
  let indexable = ref (!n_reduces = 0 && not (edges || tree)) in
  (* Every enter, sync and steal starts a strand, and so does every return
     but the root's and those of stolen continuations, whose steals do:
     the count is exact for a complete tape without reduce frames. A tape
     it misses, which the walk refuses anyway, gets no index. *)
  let n_indexed =
    if !indexable then
      Int.max 0 (!n_frames + !n_syncs + !n_steals + !n_returns - !n_stolen - 1)
    else 0
  in
  let strand_frame = Array.make n_indexed 0 and hebrew = Array.make n_indexed 0 in
  let peer_class = Array.make n_indexed 0 in
  let frame_offset = Array.make (if !indexable then !n_frames else 0) 0 in
  let pending = Intvec.create () (* (spawned child, its size) pairs *) in
  let n_classes = ref 0 in
  let fresh_class () =
    let c = !n_classes in
    incr n_classes;
    c
  in
  let built = if edges then Some (Dag.create ()) else None in
  let frames = ref [] (* open frames, innermost first *) in
  let rids = Intvec.create () in
  let tails = Dynarr.create () in
  let next_fid = ref 0 and next_rid = ref 1 in
  let n_strands = ref 0 and n_spawns = ref 0 in
  (* from here on, the counts are the logs' fill levels *)
  let n_aux = ref 0 and n_acc = ref 0 and n_rreads = ref 0 and n_merges = ref 0 in
  let root_done = ref false and root_tree = ref None in
  (* merge state: inside a merge's callbacks; the merges belong to a sync
     whose tail is already added; the stolen spawn (its frame, index and
     spawn strand) awaiting its steal *)
  let in_merge = ref false and sync_merging = ref false in
  let stolen = ref None in
  let merge_slot = ref 0 in
  let innermost what =
    match !frames with fr :: _ -> fr | [] -> malformed "%s with no open frame" what
  in
  let push_region rid =
    Intvec.push rids rid;
    if edges then Dynarr.push tails []
  in
  let add_tail s =
    if edges then begin
      let i = Dynarr.length tails - 1 in
      Dynarr.set tails i (s :: Dynarr.get tails i)
    end
  in
  (* The frame's sync block ends: its pending spawned children take their
     Hebrew offsets after the block's forward part, newest first. *)
  let close_hebrew_block fr =
    let at = ref (fr.block + fr.placed) in
    while Intvec.length pending > fr.pending do
      let size = Intvec.pop pending in
      frame_offset.(Intvec.pop pending) <- !at;
      at := !at + size
    done;
    fr.block <- !at;
    fr.placed <- 0
  in
  (* A new strand of [fr], on the current region, after [preds]. *)
  let new_strand fr ~label preds =
    let s = !n_strands in
    incr n_strands;
    fr.strand <- s;
    if !indexable then
      if s < n_indexed then begin
        strand_frame.(s) <- fr.fid;
        hebrew.(s) <- fr.block + fr.placed;
        fr.placed <- fr.placed + 1;
        peer_class.(s) <- fr.cls
      end
      else indexable := false;
    (match built with
    | None -> ()
    | Some d ->
        let kind =
          match fr.kind with
          | Tool.User_fn -> Dag.User
          | Tool.Update_fn -> Dag.Update
          | Tool.Reduce_fn -> Dag.Reduce
          | Tool.Identity_fn -> Dag.Identity
        in
        ignore (Dag.add_strand d ~frame:fr.fid ~kind ~view:(Intvec.top rids) ~label);
        List.iter (fun p -> Dag.add_edge d p s) (List.sort_uniq compare preds));
    if tree then begin
      if label = "sync" then close_block fr;
      fr.items <- Sp_tree.Strand s :: fr.items
    end
  in
  let continue_after_spawn fr index before =
    new_strand fr ~label:"cont" [ before ];
    spawn_frame.(index) <- fr.fid;
    spawn_strand.(index) <- before;
    spawn_cont.(index) <- fr.strand
  in
  let enter a =
    let kind = Tape.enter_kind a and spawned = Tape.enter_spawned a in
    let view_aware = kind <> Tool.User_fn in
    let parent = match !frames with p :: _ -> Some p | [] -> None in
    (match parent with
    | None ->
        if view_aware || spawned then malformed "the root must be an unspawned user frame"
    | Some p ->
        if p.kind <> Tool.User_fn then malformed "a view-aware frame has a child";
        if view_aware && spawned then malformed "a spawned view-aware frame";
        if !in_merge && not view_aware then malformed "a user frame inside a merge");
    if kind = Tool.Reduce_fn then begin
      if tree then invalid_arg ("Trace.sp_tree: " ^ reduce_tree_msg);
      indexable := false
    end;
    let fid = !next_fid in
    incr next_fid;
    frame_kind.(fid) <- kind;
    frame_spawned.(fid) <- spawned;
    let home =
      match parent with
      | Some p ->
          frame_parent.(fid) <- p.fid;
          if !indexable && not spawned then frame_offset.(fid) <- p.block + p.placed;
          if spawned then fresh_class () else p.cls
      | None -> fresh_class ()
    in
    let fr =
      {
        fid;
        kind;
        view_aware;
        spawned;
        rbase = Intvec.length rids;
        first = !n_strands;
        home;
        pending = Intvec.length pending;
        strand = -1;
        cls = home;
        block = 0;
        placed = 0;
        blocks = [];
        items = [];
      }
    in
    push_region (match parent with Some _ -> Intvec.top rids | None -> 0);
    frames := fr :: !frames;
    match parent with
    | None -> new_strand fr ~label:"main" []
    | Some p when not view_aware -> new_strand fr ~label:"enter" [ p.strand ]
    | Some p ->
        new_strand fr ~label:(Tool.frame_kind_name kind)
          (if kind = Tool.Reduce_fn && !in_merge then
             if edges then Dynarr.get tails !merge_slot else []
           else [ p.strand ]);
        let i = !n_aux in
        incr n_aux;
        aux_kind.(i) <- kind;
        aux_reducer.(i) <- Tape.enter_reducer a;
        aux_strand.(i) <- fr.strand
  in
  let return ~after_sync a =
    let fr = innermost "a return" in
    if a <> 0 && a <> 1 then malformed "bad return argument %d" a;
    if a = 1 && not fr.spawned then malformed "a called frame's continuation stolen";
    if fr.kind = Tool.User_fn && not after_sync then
      malformed "a user frame returns without its sync";
    frames := List.tl !frames;
    ignore (Intvec.pop rids);
    if edges then ignore (Dynarr.pop tails);
    if !indexable then close_hebrew_block fr;
    match !frames with
    | [] ->
        root_done := true;
        if tree then root_tree := Some (finish fr)
    | p :: _ ->
        if tree then
          p.items <-
            (if fr.spawned then Sp_tree.Spawned (finish fr) else Sp_tree.Called (finish fr))
            :: p.items;
        let size = !n_strands - fr.first in
        if fr.kind = Tool.Reduce_fn && !in_merge then begin
          if edges then Dynarr.set tails !merge_slot [ fr.strand ]
        end
        else if not fr.spawned then begin
          p.placed <- p.placed + size;
          new_strand p ~label:"cont" [ fr.strand ]
        end
        else begin
          if !indexable then begin
            Intvec.push pending fr.fid;
            Intvec.push pending size
          end;
          p.cls <- fresh_class ();
          add_tail fr.strand;
          let index = !n_spawns in
          incr n_spawns;
          if a = 1 then begin
            add_tail p.strand;
            stolen := Some (p, index, p.strand)
          end
          else continue_after_spawn p index p.strand
        end
  in
  let sync () =
    let fr = innermost "a sync" in
    if fr.kind <> Tool.User_fn then malformed "a sync in a view-aware frame";
    if !stolen <> None then malformed "a sync before a stolen continuation's steal";
    if Intvec.length rids - fr.rbase <> 1 then malformed "a sync with unmerged regions";
    if not !sync_merging then add_tail fr.strand;
    in_merge := false;
    sync_merging := false;
    let preds =
      if edges then begin
        let slot = Dynarr.length tails - 1 in
        let preds = Dynarr.get tails slot in
        Dynarr.set tails slot [];
        preds
      end
      else []
    in
    if !indexable then close_hebrew_block fr;
    fr.cls <- fr.home;
    new_strand fr ~label:"sync" preds
  in
  let merge () =
    let fr = innermost "a merge" in
    if fr.kind <> Tool.User_fn then malformed "a merge in a view-aware frame";
    let from_slot = Intvec.length rids - 1 in
    if from_slot - fr.rbase < 1 then malformed "a merge with fewer than two open regions";
    if !stolen = None && not !sync_merging then begin
      add_tail fr.strand;
      sync_merging := true
    end;
    let into = from_slot - 1 in
    let i = !n_merges in
    incr n_merges;
    merge_from.(i) <- Intvec.pop rids;
    merge_into.(i) <- Intvec.get rids into;
    merge_at.(i) <- !n_strands;
    if edges then begin
      let from_tails = Dynarr.pop tails in
      Dynarr.set tails into (List.rev_append from_tails (Dynarr.get tails into))
    end;
    merge_slot := into;
    in_merge := true
  in
  let steal () =
    match !stolen with
    | None -> malformed "a steal with no stolen spawn"
    | Some (fr, index, spawn_strand) ->
        if innermost "a steal" != fr then malformed "a steal inside a merge's frame";
        stolen := None;
        in_merge := false;
        push_region !next_rid;
        incr next_rid;
        continue_after_spawn fr index spawn_strand
  in
  let access a =
    let fr = innermost "an access" in
    let loc = Tape.access_loc a in
    if loc < 0 then malformed "bad location %d" loc;
    let i = !n_acc in
    incr n_acc;
    acc_loc.(i) <- loc;
    acc_strand.(i) <- fr.strand;
    acc_frame.(i) <- fr.fid;
    acc_write.(i) <- Tape.access_write a;
    acc_view_aware.(i) <- fr.view_aware
  in
  let reducer_read a =
    let fr = innermost "a reducer-read" in
    if fr.kind <> Tool.User_fn then malformed "a reducer-read in a view-aware frame";
    if a < 0 then malformed "bad reducer %d" a;
    let i = !n_rreads in
    incr n_rreads;
    rread_reducer.(i) <- a;
    rread_strand.(i) <- fr.strand
  in
  let pos = ref 0 in
  (try
     for i = 0 to n_entries - 1 do
       pos := i;
       let e = tape.(i) in
       let tag = Tape.tag e and a = Tape.arg e in
       if !root_done then malformed "an entry after the root frame returned";
       if !stolen <> None && (not !in_merge) && tag <> Tape.merge && tag <> Tape.steal then
         malformed "a stolen continuation's merges or steal expected";
       if tag = Tape.access then access a
       else if tag = Tape.enter then enter a
       else if tag = Tape.return then
         return ~after_sync:(i > 0 && Tape.tag tape.(i - 1) = Tape.sync) a
       else if tag = Tape.sync then sync ()
       else if tag = Tape.reducer_read then reducer_read a
       else if tag = Tape.merge then merge ()
       else if tag = Tape.steal then steal ()
       else malformed "unknown tag %d" tag
     done
   with Malformed msg -> malformed "entry %d: %s" !pos msg);
  if not !root_done then
    if n_entries = 0 then malformed "empty tape"
    else malformed "incomplete run: %d frame(s) still open" (List.length !frames);
  let n = !n_strands in
  let ix =
    if not (!indexable && n = n_indexed) then None
    else begin
      (* offsets to ranks: a frame's Hebrew order starts at its parent's
         start plus its offset there; parents have the smaller ids *)
      for f = 1 to !next_fid - 1 do
        frame_offset.(f) <- frame_offset.(frame_parent.(f)) + frame_offset.(f)
      done;
      for s = 0 to n - 1 do
        hebrew.(s) <- hebrew.(s) + frame_offset.(strand_frame.(s))
      done;
      Some (Sp_tree.make_index ~hebrew ~peer_class)
    end
  in
  ( {
      tape;
      label_locs = [||];
      label_text = [||];
      n_strands = n;
      acc_loc;
      acc_strand;
      acc_frame;
      acc_write;
      acc_view_aware;
      rread_reducer;
      rread_strand;
      aux_kind;
      aux_reducer;
      aux_strand;
      frame_parent;
      frame_kind;
      frame_spawned;
      spawn_frame;
      spawn_strand;
      spawn_cont;
      merge_from;
      merge_into;
      merge_at;
      ix;
      groups = lazy (group_by_loc acc_loc);
      dag =
        (match built with
        | Some d -> Lazy.from_val d
        | None -> lazy (dag (fst (walk ~edges:true ~tree:false tape))));
    },
    !root_tree )

and dag t = Lazy.force t.dag

let by_loc t = Lazy.force t.groups

let index t =
  match t.ix with Some ix -> ix | None -> invalid_arg ("Trace.index: " ^ reduce_tree_msg)

(* Decode [tape]; [labels] gives the labelled locations, ascending, and
   their labels. *)
let decode tape labels =
  match walk ~edges:false ~tree:false tape with
  | exception Malformed msg -> Error msg
  | t, _ ->
      let label_locs, label_text = labels t in
      Ok { t with label_locs; label_text }

let of_engine eng =
  match Engine.tape eng with
  | None -> invalid_arg "Trace.of_engine: engine run was not recorded"
  | Some tape -> (
      (* the accessed locations, from the grouping the scans use anyway *)
      let labels t =
        let locs = (by_loc t).g_locs in
        (locs, Array.map (Engine.loc_label eng) locs)
      in
      match decode tape labels with
      | Ok t -> t
      | Error msg -> invalid_arg ("Trace.of_engine: " ^ msg))

let loc_label t loc =
  let lo = ref 0 and hi = ref (Array.length t.label_locs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.label_locs.(mid) < loc then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length t.label_locs && t.label_locs.(!lo) = loc then t.label_text.(!lo)
  else "?"

let sp_tree t = Option.get (snd (walk ~edges:false ~tree:true t.tape))

let equal a b =
  a.tape = b.tape && a.label_locs = b.label_locs && a.label_text = b.label_text

(* ---------- serialization ----------

   Line 1 is the header, then one tape entry per line as a decimal int,
   then one ["l <loc> <label>"] line per location label. *)

let version = 2
let header = Printf.sprintf "rader-trace %d" version

let save t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc header;
  output_char oc '\n';
  Array.iter
    (fun e ->
      output_string oc (string_of_int e);
      output_char oc '\n')
    t.tape;
  Array.iteri
    (fun i l ->
      Printf.fprintf oc "l %d %s\n" l
        (String.map (fun c -> if c = '\n' then ' ' else c) t.label_text.(i)))
    t.label_locs

(* The body after the header: the tape's entries, then the labels, sorted
   by location with the first label of each kept. *)
let parse lines =
  let entries = Intvec.create () and labels = ref [] in
  List.iteri
    (fun i line ->
      match (int_of_string_opt line, String.split_on_char ' ' line) with
      | Some e, _ when !labels = [] -> Intvec.push entries e
      | _, "l" :: loc :: label when int_of_string_opt loc <> None ->
          labels := (int_of_string loc, String.concat " " label) :: !labels
      | _ ->
          malformed "line %d: bad %s %S" (i + 2)
            (if !labels = [] then "integer" else "label line")
            line)
    lines;
  let labels =
    List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev !labels)
    |> List.fold_left
         (fun acc (l, lab) ->
           match acc with (l', _) :: _ when l' = l -> acc | _ -> (l, lab) :: acc)
         []
    |> List.rev
  in
  ( Intvec.to_array entries,
    (Array.of_list (List.map fst labels), Array.of_list (List.map snd labels)) )

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      let err msg = Error (path ^ ": " ^ msg) in
      match String.split_on_char '\n' contents with
      | [] | [ "" ] -> err "empty trace file"
      | line1 :: body -> (
          let body = match List.rev body with "" :: r -> List.rev r | _ -> body in
          match String.split_on_char ' ' line1 with
          | [ "rader-trace"; v ] when v <> string_of_int version ->
              err
                (Printf.sprintf
                   "trace format version %s is not supported (this build \
                    reads version %d)"
                   v version)
          | _ when line1 <> header -> err "not a trace (unsupported format/version)"
          | _ -> (
              match parse body with
              | exception Malformed msg -> err msg
              | tape, labels -> (
                  match decode tape (fun _ -> labels) with
                  | Ok t -> Ok t
                  | Error msg -> err msg))))
