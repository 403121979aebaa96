module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool
module Tape = Rader_runtime.Tape
module Dynarr = Rader_support.Dynarr
module Dag = Rader_dag.Dag
module Sp_tree = Rader_dag.Sp_tree

type access = {
  a_loc : int;
  a_strand : int;
  a_frame : int;
  a_is_write : bool;
  a_view_aware : bool;
}

type merge = { m_from : int; m_into : int; m_at : int }
type spawn = { sp_index : int; sp_frame : int; sp_strand : int; sp_cont : int }

type t = {
  tape : int array;
  loc_labels : (int * string) list;
  n_strands : int;
  accesses : access list;
  merges : merge list;
  reducer_reads : (int * int) list;
  aux_frames : (Tool.frame_kind * int * int) list;
  spawns : spawn list;
  frames : (int * int * bool * Tool.frame_kind) list;
  dag : Dag.t Lazy.t;
}

(* ---------- the decoder ---------- *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* A frame being decoded. [blocks] and [items] build its canonical parse
   tree (paper Fig. 4) when asked for: its finished sync-block trees and
   the items of the block in progress, both newest first. *)
type frame = {
  fid : int;
  kind : Tool.frame_kind;
  spawned : bool;
  rbase : int; (* its entry region's slot in the region stack *)
  mutable strand : int; (* current strand *)
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

(* One walk over a tape recounts every id the engine handed out — frames,
   strands, regions, spawn indices — and yields the trace, without labels,
   and the canonical parse tree if [tree]. [edges] builds the performance
   dag now; without it, the trace builds it on demand by walking again.
   The walk checks everything the engine guarantees, so that any tape it
   accepts decodes into a trace the oracles and [sp_tree] can use; it
   raises [Malformed] otherwise.

   The edge rule (paper §5): a strand follows its frame's previous strand,
   except that a sync — and each reduce of a merge — follows the tails of
   the regions it joins: every completed spawned child's last strand, the
   spawn strand of each stolen continuation (its segment's last strand),
   the syncing frame's current strand and each earlier reduce strand of
   the merge. *)
let rec walk ~edges ~tree tape =
  let built = if edges then Some (Dag.create ()) else None in
  let frames = Dynarr.create () in
  let rids = Dynarr.create () in
  let tails = Dynarr.create () in
  let next_fid = ref 0 and next_rid = ref 1 in
  let n_strands = ref 0 and n_spawns = ref 0 in
  let root_done = ref false and root_tree = ref None in
  (* merge state: inside a merge's callbacks; the merges belong to a sync
     whose tail is already added; the stolen spawn (its frame, index and
     spawn strand) awaiting its steal *)
  let in_merge = ref false and sync_merging = ref false in
  let stolen = ref None in
  let merge_slot = ref 0 in
  let accesses = ref [] and merges = ref [] and rreads = ref [] in
  let aux = ref [] and spawns = ref [] and frame_log = ref [] in
  let innermost what =
    if Dynarr.is_empty frames then malformed "%s with no open frame" what
    else Dynarr.top frames
  in
  let push_region rid =
    Dynarr.push rids rid;
    Dynarr.push tails []
  in
  let add_tail s =
    if edges then begin
      let i = Dynarr.length tails - 1 in
      Dynarr.set tails i (s :: Dynarr.get tails i)
    end
  in
  (* A new strand of [fr], on the current region, after [preds]. *)
  let new_strand fr ~label preds =
    let s = !n_strands in
    incr n_strands;
    fr.strand <- s;
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
        ignore (Dag.add_strand d ~frame:fr.fid ~kind ~view:(Dynarr.top rids) ~label);
        List.iter (fun p -> Dag.add_edge d p s) (List.sort_uniq compare preds));
    if tree then begin
      if label = "sync" then close_block fr;
      fr.items <- Sp_tree.Strand s :: fr.items
    end
  in
  let continue_after_spawn fr index spawn_strand =
    new_strand fr ~label:"cont" [ spawn_strand ];
    spawns :=
      { sp_index = index; sp_frame = fr.fid; sp_strand = spawn_strand; sp_cont = fr.strand }
      :: !spawns
  in
  let enter a =
    let kind = Tape.enter_kind a and spawned = Tape.enter_spawned a in
    let view_aware = kind <> Tool.User_fn in
    let parent = if Dynarr.is_empty frames then None else Some (Dynarr.top frames) in
    (match parent with
    | None ->
        if view_aware || spawned then malformed "the root must be an unspawned user frame"
    | Some p ->
        if p.kind <> Tool.User_fn then malformed "a view-aware frame has a child";
        if view_aware && spawned then malformed "a spawned view-aware frame";
        if !in_merge && not view_aware then malformed "a user frame inside a merge");
    if tree && kind = Tool.Reduce_fn then
      invalid_arg
        "Trace.sp_tree: performance dag with reduce strands (record under \
         Steal_spec.none)";
    let fid = !next_fid in
    incr next_fid;
    let rbase = Dynarr.length rids in
    let fr = { fid; kind; spawned; rbase; strand = -1; blocks = []; items = [] } in
    frame_log :=
      (fid, (match parent with Some p -> p.fid | None -> -1), spawned, kind)
      :: !frame_log;
    push_region (match parent with Some _ -> Dynarr.top rids | None -> 0);
    Dynarr.push frames fr;
    match parent with
    | None -> new_strand fr ~label:"main" []
    | Some p when not view_aware -> new_strand fr ~label:"enter" [ p.strand ]
    | Some p ->
        new_strand fr ~label:(Tool.frame_kind_name kind)
          (if kind = Tool.Reduce_fn && !in_merge then Dynarr.get tails !merge_slot
           else [ p.strand ]);
        aux := (kind, Tape.enter_reducer a, fr.strand) :: !aux
  in
  let return ~after_sync a =
    let fr = innermost "a return" in
    if a <> 0 && a <> 1 then malformed "bad return argument %d" a;
    if a = 1 && not fr.spawned then malformed "a called frame's continuation stolen";
    if fr.kind = Tool.User_fn && not after_sync then
      malformed "a user frame returns without its sync";
    ignore (Dynarr.pop frames);
    ignore (Dynarr.pop rids);
    ignore (Dynarr.pop tails);
    if Dynarr.is_empty frames then begin
      root_done := true;
      if tree then root_tree := Some (finish fr)
    end
    else begin
      let p = Dynarr.top frames in
      if tree then
        p.items <-
          (if fr.spawned then Sp_tree.Spawned (finish fr) else Sp_tree.Called (finish fr))
          :: p.items;
      if fr.kind = Tool.Reduce_fn && !in_merge then begin
        if edges then Dynarr.set tails !merge_slot [ fr.strand ]
      end
      else if not fr.spawned then new_strand p ~label:"cont" [ fr.strand ]
      else begin
        add_tail fr.strand;
        let index = !n_spawns in
        incr n_spawns;
        if a = 1 then begin
          add_tail p.strand;
          stolen := Some (p, index, p.strand)
        end
        else continue_after_spawn p index p.strand
      end
    end
  in
  let sync () =
    let fr = innermost "a sync" in
    if fr.kind <> Tool.User_fn then malformed "a sync in a view-aware frame";
    if !stolen <> None then malformed "a sync before a stolen continuation's steal";
    if Dynarr.length rids - fr.rbase <> 1 then malformed "a sync with unmerged regions";
    if not !sync_merging then add_tail fr.strand;
    in_merge := false;
    sync_merging := false;
    let slot = Dynarr.length tails - 1 in
    let preds = Dynarr.get tails slot in
    Dynarr.set tails slot [];
    new_strand fr ~label:"sync" preds
  in
  let merge () =
    let fr = innermost "a merge" in
    if fr.kind <> Tool.User_fn then malformed "a merge in a view-aware frame";
    let from_slot = Dynarr.length rids - 1 in
    if from_slot - fr.rbase < 1 then malformed "a merge with fewer than two open regions";
    if !stolen = None && not !sync_merging then begin
      add_tail fr.strand;
      sync_merging := true
    end;
    let m_from = Dynarr.pop rids in
    let from_tails = Dynarr.pop tails in
    let into = from_slot - 1 in
    merges := { m_from; m_into = Dynarr.get rids into; m_at = !n_strands } :: !merges;
    if edges then
      Dynarr.set tails into (List.rev_append from_tails (Dynarr.get tails into));
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
  let pos = ref 0 in
  (try
     Array.iteri
       (fun i e ->
         pos := i;
         let tag = Tape.tag e and a = Tape.arg e in
         if !root_done then malformed "an entry after the root frame returned";
         if !stolen <> None && (not !in_merge) && tag <> Tape.merge && tag <> Tape.steal
         then malformed "a stolen continuation's merges or steal expected";
         if tag = Tape.enter then enter a
         else if tag = Tape.return then
           return ~after_sync:(i > 0 && Tape.tag tape.(i - 1) = Tape.sync) a
         else if tag = Tape.sync then sync ()
         else if tag = Tape.merge then merge ()
         else if tag = Tape.steal then steal ()
         else if tag = Tape.access then begin
           let fr = innermost "an access" in
           let loc = Tape.access_loc a in
           if loc < 0 then malformed "bad location %d" loc;
           accesses :=
             {
               a_loc = loc;
               a_strand = fr.strand;
               a_frame = fr.fid;
               a_is_write = Tape.access_write a;
               a_view_aware = fr.kind <> Tool.User_fn;
             }
             :: !accesses
         end
         else if tag = Tape.reducer_read then begin
           let fr = innermost "a reducer-read" in
           if fr.kind <> Tool.User_fn then malformed "a reducer-read in a view-aware frame";
           if a < 0 then malformed "bad reducer %d" a;
           rreads := (a, fr.strand) :: !rreads
         end
         else malformed "unknown tag %d" tag)
       tape
   with Malformed msg -> malformed "entry %d: %s" !pos msg);
  if not !root_done then
    if Array.length tape = 0 then malformed "empty tape"
    else malformed "incomplete run: %d frame(s) still open" (Dynarr.length frames);
  ( {
      tape;
      loc_labels = [];
      n_strands = !n_strands;
      accesses = List.rev !accesses;
      merges = List.rev !merges;
      reducer_reads = List.rev !rreads;
      aux_frames = List.rev !aux;
      spawns = List.rev !spawns;
      frames = List.rev !frame_log;
      dag =
        (match built with
        | Some d -> Lazy.from_val d
        | None -> lazy (dag (fst (walk ~edges:true ~tree:false tape))));
    },
    !root_tree )

and dag t = Lazy.force t.dag

(* Decode [tape]; [labels] names the locations its accesses touch. *)
let decode tape labels =
  match walk ~edges:false ~tree:false tape with
  | exception Malformed msg -> Error msg
  | t, _ -> Ok { t with loc_labels = labels t.accesses }

let of_engine eng =
  match Engine.tape eng with
  | None -> invalid_arg "Trace.of_engine: engine run was not recorded"
  | Some tape -> (
      (* Mark each location in a seen-table indexed by id ([decode]
         rejects negative ids), then read the table in ascending order:
         no sort over the accesses, which outnumber locations ~17x on
         pbfs. *)
      let labels accesses =
        let seen = ref (Bytes.make 1024 '\000') in
        List.iter
          (fun a ->
            let n = Bytes.length !seen in
            if a.a_loc >= n then begin
              let b = Bytes.make (max (a.a_loc + 1) (2 * n)) '\000' in
              Bytes.blit !seen 0 b 0 n;
              seen := b
            end;
            Bytes.set !seen a.a_loc '\001')
          accesses;
        let acc = ref [] in
        for l = Bytes.length !seen - 1 downto 0 do
          if Bytes.get !seen l = '\001' then acc := (l, Engine.loc_label eng l) :: !acc
        done;
        !acc
      in
      match decode tape labels with
      | Ok t -> t
      | Error msg -> invalid_arg ("Trace.of_engine: " ^ msg))

let loc_label t loc =
  match List.assoc_opt loc t.loc_labels with Some s -> s | None -> "?"

let sp_tree t = Option.get (snd (walk ~edges:false ~tree:true t.tape))
let equal a b = a.tape = b.tape && a.loc_labels = b.loc_labels

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
  List.iter
    (fun (l, lab) ->
      Printf.fprintf oc "l %d %s\n" l
        (String.map (fun c -> if c = '\n' then ' ' else c) lab))
    t.loc_labels

(* The body after the header: the tape's entries, then the labels. *)
let parse lines =
  let entries = Dynarr.create () and labels = ref [] in
  List.iteri
    (fun i line ->
      match (int_of_string_opt line, String.split_on_char ' ' line) with
      | Some e, _ when !labels = [] -> Dynarr.push entries e
      | _, "l" :: loc :: label when int_of_string_opt loc <> None ->
          labels := (int_of_string loc, String.concat " " label) :: !labels
      | _ ->
          malformed "line %d: bad %s %S" (i + 2)
            (if !labels = [] then "integer" else "label line")
            line)
    lines;
  (Dynarr.to_array entries, List.rev !labels)

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
