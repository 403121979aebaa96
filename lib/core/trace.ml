module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool
module Dag = Rader_dag.Dag
module Sp_tree = Rader_dag.Sp_tree

type t = {
  dag : Dag.t;
  accesses : Engine.access list;
  merges : Engine.merge_rec list;
  reducer_reads : (int * int) list;
  spawns : (int * int * int) list;
  frames : (int * int * bool * Tool.frame_kind) list;
  loc_labels : (int * string) list;
}

let of_engine eng =
  let dag =
    match Engine.dag eng with
    | Some d -> d
    | None -> invalid_arg "Trace.of_engine: engine run was not recorded"
  in
  let accesses = Engine.accesses eng in
  let locs =
    List.sort_uniq Int.compare (List.map (fun a -> a.Engine.a_loc) accesses)
  in
  {
    dag;
    accesses;
    merges = Engine.merges eng;
    reducer_reads = Engine.reducer_reads eng;
    spawns = Engine.spawn_log eng;
    frames = Engine.frames eng;
    loc_labels = List.map (fun l -> (l, Engine.loc_label eng l)) locs;
  }

let loc_label t loc =
  match List.assoc_opt loc t.loc_labels with Some s -> s | None -> "?"

(* ---------- serialization ---------- *)

let header = "rader-trace 1"

let kind_to_int = function
  | Dag.User -> 0
  | Dag.Update -> 1
  | Dag.Reduce -> 2
  | Dag.Identity -> 3

let kind_of_int = function
  | 0 -> Dag.User
  | 1 -> Dag.Update
  | 2 -> Dag.Reduce
  | 3 -> Dag.Identity
  | k -> failwith (Printf.sprintf "Trace: bad strand kind %d" k)

(* Labels may contain spaces; they are always the final field, so parsing
   splits on the first few spaces only. *)

let save t path =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  pr "%s\n" header;
  for i = 0 to Dag.n_strands t.dag - 1 do
    let s = Dag.strand t.dag i in
    pr "s %d %d %d %s\n" s.Dag.frame (kind_to_int s.Dag.kind) s.Dag.view
      (String.map (fun c -> if c = '\n' then ' ' else c) s.Dag.label)
  done;
  for u = 0 to Dag.n_strands t.dag - 1 do
    List.iter (fun v -> pr "e %d %d\n" u v) (Dag.succs t.dag u)
  done;
  List.iter
    (fun a ->
      pr "a %d %d %d %d %d\n" a.Engine.a_loc a.Engine.a_strand a.Engine.a_frame
        (if a.Engine.a_is_write then 1 else 0)
        (if a.Engine.a_view_aware then 1 else 0))
    t.accesses;
  List.iter
    (fun m -> pr "m %d %d %d\n" m.Engine.m_from m.Engine.m_into m.Engine.m_at)
    t.merges;
  List.iter (fun (r, s) -> pr "r %d %d\n" r s) t.reducer_reads;
  List.iter (fun (i, sp, co) -> pr "w %d %d %d\n" i sp co) t.spawns;
  List.iter
    (fun (fid, parent, spawned, kind) ->
      let k =
        match kind with
        | Tool.User_fn -> 0
        | Tool.Update_fn -> 1
        | Tool.Reduce_fn -> 2
        | Tool.Identity_fn -> 3
      in
      pr "f %d %d %d %d\n" fid parent (if spawned then 1 else 0) k)
    t.frames;
  List.iter (fun (l, lab) -> pr "l %d %s\n" l lab) t.loc_labels;
  close_out oc

let split_n line n =
  (* split [line] on spaces into at most [n] fields; the last keeps the
     remainder verbatim *)
  let rec go start k acc =
    if k = n - 1 then
      List.rev (String.sub line start (String.length line - start) :: acc)
    else
      match String.index_from_opt line start ' ' with
      | None -> List.rev (String.sub line start (String.length line - start) :: acc)
      | Some i -> go (i + 1) (k + 1) (String.sub line start (i - start) :: acc)
  in
  go 0 0 []

let load path =
  let ic = open_in path in
  let line1 = try input_line ic with End_of_file -> failwith "Trace: empty file" in
  if line1 <> header then failwith "Trace: unsupported format/version";
  let dag = Dag.create () in
  let accesses = ref [] in
  let merges = ref [] in
  let rreads = ref [] in
  let spawns = ref [] in
  let frames = ref [] in
  let labels = ref [] in
  (try
     while true do
       let line = input_line ic in
       if line <> "" then begin
         match split_n line 2 with
         | [ "s"; rest ] -> (
             match split_n rest 4 with
             | [ frame; kind; view; label ] ->
                 ignore
                   (Dag.add_strand dag ~frame:(int_of_string frame)
                      ~kind:(kind_of_int (int_of_string kind))
                      ~view:(int_of_string view) ~label)
             | _ -> failwith "Trace: bad strand line")
         | [ "e"; rest ] -> (
             match String.split_on_char ' ' rest with
             | [ u; v ] -> Dag.add_edge dag (int_of_string u) (int_of_string v)
             | _ -> failwith "Trace: bad edge line")
         | [ "a"; rest ] -> (
             match String.split_on_char ' ' rest with
             | [ loc; strand; frame; w; va ] ->
                 accesses :=
                   {
                     Engine.a_loc = int_of_string loc;
                     a_strand = int_of_string strand;
                     a_frame = int_of_string frame;
                     a_is_write = w = "1";
                     a_view_aware = va = "1";
                   }
                   :: !accesses
             | _ -> failwith "Trace: bad access line")
         | [ "m"; rest ] -> (
             match String.split_on_char ' ' rest with
             | [ f; i; at ] ->
                 merges :=
                   {
                     Engine.m_from = int_of_string f;
                     m_into = int_of_string i;
                     m_at = int_of_string at;
                   }
                   :: !merges
             | _ -> failwith "Trace: bad merge line")
         | [ "r"; rest ] -> (
             match String.split_on_char ' ' rest with
             | [ r; s ] -> rreads := (int_of_string r, int_of_string s) :: !rreads
             | _ -> failwith "Trace: bad reducer-read line")
         | [ "w"; rest ] -> (
             match String.split_on_char ' ' rest with
             | [ i; sp; co ] ->
                 spawns :=
                   (int_of_string i, int_of_string sp, int_of_string co) :: !spawns
             | _ -> failwith "Trace: bad spawn line")
         | [ "f"; rest ] -> (
             match String.split_on_char ' ' rest with
             | [ fid; parent; spawned; kind ] ->
                 let k =
                   match int_of_string kind with
                   | 0 -> Tool.User_fn
                   | 1 -> Tool.Update_fn
                   | 2 -> Tool.Reduce_fn
                   | 3 -> Tool.Identity_fn
                   | k -> failwith (Printf.sprintf "Trace: bad frame kind %d" k)
                 in
                 frames :=
                   (int_of_string fid, int_of_string parent, spawned = "1", k)
                   :: !frames
             | _ -> failwith "Trace: bad frame line")
         | [ "l"; rest ] -> (
             match split_n rest 2 with
             | [ l; lab ] -> labels := (int_of_string l, lab) :: !labels
             | _ -> failwith "Trace: bad label line")
         | _ -> failwith ("Trace: bad line: " ^ line)
       end
     done
   with End_of_file -> ());
  close_in ic;
  {
    dag;
    accesses = List.rev !accesses;
    merges = List.rev !merges;
    reducer_reads = List.rev !rreads;
    spawns = List.rev !spawns;
    frames = List.rev !frames;
    loc_labels = List.rev !labels;
  }

let dag_equal a b =
  Dag.n_strands a = Dag.n_strands b
  &&
  let ok = ref true in
  for i = 0 to Dag.n_strands a - 1 do
    if Dag.strand a i <> Dag.strand b i then ok := false;
    if List.sort compare (Dag.succs a i) <> List.sort compare (Dag.succs b i) then
      ok := false
  done;
  !ok

let equal a b =
  dag_equal a.dag b.dag && a.accesses = b.accesses && a.merges = b.merges
  && a.reducer_reads = b.reducer_reads && a.spawns = b.spawns
  && a.frames = b.frames && a.loc_labels = b.loc_labels

(* ---------- canonical SP parse tree reconstruction (paper Fig. 4) ---------- *)

(* A frame being reconstructed: its finished sync-block trees and the
   items of the block in progress, both newest first. *)
type open_frame = {
  fid : int;
  mutable blocks : Sp_tree.t list;
  mutable current : Sp_tree.item list;
}

let sp_tree t =
  let n = Dag.n_strands t.dag in
  for i = 0 to n - 1 do
    if (Dag.strand t.dag i).Dag.kind = Dag.Reduce then
      invalid_arg "Trace.sp_tree: performance dag with reduce strands (record under Steal_spec.none)"
  done;
  (* Recorded frame ids are creation order: frame 0 is the root and every
     other frame's parent was created before it. *)
  let frames = Array.of_list t.frames in
  let nf = Array.length frames in
  (match t.frames with
  | (0, -1, _, _) :: _ -> ()
  | _ -> invalid_arg "Trace.sp_tree: no root frame");
  Array.iteri
    (fun i (fid, parent, _, _) ->
      if fid <> i || (i > 0 && (parent < 0 || parent >= i)) then
        invalid_arg "Trace.sp_tree: frames not numbered in creation order")
    frames;
  let opened = Array.make nf false in
  let open_frame fid =
    opened.(fid) <- true;
    { fid; blocks = []; current = [] }
  in
  let close_block fr =
    if fr.current <> [] then begin
      fr.blocks <- Sp_tree.block_tree (List.rev fr.current) :: fr.blocks;
      fr.current <- []
    end
  in
  let finish fr =
    close_block fr;
    Sp_tree.function_tree (List.rev fr.blocks)
  in
  (* Strand ids are serial order, so each frame's subtree is a contiguous
     run of strands: walk them once with a stack of open frames. A frame
     closes when a strand outside its subtree arrives, and its tree joins
     its parent's block in progress there — at its serial position. A
     strand labelled "sync" begins a new block of its own frame. *)
  let stack = ref [ open_frame 0 ] in
  let close_top () =
    match !stack with
    | fr :: (parent :: _ as rest) ->
        let _, _, spawned, _ = frames.(fr.fid) in
        let tree = finish fr in
        parent.current <-
          (if spawned then Sp_tree.Spawned tree else Sp_tree.Called tree)
          :: parent.current;
        stack := rest
    | _ -> invalid_arg "Trace.sp_tree: strands out of serial order"
  in
  for s = 0 to n - 1 do
    let st = Dag.strand t.dag s in
    let f = st.Dag.frame in
    if f < 0 || f >= nf then invalid_arg "Trace.sp_tree: unknown frame id";
    let owner =
      if opened.(f) then f
      else
        let _, parent, _, _ = frames.(f) in
        parent
    in
    while (List.hd !stack).fid <> owner do
      close_top ()
    done;
    if not opened.(f) then stack := open_frame f :: !stack;
    let fr = List.hd !stack in
    if String.equal st.Dag.label "sync" && fr.current <> [] then close_block fr;
    fr.current <- Sp_tree.Strand s :: fr.current
  done;
  if not (Array.for_all Fun.id opened) then
    invalid_arg "Trace.sp_tree: frame without strands";
  while List.tl !stack <> [] do
    close_top ()
  done;
  finish (List.hd !stack)
