open Rader_runtime
module Dynarr = Rader_support.Dynarr
module Intvec = Rader_support.Intvec

type entry = { e_path : int list; e_ord : int }

type t = { seed : int; density : float; entries : entry list }

let compare_entry a b =
  match compare a.e_path b.e_path with 0 -> compare a.e_ord b.e_ord | c -> c

let n_steals t = List.length t.entries

(* ---------- text format ----------

   Line 1: "steal-trace/1 seed=S density=D steals=N"
   Then one line per entry: "path.with.dots ord" — a root-frame spawn has
   the empty path, written "-". *)

let path_to_string = function
  | [] -> "-"
  | p -> String.concat "." (List.map string_of_int p)

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "steal-trace/1 seed=%d density=%g steals=%d\n" t.seed
       t.density (List.length t.entries));
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%s %d\n" (path_to_string e.e_path) e.e_ord))
    t.entries;
  Buffer.contents b

(* ---------- the no-steal run's frames ---------- *)

type frames = {
  frame_parent : int array;
  frame_kind : Tool.frame_kind array;
  spawn_frame : int array;
}

(* The engine numbers frames densely in entry order, so a frame's id is
   its entry's index; a spawn's index counts spawned children's returns. *)
let observe (tool : Tool.t) =
  let parents = Intvec.create () and kinds = Dynarr.create () in
  let spawners = Intvec.create () in
  let on_frame_enter ~frame ~parent ~spawned ~kind =
    Intvec.push parents parent;
    Dynarr.push kinds kind;
    tool.on_frame_enter ~frame ~parent ~spawned ~kind
  and on_frame_return ~frame ~parent ~spawned ~kind =
    if spawned then Intvec.push spawners parent;
    tool.on_frame_return ~frame ~parent ~spawned ~kind
  in
  ( { tool with on_frame_enter; on_frame_return },
    fun () ->
      {
        frame_parent = Intvec.to_array parents;
        frame_kind = Dynarr.to_array kinds;
        spawn_frame = Intvec.to_array spawners;
      } )

(* ---------- structural steals ---------- *)

(* [Hashtbl.hash] is deterministic across runs and domains, which is all
   the decision needs. *)
let child_phash parent_phash ord = Hashtbl.hash (parent_phash, ord, 0x9e3779b9)

let steal_decision ~seed ~density phash sord =
  let h = Hashtbl.hash (seed, phash, sord, 0x85ebca6b) land 0xffffff in
  float_of_int h < density *. 16777216.

(* One pass over the frames in entry order gives each user frame its
   path and hash from its parent's (spawned and called children alike
   take the next ordinal), one pass over the spawns in global index
   order gives each spawn its per-frame ordinal and decision. *)
let structural ~seed ~density nosteal =
  let parent = nosteal.frame_parent and kind = nosteal.frame_kind in
  let n = Array.length parent in
  let user = Array.make n false and nuser = Array.make n 0 in
  let rpath = Array.make n [] and phash = Array.make n 0 in
  for fid = 0 to n - 1 do
    let p = parent.(fid) in
    if kind.(fid) = Tool.User_fn && (p < 0 || user.(p)) then begin
      user.(fid) <- true;
      if p >= 0 then begin
        let ord = nuser.(p) in
        nuser.(p) <- ord + 1;
        rpath.(fid) <- ord :: rpath.(p);
        phash.(fid) <- child_phash phash.(p) ord
      end
    end
  done;
  let nspawns = Array.make n 0 and stolen = ref [] in
  Array.iteri
    (fun si f ->
      let sord = nspawns.(f) in
      nspawns.(f) <- sord + 1;
      if user.(f) && steal_decision ~seed ~density phash.(f) sord then
        stolen := ({ e_path = List.rev rpath.(f); e_ord = sord }, si) :: !stolen)
    nosteal.spawn_frame;
  let stolen = List.sort (fun (a, _) (b, _) -> compare_entry a b) !stolen in
  ( Steal_spec.by_spawn_index ~policy:Steal_spec.Reduce_at_sync
      ~name:
        (Printf.sprintf "online-trace(seed=%d,density=%g,steals=%d)" seed density
           (List.length stolen))
      (List.map snd stolen),
    { seed; density; entries = List.map fst stolen } )
