open Rader_runtime
module Dynarr = Rader_support.Dynarr
module Intvec = Rader_support.Intvec

type entry = { e_path : int list; e_ord : int }

type t = {
  workers : int;
  seed : int;
  density : float;
  entries : entry list;
}

let compare_entry a b =
  match compare a.e_path b.e_path with 0 -> compare a.e_ord b.e_ord | c -> c

let make ~workers ~seed ~density entries =
  { workers; seed; density; entries = List.sort_uniq compare_entry entries }

let n_steals t = List.length t.entries

(* ---------- text format ----------

   Line 1: "steal-trace/1 workers=W seed=S density=D steals=N"
   Then one line per entry: "path.with.dots ord" — a root-frame spawn has
   the empty path, written "-". *)

let path_to_string = function
  | [] -> "-"
  | p -> String.concat "." (List.map string_of_int p)

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "steal-trace/1 workers=%d seed=%d density=%g steals=%d\n"
       t.workers t.seed t.density (List.length t.entries));
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

(* ---------- trace -> serial steal spec ---------- *)

(* Per user frame of the no-steal run, its user children and its spawns'
   global indices, each in serial order: an entry's path descends the
   first from the root, its ordinal indexes the second. Frame ids count
   up from the root in creation order; view-aware frames are no step of
   a user path, and nor is anything below one. *)
let to_spec nosteal =
  let parent = nosteal.frame_parent and kind = nosteal.frame_kind in
  let n = Array.length parent in
  let user = Array.make n false in
  let kids = Array.make n [] and spawns = Array.make n [] in
  for fid = 0 to n - 1 do
    let p = parent.(fid) in
    if kind.(fid) = Tool.User_fn && (p < 0 || user.(p)) then begin
      user.(fid) <- true;
      if p >= 0 then kids.(p) <- fid :: kids.(p)
    end
  done;
  Array.iteri (fun si f -> spawns.(f) <- si :: spawns.(f)) nosteal.spawn_frame;
  let in_order = Array.map (fun l -> Array.of_list (List.rev l)) in
  let kids = in_order kids and spawns = in_order spawns in
  let nth a i = if i >= 0 && i < Array.length a then Some a.(i) else None in
  let rec descend frame = function
    | [] -> Some frame
    | ord :: rest -> Option.bind (nth kids.(frame) ord) (fun c -> descend c rest)
  in
  let resolve e =
    Option.bind (descend 0 e.e_path) (fun f -> nth spawns.(f) e.e_ord)
  in
  fun t ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | e :: rest -> (
          match resolve e with
          | Some si -> go (si :: acc) rest
          | None ->
              Error
                (Printf.sprintf
                   "trace entry (path %s, spawn %d) has no serial \
                    counterpart: trace is not from this program"
                   (path_to_string e.e_path) e.e_ord))
    in
    Result.map
      (fun indices ->
        Steal_spec.by_spawn_index ~policy:Steal_spec.Reduce_at_sync
          ~name:
            (Printf.sprintf "online-trace(seed=%d,density=%g,steals=%d)" t.seed
               t.density (List.length indices))
          indices)
      (go [] t.entries)
