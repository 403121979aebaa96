open Rader_runtime

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

(* ---------- trace -> serial steal spec ---------- *)

(* Per user frame of the no-steal run, its user children and its spawns'
   global indices, each in serial order: an entry's path descends the
   first from the root, its ordinal indexes the second. Frame ids count
   up from the root in creation order; view-aware frames are no step of
   a user path, and nor is anything below one. *)
let to_spec (nosteal : Trace.t) =
  let n = List.length nosteal.Trace.frames in
  let user = Array.make n false in
  let kids = Array.make n [] and spawns = Array.make n [] in
  List.iter
    (fun (fid, parent, _spawned, kind) ->
      if kind = Tool.User_fn && (parent < 0 || user.(parent)) then begin
        user.(fid) <- true;
        if parent >= 0 then kids.(parent) <- fid :: kids.(parent)
      end)
    nosteal.Trace.frames;
  List.iter
    (fun { Trace.sp_index; sp_frame; _ } ->
      spawns.(sp_frame) <- sp_index :: spawns.(sp_frame))
    nosteal.Trace.spawns;
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
