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

let to_spec t program =
  let eng = Engine.create ~record:true () in
  match Engine.run_result eng (fun ctx -> ignore (program ctx)) with
  | Error f ->
      Error
        (Printf.sprintf "trace profiling replay failed: %s" (Fault.to_string f))
  | Ok () ->
      let tr = Trace.of_engine eng in
      (* User path of every user frame, from the creation-ordered frames (a
         frame's parent always precedes it). *)
      let paths : (int, int list) Hashtbl.t = Hashtbl.create 64 in
      let next_ord : (int, int) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (fid, parent, _spawned, kind) ->
          if kind = Tool.User_fn then
            if parent = -1 then Hashtbl.replace paths fid []
            else
              match Hashtbl.find_opt paths parent with
              | None -> () (* parent is auxiliary: not a user path *)
              | Some pp ->
                  let ord =
                    Option.value ~default:0 (Hashtbl.find_opt next_ord parent)
                  in
                  Hashtbl.replace next_ord parent (ord + 1);
                  Hashtbl.replace paths fid (pp @ [ ord ]))
        tr.Trace.frames;
      (* Map (spawning frame path, per-frame spawn ordinal) to the global
         spawn index: a frame's spawns come in spawn-index order. *)
      let spawn_ord : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let index : (int list * int, int) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun { Trace.sp_index; sp_frame = frame; _ } ->
          let ord = Option.value ~default:0 (Hashtbl.find_opt spawn_ord frame) in
          Hashtbl.replace spawn_ord frame (ord + 1);
          match Hashtbl.find_opt paths frame with
          | None -> ()
          | Some p -> Hashtbl.replace index (p, ord) sp_index)
        tr.Trace.spawns;
      let rec resolve acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest -> (
            match Hashtbl.find_opt index (e.e_path, e.e_ord) with
            | Some si -> resolve (si :: acc) rest
            | None ->
                Error
                  (Printf.sprintf
                     "trace entry (path %s, spawn %d) has no serial \
                      counterpart: trace is not from this program"
                     (path_to_string e.e_path) e.e_ord))
      in
      Result.map
        (fun indices ->
          Steal_spec.with_name
            (Steal_spec.by_spawn_index ~policy:Steal_spec.Reduce_at_sync
               indices)
            (Printf.sprintf "online-trace(seed=%d,density=%g,steals=%d)"
               t.seed t.density (List.length indices)))
        (resolve [] t.entries)
