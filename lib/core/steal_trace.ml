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

let of_string s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char '\n' (String.trim s) with
  | [] -> fail "empty trace"
  | header :: lines -> (
      let parse_kv kvs key conv =
        match List.assoc_opt key kvs with
        | None -> Error (Printf.sprintf "missing %s= in trace header" key)
        | Some v -> (
            match conv v with
            | Some x -> Ok x
            | None -> Error (Printf.sprintf "bad %s=%s in trace header" key v))
      in
      match String.split_on_char ' ' (String.trim header) with
      | magic :: kvs when magic = "steal-trace/1" -> (
          let kvs =
            List.filter_map
              (fun tok ->
                match String.index_opt tok '=' with
                | None -> None
                | Some i ->
                    Some
                      ( String.sub tok 0 i,
                        String.sub tok (i + 1) (String.length tok - i - 1) ))
              kvs
          in
          let ( let* ) = Result.bind in
          let* workers = parse_kv kvs "workers" int_of_string_opt in
          let* seed = parse_kv kvs "seed" int_of_string_opt in
          let* density = parse_kv kvs "density" float_of_string_opt in
          let parse_line ln =
            match String.split_on_char ' ' (String.trim ln) with
            | [ p; o ] -> (
                let path =
                  if p = "-" then Some []
                  else
                    let parts = String.split_on_char '.' p in
                    let nums = List.filter_map int_of_string_opt parts in
                    if List.length nums = List.length parts then Some nums
                    else None
                in
                match (path, int_of_string_opt o) with
                | Some path, Some ord -> Ok { e_path = path; e_ord = ord }
                | _ -> Error (Printf.sprintf "bad trace line %S" ln))
            | _ -> Error (Printf.sprintf "bad trace line %S" ln)
          in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | ln :: rest when String.trim ln = "" -> go acc rest
            | ln :: rest ->
                let* e = parse_line ln in
                go (e :: acc) rest
          in
          let* entries = go [] lines in
          Ok (make ~workers ~seed ~density entries))
      | _ -> fail "not a steal-trace/1 file")

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
