open Rader_runtime

type t = {
  trace : Rader_core.Trace.t;
  tree : Rader_dag.Sp_tree.t;
  ix : Rader_dag.Sp_tree.indexed;
  result : int;
  reads_by_reducer : (int, int list) Hashtbl.t;
  updates_by_reducer : (int, int list) Hashtbl.t;
  n_reducers : int;
}

(* Group an association list into per-key lists, preserving the serial
   order of the values within each key. *)
let group pairs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, v) ->
      let prev = try Hashtbl.find tbl k with Not_found -> [] in
      Hashtbl.replace tbl k (v :: prev))
    pairs;
  let out = Hashtbl.create (Hashtbl.length tbl) in
  Hashtbl.iter (fun k vs -> Hashtbl.replace out k (List.rev vs)) tbl;
  out

let of_program ?max_events ?deadline (program : Engine.ctx -> int) =
  let eng = Engine.create ~record:true ?max_events ?deadline () in
  match Engine.run_result eng program with
  | Error f -> Error f
  | Ok result ->
      let trace = Rader_core.Trace.of_engine eng in
      let tree = Rader_core.Trace.sp_tree trace in
      let ix = Rader_dag.Sp_tree.index tree in
      let reads_by_reducer = group trace.Rader_core.Trace.reducer_reads in
      let updates_by_reducer =
        group
          (List.filter_map
             (fun (kind, reducer, strand) ->
               if kind = Tool.Update_fn && reducer >= 0 then
                 Some (reducer, strand)
               else None)
             trace.Rader_core.Trace.aux_frames)
      in
      (* every reducer's creation emits a reducer-read, so the read log
         covers all ids *)
      let n_reducers =
        List.fold_left
          (fun m (rid, _) -> max m (rid + 1))
          0
          trace.Rader_core.Trace.reducer_reads
      in
      Ok
        {
          trace;
          tree;
          ix;
          result;
          reads_by_reducer;
          updates_by_reducer;
          n_reducers;
        }

let reducer_ids ir =
  List.sort compare
    (Hashtbl.fold (fun k _ acc -> k :: acc) ir.reads_by_reducer [])

let reads ir rid =
  try Hashtbl.find ir.reads_by_reducer rid with Not_found -> []

let updates ir rid =
  try Hashtbl.find ir.updates_by_reducer rid with Not_found -> []

let loc_label ir loc = Rader_core.Trace.loc_label ir.trace loc
let accesses ir = ir.trace.Rader_core.Trace.accesses
