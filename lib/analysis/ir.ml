open Rader_runtime
module Trace = Rader_core.Trace

type t = {
  trace : Trace.t;
  ix : Rader_dag.Sp_tree.indexed;
  result : int;
  n_reducers : int;
  by_reducer : (int array array * int array array) Lazy.t;
}

(* [group ~n keys values] is, per key in [0, n), the [values] whose [keys]
   slot holds it, in serial order; negative and larger keys are dropped. *)
let group ~n keys values =
  let count = Array.make n 0 in
  Array.iter (fun k -> if k >= 0 && k < n then count.(k) <- count.(k) + 1) keys;
  let out = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 n 0;
  Array.iteri
    (fun i k ->
      if k >= 0 && k < n then begin
        out.(k).(count.(k)) <- values.(i);
        count.(k) <- count.(k) + 1
      end)
    keys;
  out

let of_program ?max_events ?deadline (program : Engine.ctx -> int) =
  let eng = Engine.create ~record:true ?max_events ?deadline () in
  match Engine.run_result eng program with
  | Error f -> Error f
  | Ok result ->
      let trace = Trace.of_engine eng in
      (* every reducer's creation emits a reducer-read, so the read log
         covers all ids *)
      let n_reducers = 1 + Array.fold_left Int.max (-1) trace.Trace.rread_reducer in
      let by_reducer =
        lazy
          (let n = Int.max n_reducers (1 + Array.fold_left Int.max (-1) trace.Trace.aux_reducer) in
           let updates =
             Array.mapi
               (fun i r -> if trace.Trace.aux_kind.(i) = Tool.Update_fn then r else -1)
               trace.Trace.aux_reducer
           in
           ( group ~n trace.Trace.rread_reducer trace.Trace.rread_strand,
             group ~n updates trace.Trace.aux_strand ))
      in
      Ok { trace; ix = Trace.index trace; result; n_reducers; by_reducer }

let slice f ir rid =
  let per = f (Lazy.force ir.by_reducer) in
  if rid >= 0 && rid < Array.length per then Array.to_list per.(rid) else []

let reads = slice fst
let updates = slice snd

let reducer_ids ir =
  List.filter (fun rid -> reads ir rid <> []) (List.init ir.n_reducers Fun.id)

let loc_label ir loc = Trace.loc_label ir.trace loc
