module Engine = Rader_runtime.Engine
module Steal_spec = Rader_runtime.Steal_spec
module Trace = Rader_core.Trace
module Dag = Rader_dag.Dag
module Deque = Rader_support.Deque
module Rng = Rader_support.Rng

type result = {
  makespan : int;
  work : int;
  n_steals : int;
  stolen_continuations : int list;
}

let simulate ~workers ~seed eng =
  if workers < 1 then invalid_arg "Wsim.simulate: workers < 1";
  if Engine.tape eng = None then
    invalid_arg "Wsim.simulate: engine run was not recorded";
  let tr = Trace.of_engine eng in
  let dag = Trace.dag tr in
  let n = Dag.n_strands dag in
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    indeg.(v) <- List.length (Dag.preds dag v)
  done;
  let executed_by = Array.make n (-1) in
  let rng = Rng.create seed in
  let deques = Array.init workers (fun _ -> Deque.create ()) in
  let running = Array.make workers (-1) in
  (* strand a worker just finished, -1 = idle *)
  if n > 0 then Deque.push_bottom deques.(0) 0;
  let time = ref 0 in
  let done_count = ref 0 in
  let steals = ref 0 in
  while !done_count < n do
    (* Acquire phase: each idle worker takes from its own deque bottom or
       steals the top of a random victim. *)
    for w = 0 to workers - 1 do
      if running.(w) < 0 then
        if not (Deque.is_empty deques.(w)) then
          running.(w) <- Deque.pop_bottom deques.(w)
        else begin
          (* One steal attempt per time step, random victim. *)
          let v = Rng.int rng workers in
          if v <> w && not (Deque.is_empty deques.(v)) then begin
            running.(w) <- Deque.steal_top deques.(v);
            incr steals
          end
        end
    done;
    (* Execute phase: every running strand completes (unit cost). *)
    incr time;
    for w = 0 to workers - 1 do
      let s = running.(w) in
      if s >= 0 then begin
        executed_by.(s) <- w;
        incr done_count;
        running.(w) <- -1;
        (* Enable successors; push serially-later ones first so the owner
           continues with the serially-first (depth-first) successor. *)
        let enabled =
          List.filter
            (fun v ->
              indeg.(v) <- indeg.(v) - 1;
              indeg.(v) = 0)
            (Dag.succs dag s)
        in
        List.iter
          (fun v -> Deque.push_bottom deques.(w) v)
          (List.sort (fun a b -> compare b a) enabled)
      end
    done
  done;
  let stolen =
    List.filter
      (fun si ->
        executed_by.(tr.Trace.spawn_cont.(si)) <> executed_by.(tr.Trace.spawn_strand.(si)))
      (List.init (Array.length tr.Trace.spawn_cont) Fun.id)
  in
  { makespan = !time; work = n; n_steals = !steals; stolen_continuations = stolen }

let steal_spec ?(policy = Steal_spec.Reduce_eagerly) res =
  Steal_spec.with_name
    (Steal_spec.by_spawn_index ~policy res.stolen_continuations)
    (Printf.sprintf "wsim(%d stolen)" (List.length res.stolen_continuations))
