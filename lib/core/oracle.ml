module Dag = Rader_dag.Dag
module Peers = Rader_dag.Peers

(* All oracles are defined over traces; the Engine entry points extract
   the trace first. *)

let view_read_pairs_t (tr : Trace.t) =
  let peers = Peers.compute (Trace.dag tr) in
  let by_reducer = Hashtbl.create 8 in
  Array.iteri
    (fun i rid ->
      let prev = try Hashtbl.find by_reducer rid with Not_found -> [] in
      Hashtbl.replace by_reducer rid (tr.Trace.rread_strand.(i) :: prev))
    tr.Trace.rread_reducer;
  let pairs = ref [] in
  Hashtbl.iter
    (fun rid strands ->
      let strands = List.rev strands in
      let rec go = function
        | [] -> ()
        | s1 :: rest ->
            List.iter
              (fun s2 ->
                if not (Peers.equal_peers peers s1 s2) then
                  pairs := (rid, s1, s2) :: !pairs)
              rest;
            go rest
      in
      go strands)
    by_reducer;
  List.sort compare !pairs

let view_read_races_t tr =
  List.sort_uniq compare (List.map (fun (rid, _, _) -> rid) (view_read_pairs_t tr))

(* Canonical view id of region [r] as of serial time [t]: follow the chain
   of merges that had already happened. Each region is merged away at most
   once, so the chain is a forest with timestamped parent edges. *)
let canonicalizer (tr : Trace.t) =
  let merged_into = Hashtbl.create 32 in
  Array.iteri
    (fun i from ->
      Hashtbl.replace merged_into from (tr.Trace.merge_into.(i), tr.Trace.merge_at.(i)))
    tr.Trace.merge_from;
  let rec canon r t =
    match Hashtbl.find_opt merged_into r with
    | Some (into, at) when at <= t -> canon into t
    | _ -> r
  in
  canon

let determinacy_pairs_t (tr : Trace.t) =
  let dag = Trace.dag tr in
  let reach = Dag.closure dag in
  let canon = canonicalizer tr in
  let { Trace.g_locs; g_start; g_order } = Trace.by_loc tr in
  let strand = tr.Trace.acc_strand and write = tr.Trace.acc_write in
  let pairs = ref [] in
  Array.iteri
    (fun k loc ->
      for i = g_start.(k) to g_start.(k + 1) - 1 do
        for j = i + 1 to g_start.(k + 1) - 1 do
          let e1 = g_order.(i) and e2 = g_order.(j) in
          let s1 = strand.(e1) and s2 = strand.(e2) in
          if (write.(e1) || write.(e2)) && Dag.parallel reach s1 s2 then begin
            let racy =
              (not tr.Trace.acc_view_aware.(e2))
              || canon (Dag.strand dag s1).Dag.view s2
                 <> canon (Dag.strand dag s2).Dag.view s2
            in
            if racy then pairs := (loc, s1, s2) :: !pairs
          end
        done
      done)
    g_locs;
  List.sort_uniq compare !pairs

let determinacy_races_t tr =
  List.sort_uniq compare (List.map (fun (l, _, _) -> l) (determinacy_pairs_t tr))

(* ---------- Engine entry points ---------- *)

let view_read_pairs eng = view_read_pairs_t (Trace.of_engine eng)
let view_read_races eng = view_read_races_t (Trace.of_engine eng)
let determinacy_pairs eng = determinacy_pairs_t (Trace.of_engine eng)
let determinacy_races eng = determinacy_races_t (Trace.of_engine eng)
