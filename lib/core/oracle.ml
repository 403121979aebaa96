module Dag = Rader_dag.Dag
module Peers = Rader_dag.Peers

(* All oracles are defined over traces; the Engine entry points extract
   the trace first. *)

let view_read_pairs_t (tr : Trace.t) =
  let peers = Peers.compute (Trace.dag tr) in
  let by_reducer = Hashtbl.create 8 in
  List.iter
    (fun (rid, strand) ->
      let prev = try Hashtbl.find by_reducer rid with Not_found -> [] in
      Hashtbl.replace by_reducer rid (strand :: prev))
    tr.Trace.reducer_reads;
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
  List.iter
    (fun m -> Hashtbl.replace merged_into m.Trace.m_from (m.Trace.m_into, m.Trace.m_at))
    tr.Trace.merges;
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
  let by_loc : (int, Trace.access list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let prev = try Hashtbl.find by_loc a.Trace.a_loc with Not_found -> [] in
      Hashtbl.replace by_loc a.Trace.a_loc (a :: prev))
    tr.Trace.accesses;
  let pairs = ref [] in
  Hashtbl.iter
    (fun loc accesses ->
      let accesses = Array.of_list (List.rev accesses) (* serial order *) in
      let n = Array.length accesses in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let e1 = accesses.(i) and e2 = accesses.(j) in
          if
            (e1.Trace.a_is_write || e2.Trace.a_is_write)
            && Dag.parallel reach e1.Trace.a_strand e2.Trace.a_strand
          then begin
            let racy =
              if not e2.Trace.a_view_aware then true
              else begin
                let t = e2.Trace.a_strand in
                let v1 = (Dag.strand dag e1.Trace.a_strand).Dag.view in
                let v2 = (Dag.strand dag e2.Trace.a_strand).Dag.view in
                canon v1 t <> canon v2 t
              end
            in
            if racy then pairs := (loc, e1.Trace.a_strand, e2.Trace.a_strand) :: !pairs
          end
        done
      done)
    by_loc;
  List.sort_uniq compare !pairs

let determinacy_races_t tr =
  List.sort_uniq compare (List.map (fun (l, _, _) -> l) (determinacy_pairs_t tr))

(* ---------- Engine entry points ---------- *)

let view_read_pairs eng = view_read_pairs_t (Trace.of_engine eng)
let view_read_races eng = view_read_races_t (Trace.of_engine eng)
let determinacy_pairs eng = determinacy_pairs_t (Trace.of_engine eng)
let determinacy_races eng = determinacy_races_t (Trace.of_engine eng)
