(* Tests for the dag model, reachability, peer sets and SP parse trees —
   anchored on the paper's Figure 2 running example. *)

open Rader_dag
module Bitset = Rader_support.Bitset

let checkb = Alcotest.(check bool)

(* The 16-strand computation of paper Fig. 2 (ids here are 0-based, so
   paper strand k is id k-1):

     a: 1, 4, 10, 14, 15(sync), 16      b: 2, 3       c: 5, 8, 9(sync)
     d: 6, 7                            e: 11         f: 12, 13

   a spawns b at 1 and c at 4, calls e at 10; f is spawned on return from
   e (the intervening strand of a is empty and not materialized); c spawns
   d at 5. Everything joins at a's sync strand 15; 16 follows the sync. *)
let fig2 () =
  let dag = Dag.create () in
  let frames = [| 0; 1; 1; 0; 2; 3; 3; 2; 2; 0; 4; 5; 5; 0; 0; 0 |] in
  Array.iteri
    (fun i f ->
      ignore
        (Dag.add_strand dag ~frame:f ~kind:Dag.User ~view:0
           ~label:(string_of_int (i + 1))))
    frames;
  List.iter
    (fun (u, v) -> Dag.add_edge dag (u - 1) (v - 1))
    [
      (1, 2); (2, 3); (1, 4); (4, 5); (5, 6); (6, 7); (5, 8); (7, 9); (8, 9);
      (4, 10); (10, 11); (11, 12); (12, 13); (11, 14); (3, 15); (9, 15);
      (13, 15); (14, 15); (15, 16);
    ];
  dag

(* Paper strand number -> our id. *)
let s k = k - 1

let test_dag_construction () =
  let dag = fig2 () in
  Alcotest.(check int) "16 strands" 16 (Dag.n_strands dag);
  Alcotest.(check (list int)) "preds of sync" [ s 3; s 9; s 13; s 14 ]
    (List.sort compare (Dag.preds dag (s 15)));
  Alcotest.(check (list int)) "succs of 4" [ s 5; s 10 ]
    (List.sort compare (Dag.succs dag (s 4)))

let test_dag_edge_order_enforced () =
  let dag = Dag.create () in
  let a = Dag.add_strand dag ~frame:0 ~kind:Dag.User ~view:0 ~label:"a" in
  let b = Dag.add_strand dag ~frame:0 ~kind:Dag.User ~view:0 ~label:"b" in
  Alcotest.check_raises "backward edge"
    (Invalid_argument "Dag.add_edge: edges must follow serial order (u < v)")
    (fun () -> Dag.add_edge dag b a);
  Alcotest.check_raises "self edge"
    (Invalid_argument "Dag.add_edge: edges must follow serial order (u < v)")
    (fun () -> Dag.add_edge dag a a)

let test_reach_fig2 () =
  let dag = fig2 () in
  let r = Dag.closure dag in
  (* Paper §3: "strands 4 and 9 are logically in series, because strand 4
     precedes strand 9, while strands 9 and 10 are logically in parallel". *)
  checkb "4 < 9" true (Dag.precedes r (s 4) (s 9));
  checkb "9 || 10" true (Dag.parallel r (s 9) (s 10));
  checkb "strict" false (Dag.precedes r (s 4) (s 4));
  checkb "2 || 5" true (Dag.parallel r (s 2) (s 5));
  checkb "6 < 9" true (Dag.precedes r (s 6) (s 9));
  checkb "6 || 8" true (Dag.parallel r (s 6) (s 8));
  checkb "everything < 16" true
    (List.for_all (fun k -> Dag.precedes r (s k) (s 16)) [ 1; 2; 3; 4; 5; 9; 14; 15 ]);
  checkb "1 < everything" true
    (List.for_all (fun k -> Dag.precedes r (s 1) (s k)) [ 2; 5; 11; 13; 16 ])

(* The closure is reachability: [u ≺ v] iff a walk along successor
   edges from [u] reaches [v]. *)
let test_closure_is_reachability () =
  let dag = fig2 () in
  let r = Dag.closure dag in
  let n = Dag.n_strands dag in
  for u = 0 to n - 1 do
    let seen = Array.make n false in
    let rec walk v =
      List.iter
        (fun w ->
          if not seen.(w) then begin
            seen.(w) <- true;
            walk w
          end)
        (Dag.succs dag v)
    in
    walk u;
    for v = 0 to n - 1 do
      checkb "precedes = reachable" seen.(v) (Dag.precedes r u v)
    done
  done

let test_peers_fig2 () =
  let dag = fig2 () in
  let p = Peers.compute dag in
  (* Paper §3: "the view of a reducer at strand 9 is guaranteed to reflect
     the updates since strand 5, because strands 5 and 9 have the same
     peers". *)
  checkb "peers(5) = peers(9)" true (Peers.equal_peers p (s 5) (s 9));
  (* "strands 10 and 14 do not share the same peers — strands 12 and 13
     are in the peer set of strand 14, but not that of strand 10". *)
  checkb "peers(10) <> peers(14)" false (Peers.equal_peers p (s 10) (s 14));
  checkb "12 in peers(14)" true (Bitset.mem (Peers.peers p (s 14)) (s 12));
  checkb "13 in peers(14)" true (Bitset.mem (Peers.peers p (s 14)) (s 13));
  checkb "12 not in peers(10)" false (Bitset.mem (Peers.peers p (s 10)) (s 12));
  checkb "13 not in peers(10)" false (Bitset.mem (Peers.peers p (s 10)) (s 13));
  (* §4: "strand 11 has a distinct peer set from strand 1, but the same
     peer set as strand 10, the caller of e". *)
  checkb "peers(11) = peers(10)" true (Peers.equal_peers p (s 11) (s 10));
  checkb "peers(11) <> peers(1)" false (Peers.equal_peers p (s 11) (s 1));
  (* §3 example: strands 1 and 9 do not share the same peer set. *)
  checkb "peers(1) <> peers(9)" false (Peers.equal_peers p (s 1) (s 9));
  Alcotest.(check int) "peers(10) size" 7 (Peers.n_peers p (s 10))

(* The canonical SP parse tree of Fig. 4, built with the Sp_tree
   constructors, must agree with the dag-based oracles. *)
let fig4_tree () =
  let open Sp_tree in
  let b = block_tree [ Strand (s 2); Strand (s 3) ] in
  let d = block_tree [ Strand (s 6); Strand (s 7) ] in
  let c =
    function_tree
      [ block_tree [ Strand (s 5); Spawned d; Strand (s 8) ]; Leaf (s 9) ]
  in
  let e = Leaf (s 11) in
  let f = block_tree [ Strand (s 12); Strand (s 13) ] in
  function_tree
    [
      block_tree
        [
          Strand (s 1);
          Spawned b;
          Strand (s 4);
          Spawned c;
          Strand (s 10);
          Called e;
          Spawned f;
          Strand (s 14);
        ];
      block_tree [ Strand (s 15); Strand (s 16) ];
    ]

let test_sp_tree_fig4_structure () =
  let t = fig4_tree () in
  Alcotest.(check (list int)) "leaves in serial order"
    (List.init 16 Fun.id)
    (Sp_tree.leaves t)

let test_sp_tree_fig4_queries () =
  let ix = Sp_tree.index (fig4_tree ()) in
  checkb "9 || 10 via LCA" true (Sp_tree.parallel ix (s 9) (s 10));
  checkb "4 not || 9" false (Sp_tree.parallel ix (s 4) (s 9));
  checkb "all-S 5..9" true (Sp_tree.all_s_path ix (s 5) (s 9));
  checkb "all-S 10..11" true (Sp_tree.all_s_path ix (s 10) (s 11));
  checkb "not all-S 10..14" false (Sp_tree.all_s_path ix (s 10) (s 14));
  checkb "not all-S 1..9" false (Sp_tree.all_s_path ix (s 1) (s 9));
  checkb "reflexive" true (Sp_tree.all_s_path ix (s 7) (s 7))

let test_sp_tree_fig4_matches_dag () =
  (* Lemma 2 and Feng–Leiserson Lemma 4, checked exhaustively on Fig. 2:
     tree queries agree with the explicit dag's peers/parallelism. *)
  let ix = Sp_tree.index (fig4_tree ()) in
  let dag = fig2 () in
  let reach = Dag.closure dag in
  let peers = Peers.compute dag in
  for u = 0 to 15 do
    for v = 0 to 15 do
      if u <> v then begin
        checkb
          (Printf.sprintf "parallel %d,%d" (u + 1) (v + 1))
          (Dag.parallel reach u v) (Sp_tree.parallel ix u v);
        checkb
          (Printf.sprintf "peer-equal %d,%d" (u + 1) (v + 1))
          (Peers.equal_peers peers u v)
          (Sp_tree.all_s_path ix u v)
      end
    done
  done

let test_sp_tree_to_dag_roundtrip () =
  let tree = fig4_tree () in
  let dag, mapping = Sp_tree.to_dag tree in
  Alcotest.(check int) "strand count" 16 (Dag.n_strands dag);
  let reach = Dag.closure dag in
  let ix = Sp_tree.index tree in
  for u = 0 to 15 do
    for v = 0 to 15 do
      if u <> v then
        checkb "roundtrip parallelism"
          (Sp_tree.parallel ix u v)
          (Dag.parallel reach (mapping u) (mapping v))
    done
  done

let test_sp_tree_errors () =
  Alcotest.check_raises "empty block" (Invalid_argument "Sp_tree.block_tree: empty sync block")
    (fun () -> ignore (Sp_tree.block_tree []));
  Alcotest.check_raises "empty function"
    (Invalid_argument "Sp_tree.function_tree: no sync blocks") (fun () ->
      ignore (Sp_tree.function_tree []));
  Alcotest.check_raises "duplicate leaf"
    (Invalid_argument "Sp_tree.index: duplicate leaf strand id") (fun () ->
      ignore (Sp_tree.index (Sp_tree.S (Leaf 1, Leaf 1))))

let test_dot_output () =
  let dag = fig2 () in
  let dot = Dag.to_dot dag in
  checkb "nonempty" true (String.length dot > 100);
  checkb "has digraph" true (String.sub dot 0 7 = "digraph")

(* Random SP trees: tree-based queries must agree with the dag oracle. *)
type shape = SLeaf | SNode of bool * shape * shape

let gen_sp_tree =
  let open QCheck2.Gen in
  let rec shape depth =
    if depth = 0 then return SLeaf
    else
      frequency
        [
          ( 2,
            let* l = shape (depth - 1) in
            let* r = shape (depth - 1) in
            let* p = bool in
            return (SNode (p, l, r)) );
          (1, return SLeaf);
        ]
  in
  let* d = int_range 1 5 in
  let* sh = shape d in
  (* number leaves left-to-right after generation so ids are unique *)
  let counter = ref 0 in
  let rec build = function
    | SLeaf ->
        let id = !counter in
        incr counter;
        Sp_tree.Leaf id
    | SNode (p, l, r) ->
        let lt = build l in
        let rt = build r in
        if p then Sp_tree.P (lt, rt) else Sp_tree.S (lt, rt)
  in
  return (build sh)

let prop_sp_tree_vs_dag =
  QCheck2.Test.make ~name:"SP tree queries agree with dag oracle (Lemmas 2 & 4)"
    ~count:300 gen_sp_tree (fun tree ->
      let ix = Sp_tree.index tree in
      let dag, mapping = Sp_tree.to_dag tree in
      let reach = Dag.closure dag in
      let peers = Peers.compute dag in
      let ls = Sp_tree.leaves tree in
      List.for_all
        (fun u ->
          List.for_all
            (fun v ->
              u = v
              || Sp_tree.parallel ix u v = Dag.parallel reach (mapping u) (mapping v)
                 && Sp_tree.all_s_path ix u v
                    = Peers.equal_peers peers (mapping u) (mapping v))
            ls)
        ls)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dag"
    [
      ( "dag",
        [
          Alcotest.test_case "fig2 construction" `Quick test_dag_construction;
          Alcotest.test_case "edge order enforced" `Quick test_dag_edge_order_enforced;
          Alcotest.test_case "dot output" `Quick test_dot_output;
        ] );
      ( "reach",
        [
          Alcotest.test_case "fig2 relations" `Quick test_reach_fig2;
          Alcotest.test_case "closure = reachability" `Quick test_closure_is_reachability;
        ] );
      ("peers", [ Alcotest.test_case "fig2 peer facts" `Quick test_peers_fig2 ]);
      ( "sp_tree",
        [
          Alcotest.test_case "fig4 structure" `Quick test_sp_tree_fig4_structure;
          Alcotest.test_case "fig4 queries" `Quick test_sp_tree_fig4_queries;
          Alcotest.test_case "fig4 vs dag exhaustive" `Quick test_sp_tree_fig4_matches_dag;
          Alcotest.test_case "to_dag roundtrip" `Quick test_sp_tree_to_dag_roundtrip;
          Alcotest.test_case "errors" `Quick test_sp_tree_errors;
        ] );
      qsuite "properties" [ prop_sp_tree_vs_dag ];
    ]
