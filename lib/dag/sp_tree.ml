type t = Leaf of int | S of t * t | P of t * t

type item = Strand of int | Spawned of t | Called of t

let tree_of_item = function
  | Strand id -> Leaf id
  | Spawned t -> t
  | Called t -> t

let rec block_tree = function
  | [] -> invalid_arg "Sp_tree.block_tree: empty sync block"
  | [ item ] -> tree_of_item item
  | item :: rest ->
      let left = tree_of_item item in
      let right = block_tree rest in
      (* A node is a P node exactly when its left child is the parse tree of
         a spawned subcomputation (canonical form, paper §4). *)
      (match item with
      | Spawned _ -> P (left, right)
      | Strand _ | Called _ -> S (left, right))

let rec function_tree = function
  | [] -> invalid_arg "Sp_tree.function_tree: no sync blocks"
  | [ b ] -> b
  | b :: rest -> S (b, function_tree rest)

let leaves t =
  let rec go t acc =
    match t with
    | Leaf id -> id :: acc
    | S (a, b) | P (a, b) -> go a (go b acc)
  in
  go t []

type indexed = { hebrew : int array; peer_class : int array }

let make_index ~hebrew ~peer_class =
  if Array.length hebrew <> Array.length peer_class then
    invalid_arg "Sp_tree.make_index: rank and class arrays differ in length";
  { hebrew; peer_class }

(* English order visits both children of every node left to right (the
   serial order, so a leaf's English rank is its id); Hebrew order visits
   a P node's right child first. Two leaves are parallel iff the orders
   disagree on them: at their LCA the left one comes first in English
   order, and also first in Hebrew order exactly when the LCA is an S node
   (the SP-order labelling of Bender et al., SPAA'04, that [Sp_order]
   maintains online).

   Cutting the tree at its P nodes leaves components joined by S nodes;
   two leaves are joined by an all-S path iff they lie in one component,
   so each leaf's class is the topmost node of its component: the root or
   a child of a P node. *)
let index t =
  let count = ref 0 and max_leaf = ref (-1) in
  let rec count_leaves = function
    | Leaf s ->
        if s < 0 then invalid_arg "Sp_tree.index: negative leaf strand id";
        incr count;
        if s > !max_leaf then max_leaf := s
    | S (a, b) | P (a, b) ->
        count_leaves a;
        count_leaves b
  in
  count_leaves t;
  let seen = Array.make (!max_leaf + 1) false in
  let ls = leaves t in
  List.iter
    (fun s ->
      if seen.(s) then invalid_arg "Sp_tree.index: duplicate leaf strand id";
      seen.(s) <- true)
    ls;
  List.iteri
    (fun i s ->
      if s <> i then invalid_arg "Sp_tree.index: leaves not numbered in serial order")
    ls;
  let n = !count in
  let hebrew = Array.make n 0 and peer_class = Array.make n 0 in
  let rank = ref 0 and next_class = ref 0 in
  let fresh () =
    let c = !next_class in
    incr next_class;
    c
  in
  let rec go t cls =
    match t with
    | Leaf s ->
        hebrew.(s) <- !rank;
        incr rank;
        peer_class.(s) <- cls
    | S (a, b) ->
        go a cls;
        go b cls
    | P (a, b) ->
        let cb = fresh () in
        go b cb;
        go a (fresh ())
  in
  go t (fresh ());
  { hebrew; peer_class }

let check_leaf ix u =
  if u < 0 || u >= Array.length ix.hebrew then invalid_arg "Sp_tree: unknown leaf strand"

let all_s_path ix u v =
  u = v
  ||
  (check_leaf ix u;
   check_leaf ix v;
   ix.peer_class.(u) = ix.peer_class.(v))

let parallel ix u v =
  u <> v
  &&
  (check_leaf ix u;
   check_leaf ix v;
   (u < v) <> (ix.hebrew.(u) < ix.hebrew.(v)))

let to_dot ?(leaf_attrs = fun _ -> []) t =
  let g = Rader_support.Dot.create "sp_parse_tree" in
  let next = ref 0 in
  let rec go t =
    let id = Printf.sprintf "n%d" !next in
    incr next;
    (match t with
    | Leaf s ->
        Rader_support.Dot.node g id ~label:(string_of_int s)
          ~attrs:(("shape", "box") :: leaf_attrs s)
    | S (a, b) ->
        Rader_support.Dot.node g id ~label:"S" ~attrs:[ ("shape", "circle") ];
        Rader_support.Dot.edge g id (go a) ~attrs:[];
        Rader_support.Dot.edge g id (go b) ~attrs:[]
    | P (a, b) ->
        Rader_support.Dot.node g id ~label:"P"
          ~attrs:[ ("shape", "doublecircle") ];
        Rader_support.Dot.edge g id (go a) ~attrs:[];
        Rader_support.Dot.edge g id (go b) ~attrs:[]);
    id
  in
  let _root = go t in
  Rader_support.Dot.render g

let to_dag t =
  (* Number leaves in serial (left-to-right) order, then wire series
     compositions sink→source and leave parallel compositions unconnected;
     the enclosing series nodes supply the fan-out/fan-in edges. *)
  let dag = Dag.create () in
  let mapping = Hashtbl.create 64 in
  let rec alloc = function
    | Leaf s ->
        let id =
          Dag.add_strand dag ~frame:(-1) ~kind:Dag.User ~view:(-1)
            ~label:(string_of_int s)
        in
        Hashtbl.replace mapping s id
    | S (a, b) | P (a, b) ->
        alloc a;
        alloc b
  in
  alloc t;
  let rec wire = function
    | Leaf s ->
        let id = Hashtbl.find mapping s in
        ([ id ], [ id ])
    | S (a, b) ->
        let src_a, snk_a = wire a in
        let src_b, snk_b = wire b in
        List.iter (fun u -> List.iter (fun v -> Dag.add_edge dag u v) src_b) snk_a;
        (src_a, snk_b)
    | P (a, b) ->
        let src_a, snk_a = wire a in
        let src_b, snk_b = wire b in
        (src_a @ src_b, snk_a @ snk_b)
  in
  let _ = wire t in
  (dag, fun s -> Hashtbl.find mapping s)
