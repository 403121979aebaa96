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

type indexed = {
  parent : int array; (* node id -> parent node id, -1 at root *)
  is_p : bool array;
  depth : int array;
  leaf_node : int array; (* strand id -> node id, -1 if not a leaf *)
  english : int array; (* strand id -> rank in English order *)
  hebrew : int array; (* strand id -> rank in Hebrew order *)
}

(* English order visits both children of every node left to right (the
   serial order); Hebrew order visits a P node's right child first. Two
   leaves are parallel iff the orders disagree on them: at their LCA the
   left one comes first in English order, and also first in Hebrew order
   exactly when the LCA is an S node (the SP-order labelling of Bender et
   al., SPAA'04, that [Sp_order] maintains online). *)
let index t =
  let count = ref 0 and max_leaf = ref (-1) in
  let rec count_nodes = function
    | Leaf s ->
        if s < 0 then invalid_arg "Sp_tree.index: negative leaf strand id";
        incr count;
        if s > !max_leaf then max_leaf := s
    | S (a, b) | P (a, b) ->
        incr count;
        count_nodes a;
        count_nodes b
  in
  count_nodes t;
  let n = !count in
  let parent = Array.make n (-1) in
  let is_p = Array.make n false in
  let depth = Array.make n 0 in
  let leaf_node = Array.make (!max_leaf + 1) (-1) in
  let english = Array.make (!max_leaf + 1) (-1) in
  let hebrew = Array.make (!max_leaf + 1) (-1) in
  let next = ref 0 and rank = ref 0 in
  let rec go t p d =
    let id = !next in
    incr next;
    parent.(id) <- p;
    depth.(id) <- d;
    match t with
    | Leaf s ->
        if leaf_node.(s) >= 0 then
          invalid_arg "Sp_tree.index: duplicate leaf strand id";
        leaf_node.(s) <- id;
        english.(s) <- !rank;
        incr rank
    | S (a, b) ->
        go a id (d + 1);
        go b id (d + 1)
    | P (a, b) ->
        is_p.(id) <- true;
        go a id (d + 1);
        go b id (d + 1)
  in
  go t (-1) 0;
  rank := 0;
  let rec go_hebrew = function
    | Leaf s ->
        hebrew.(s) <- !rank;
        incr rank
    | S (a, b) ->
        go_hebrew a;
        go_hebrew b
    | P (a, b) ->
        go_hebrew b;
        go_hebrew a
  in
  go_hebrew t;
  { parent; is_p; depth; leaf_node; english; hebrew }

let node_of ix u =
  if u >= 0 && u < Array.length ix.leaf_node && ix.leaf_node.(u) >= 0 then
    ix.leaf_node.(u)
  else invalid_arg "Sp_tree: unknown leaf strand"

(* Walk both nodes up to their LCA, applying [visit] to every internal node
   stepped onto (i.e., every proper ancestor of a start node up to and
   including the LCA). *)
let walk_to_lca ix a b visit =
  let a = ref a and b = ref b in
  while ix.depth.(!a) > ix.depth.(!b) do
    a := ix.parent.(!a);
    visit !a
  done;
  while ix.depth.(!b) > ix.depth.(!a) do
    b := ix.parent.(!b);
    visit !b
  done;
  while !a <> !b do
    a := ix.parent.(!a);
    visit !a;
    b := ix.parent.(!b);
    visit !b
  done

let all_s_path ix u v =
  if u = v then true
  else begin
    let ok = ref true in
    walk_to_lca ix (node_of ix u) (node_of ix v) (fun n ->
        if ix.is_p.(n) then ok := false);
    !ok
  end

(* [english_rank ix u] also validates [u]: a leaf has both ranks. *)
let english_rank ix u =
  if u >= 0 && u < Array.length ix.english && ix.english.(u) >= 0 then
    ix.english.(u)
  else invalid_arg "Sp_tree: unknown leaf strand"

let parallel ix u v =
  u <> v
  && (english_rank ix u < english_rank ix v) <> (ix.hebrew.(u) < ix.hebrew.(v))

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
