open Rader_runtime

type stmt =
  | Spawn of stmt list
  | Call of stmt list
  | Pfor of int * stmt list
  | Sync
  | Read of int
  | Write of int
  | Update of int
  | Get_reducer of int
  | Set_reducer of int

type reducer_cfg = { update_touches : int option; reduce_touches : int option }

type program = { body : stmt list; n_cells : int; reducers : reducer_cfg array }

(* Labels name the reducer of every view cell (see the interface). *)
let monoid_for i cfg (cells : int Cell.t array) : int Cell.t Reducer.monoid =
  let view_label = Printf.sprintf "r%d.view" i in
  {
    Reducer.name = "gen-add";
    identity = (fun c -> Cell.make_in c ~label:view_label 0);
    reduce =
      (fun c l r ->
        (match cfg.reduce_touches with
        | Some j -> Cell.write c cells.(j) 1
        | None -> ());
        let rv = Cell.read c r in
        Cell.write c l (Cell.read c l + rv);
        l);
  }

let interpret p ctx =
  let cells =
    Array.init p.n_cells (fun i ->
        Cell.make_in ctx ~label:(Printf.sprintf "cell%d" i) 0)
  in
  let reducers =
    Array.mapi
      (fun i cfg ->
        ( cfg,
          Reducer.create ctx (monoid_for i cfg cells)
            ~init:(Cell.make_in ctx ~label:(Printf.sprintf "r%d.view0" i) 0) ))
      p.reducers
  in
  let do_update ctx idx =
    let cfg, red = reducers.(idx) in
    Reducer.update ctx red (fun c v ->
        (match cfg.update_touches with
        | Some j -> Cell.write c cells.(j) 1
        | None -> ());
        Cell.write c v (Cell.read c v + 1);
        v)
  in
  let rec exec_block ctx stmts = List.iter (exec_stmt ctx) stmts
  and exec_stmt ctx = function
    | Spawn b -> ignore (Cilk.spawn ctx (fun ctx -> exec_block ctx b))
    | Call b -> Cilk.call ctx (fun ctx -> exec_block ctx b)
    | Pfor (n, b) -> Cilk.parallel_for ctx ~lo:0 ~hi:n (fun ctx _ -> exec_block ctx b)
    | Sync -> Cilk.sync ctx
    | Read i -> ignore (Cell.read ctx cells.(i))
    | Write i -> Cell.write ctx cells.(i) (i + 1)
    | Update r -> do_update ctx r
    | Get_reducer r ->
        let _, red = reducers.(r) in
        ignore (Cell.read ctx (Reducer.get_value ctx red))
    | Set_reducer r ->
        let _, red = reducers.(r) in
        Reducer.set_value ctx red
          (Cell.make_in ctx ~label:(Printf.sprintf "r%d.reset" r) 0)
  in
  exec_block ctx p.body;
  Cilk.sync ctx;
  let total = ref 0 in
  Array.iter
    (fun (_, red) -> total := !total + Cell.read ctx (Reducer.get_value ctx red))
    reducers;
  Array.iteri (fun i c -> total := !total + ((i + 13) * Cell.read ctx c)) cells;
  !total

let gen ~with_reducers ~racy =
  let open QCheck2.Gen in
  let n_cells = 4 in
  let n_reducers = if with_reducers then 2 else 0 in
  let cell = int_bound (n_cells - 1) in
  let reducer = int_bound (max 0 (n_reducers - 1)) in
  let rec block ~depth fuel =
    if fuel <= 0 then return []
    else
      let* len = int_range 1 (min 6 fuel) in
      let* stmts = flatten_l (List.init len (fun _ -> stmt ~depth (fuel / len))) in
      return stmts
  and stmt ~depth fuel =
    let leafs =
      [
        (4, map (fun i -> Read i) cell);
        (4, map (fun i -> Write i) cell);
        (2, return Sync);
      ]
      @ (if with_reducers then [ (4, map (fun r -> Update r) reducer) ] else [])
      @
      if with_reducers && racy then
        [
          (1, map (fun r -> Get_reducer r) reducer);
          (1, map (fun r -> Set_reducer r) reducer);
        ]
      else []
    in
    let nodes =
      if depth <= 0 || fuel <= 1 then []
      else
        [
          (4, map (fun b -> Spawn b) (block ~depth:(depth - 1) (fuel - 1)));
          (2, map (fun b -> Call b) (block ~depth:(depth - 1) (fuel - 1)));
          ( 1,
            let* n = int_range 2 4 in
            let* b = block ~depth:(depth - 1) (max 1 (fuel / n)) in
            return (Pfor (n, b)) );
        ]
    in
    frequency (leafs @ nodes)
  in
  let reducer_cfg =
    if racy then
      let* u = option (int_bound (n_cells - 1)) in
      let* r = option (int_bound (n_cells - 1)) in
      return { update_touches = u; reduce_touches = r }
    else return { update_touches = None; reduce_touches = None }
  in
  let* body = block ~depth:3 25 in
  let* reducers = array_repeat n_reducers reducer_cfg in
  return { body; n_cells; reducers }

let print p =
  let buf = Buffer.create 256 in
  let rec go indent stmts =
    List.iter
      (fun s ->
        Buffer.add_string buf indent;
        match s with
        | Spawn b ->
            Buffer.add_string buf "spawn {\n";
            go (indent ^ "  ") b;
            Buffer.add_string buf (indent ^ "}\n")
        | Call b ->
            Buffer.add_string buf "call {\n";
            go (indent ^ "  ") b;
            Buffer.add_string buf (indent ^ "}\n")
        | Pfor (n, b) ->
            Buffer.add_string buf (Printf.sprintf "pfor %d {\n" n);
            go (indent ^ "  ") b;
            Buffer.add_string buf (indent ^ "}\n")
        | Sync -> Buffer.add_string buf "sync\n"
        | Read i -> Buffer.add_string buf (Printf.sprintf "read c%d\n" i)
        | Write i -> Buffer.add_string buf (Printf.sprintf "write c%d\n" i)
        | Update r -> Buffer.add_string buf (Printf.sprintf "update r%d\n" r)
        | Get_reducer r -> Buffer.add_string buf (Printf.sprintf "get r%d\n" r)
        | Set_reducer r -> Buffer.add_string buf (Printf.sprintf "set r%d\n" r))
      stmts
  in
  go "" p.body;
  Array.iteri
    (fun i cfg ->
      Buffer.add_string buf
        (Printf.sprintf "r%d: update->%s reduce->%s\n" i
           (match cfg.update_touches with Some j -> "c" ^ string_of_int j | None -> "-")
           (match cfg.reduce_touches with Some j -> "c" ^ string_of_int j | None -> "-")))
    p.reducers;
  Buffer.contents buf

let max_local_spawns p =
  let best = ref 0 in
  let rec go stmts =
    let count = ref 0 in
    List.iter
      (fun s ->
        match s with
        | Spawn b ->
            incr count;
            if !count > !best then best := !count;
            go b
        | Call b -> go b
        | Pfor (n, b) ->
            (* parallel_for compiles to a spawn chain of ~n-1 spawns in
               helper frames *)
            if n - 1 > !best then best := n - 1;
            go b
        | Sync -> count := 0
        | Read _ | Write _ | Update _ | Get_reducer _ | Set_reducer _ -> ())
      stmts
  in
  go p.body;
  !best
