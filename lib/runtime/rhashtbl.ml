type ('k, 'v) t = {
  buckets : ('k * 'v) list Cell.t array;
  count : int Cell.t;
}

let create ctx ~buckets () =
  if buckets <= 0 then invalid_arg "Rhashtbl.create: buckets must be positive";
  {
    buckets = Array.init buckets (fun _ -> Cell.make_in ctx ~label:"rhash.bucket" []);
    count = Cell.make_in ctx ~label:"rhash.count" 0;
  }

let bucket_of h k = Hashtbl.hash k mod Array.length h.buckets

let add ctx h k v ~combine =
  let cell = h.buckets.(bucket_of h k) in
  let chain = Cell.read ctx cell in
  let rec replace = function
    | [] -> None
    | (k', v') :: tl when k' = k -> Some ((k, combine v' v) :: tl)
    | kv :: tl -> Option.map (fun tl' -> kv :: tl') (replace tl)
  in
  match replace chain with
  | Some chain' -> Cell.write ctx cell chain'
  | None ->
      Cell.write ctx cell ((k, v) :: chain);
      Cell.write ctx h.count (Cell.read ctx h.count + 1)

let find ctx h k =
  List.assoc_opt k (Cell.read ctx h.buckets.(bucket_of h k))

let size ctx h = Cell.read ctx h.count

let bindings ctx h =
  Array.fold_left (fun acc cell -> List.rev_append (Cell.read ctx cell) acc) [] h.buckets
  |> List.sort compare

let merge_into ctx ~dst ~src ~combine =
  Array.iter
    (fun cell ->
      List.iter (fun (k, v) -> add ctx dst k v ~combine) (Cell.read ctx cell))
    src.buckets

let monoid ~buckets ~combine () =
  {
    Reducer.name = "rhashtbl";
    identity = (fun c -> create c ~buckets ());
    reduce =
      (fun c l r ->
        merge_into c ~dst:l ~src:r ~combine;
        l);
  }
