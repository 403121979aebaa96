module Monoid = Rader_monoid.Monoid

let of_pure (m : 'a Monoid.t) : 'a Reducer.monoid =
  {
    Reducer.name = m.Monoid.name;
    identity = (fun _ -> m.Monoid.identity ());
    reduce = (fun _ l r -> m.Monoid.combine l r);
  }

let int_cell_monoid ~name ~zero ~op : int Cell.t Reducer.monoid =
  (* hoisted: the identity runs once per steal-created view *)
  let view_label = name ^ ".view" in
  {
    Reducer.name;
    identity = (fun ctx -> Cell.make_in ctx ~label:view_label zero);
    reduce =
      (fun ctx l r ->
        let rv = Cell.read ctx r in
        let lv = Cell.read ctx l in
        Cell.write ctx l (op lv rv);
        l);
  }

let int_add_cell = int_cell_monoid ~name:"opadd" ~zero:0 ~op:( + )
let int_max_cell = int_cell_monoid ~name:"max" ~zero:min_int ~op:Int.max
let int_min_cell = int_cell_monoid ~name:"min" ~zero:max_int ~op:Int.min

let ostream : Buffer.t Cell.t Reducer.monoid =
  {
    Reducer.name = "ostream";
    identity = (fun ctx -> Cell.make_in ctx ~label:"ostream.view" (Buffer.create 64));
    reduce =
      (fun ctx l r ->
        let rb = Cell.read ctx r in
        let lb = Cell.read ctx l in
        Buffer.add_buffer lb rb;
        Cell.write ctx l lb;
        l);
  }

let ostream_emit ctx r s =
  Reducer.update ctx r (fun c cell ->
      let b = Cell.read c cell in
      Buffer.add_string b s;
      Cell.write c cell b;
      cell)

let ostream_contents r =
  match Reducer.peek r with
  | Some cell -> Buffer.contents (Cell.peek cell)
  | None -> invalid_arg "Rmonoid.ostream_contents: no view in creation region"

let new_int_cell ctx monoid ~init ~label =
  Reducer.create ctx monoid ~init:(Cell.make_in ctx ~label init)

let new_int_add ctx ~init = new_int_cell ctx int_add_cell ~init ~label:"opadd.view0"

let add ctx r k =
  Reducer.update ctx r (fun c cell ->
      Cell.write c cell (Cell.read c cell + k);
      cell)

let new_int_max ctx ~init = new_int_cell ctx int_max_cell ~init ~label:"max.view0"

let maximize ctx r k =
  Reducer.update ctx r (fun c cell ->
      let v = Cell.read c cell in
      if k > v then Cell.write c cell k;
      cell)

let int_cell_value ctx r =
  let cell = Reducer.get_value ctx r in
  Cell.read ctx cell
