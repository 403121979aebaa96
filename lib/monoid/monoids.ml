let int_add = Monoid.make ~name:"int_add" ~identity:(fun () -> 0) ~combine:( + )
let int_mul = Monoid.make ~name:"int_mul" ~identity:(fun () -> 1) ~combine:( * )
let int_min = Monoid.make ~name:"int_min" ~identity:(fun () -> max_int) ~combine:Int.min
let int_max = Monoid.make ~name:"int_max" ~identity:(fun () -> min_int) ~combine:Int.max
let float_add = Monoid.make ~name:"float_add" ~identity:(fun () -> 0.0) ~combine:( +. )

let int_land = Monoid.make ~name:"int_land" ~identity:(fun () -> -1) ~combine:( land )
let int_lor = Monoid.make ~name:"int_lor" ~identity:(fun () -> 0) ~combine:( lor )
let int_lxor = Monoid.make ~name:"int_lxor" ~identity:(fun () -> 0) ~combine:( lxor )
let bool_and = Monoid.make ~name:"bool_and" ~identity:(fun () -> true) ~combine:( && )
let bool_or = Monoid.make ~name:"bool_or" ~identity:(fun () -> false) ~combine:( || )

let pair a b =
  Monoid.make
    ~name:(Printf.sprintf "pair(%s,%s)" a.Monoid.name b.Monoid.name)
    ~identity:(fun () -> (a.Monoid.identity (), b.Monoid.identity ()))
    ~combine:(fun (xa, xb) (ya, yb) -> (a.Monoid.combine xa ya, b.Monoid.combine xb yb))

let arg_max () =
  Monoid.make ~name:"arg_max"
    ~identity:(fun () -> None)
    ~combine:(fun l r ->
      match (l, r) with
      | None, x | x, None -> x
      | Some (kl, _), Some (kr, _) ->
          (* ties keep the serially-earlier element for determinism *)
          if kr > kl then r else l)

(* Counters: sorted association lists merged pairwise, so ⊗ is O(n + m)
   and canonical forms compare with (=). *)
let rec merge_counts l r =
  match (l, r) with
  | [], x | x, [] -> x
  | (ka, ca) :: tla, (kb, cb) :: tlb ->
      if ka < kb then (ka, ca) :: merge_counts tla r
      else if kb < ka then (kb, cb) :: merge_counts l tlb
      else (ka, ca + cb) :: merge_counts tla tlb

let counter () =
  Monoid.make ~name:"counter" ~identity:(fun () -> []) ~combine:merge_counts

let counter_entries c = c

let counter_of_list keys =
  List.fold_left (fun acc k -> merge_counts acc [ (k, 1) ]) [] keys

let list_append () =
  Monoid.make ~name:"list_append" ~identity:(fun () -> []) ~combine:( @ )

let string_concat =
  Monoid.make ~name:"string_concat" ~identity:(fun () -> "") ~combine:( ^ )

(* Bags: a list of element-chunks. Union is O(1) chunk concatenation via a
   binary-tree representation to avoid O(n) appends. *)
type 'a bag = Empty | Leaf of 'a | Node of 'a bag * 'a bag * int

let bag_size = function Empty -> 0 | Leaf _ -> 1 | Node (_, _, n) -> n

let bag_union a b =
  match (a, b) with
  | Empty, x | x, Empty -> x
  | a, b -> Node (a, b, bag_size a + bag_size b)

let bag () = Monoid.make ~name:"bag" ~identity:(fun () -> Empty) ~combine:bag_union
let bag_singleton x = Leaf x

let bag_of_list xs =
  List.fold_left (fun acc x -> bag_union acc (Leaf x)) Empty xs

let bag_elements b =
  let rec go b acc =
    match b with
    | Empty -> acc
    | Leaf x -> x :: acc
    | Node (l, r, _) -> go l (go r acc)
  in
  go b []

(* Hypervector: a persistent append/concat sequence; same tree trick with
   left-to-right element order preserved. *)
type 'a hypervector = 'a bag

let hypervector () =
  Monoid.make ~name:"hypervector" ~identity:(fun () -> Empty) ~combine:bag_union

let hv_push hv x = bag_union hv (Leaf x)
let hv_to_list = bag_elements
let hv_length = bag_size
