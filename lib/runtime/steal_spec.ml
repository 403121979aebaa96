type cont_info = {
  spawn_index : int;
  frame : int;
  depth : int;
  local_index : int;
  sync_block : int;
}

type reduce_policy =
  | Reduce_at_sync
  | Reduce_eagerly
  | Reduce_schedule of (int -> int)

type shape =
  | Never
  | Always
  | Probabilistic
  | Local_indices of int list
  | At_depth of int
  | Spawn_indices of int list
  | Opaque

type t = {
  name : string;
  steal : cont_info -> bool;
  policy : reduce_policy;
  shape : shape;
}

let none =
  { name = "none"; steal = (fun _ -> false); policy = Reduce_at_sync; shape = Never }

let all ?(policy = Reduce_eagerly) () =
  { name = "all"; steal = (fun _ -> true); policy; shape = Always }

(* Stateless hash so that the same (seed, spawn_index) always decides the
   same way, independent of evaluation order. splitmix64 finalizer. *)
let hash64 seed x =
  let open Int64 in
  let z = add (of_int seed) (mul (of_int (x + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* NaN fails both comparisons, so it is rejected too. *)
let is_probability p = p >= 0.0 && p <= 1.0

let random ?(policy = Reduce_eagerly) ~seed ~density () =
  if not (is_probability density) then invalid_arg "Steal_spec.random: density";
  let steal info =
    let h = hash64 seed info.spawn_index in
    let u = Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0 in
    u < density
  in
  {
    name = Printf.sprintf "random(seed=%d,p=%.2f)" seed density;
    steal;
    policy;
    shape = Probabilistic;
  }

let at_local_indices ?(policy = Reduce_at_sync) idxs =
  let steal info = List.mem info.local_index idxs in
  {
    name =
      Printf.sprintf "local{%s}" (String.concat "," (List.map string_of_int idxs));
    steal;
    policy;
    shape = Local_indices idxs;
  }

let at_depth ?(policy = Reduce_eagerly) d =
  {
    name = Printf.sprintf "depth=%d" d;
    steal = (fun info -> info.depth = d);
    policy;
    shape = At_depth d;
  }

let by_spawn_index ?(policy = Reduce_at_sync) ?name idxs =
  let module IS = Set.Make (Int) in
  let set = IS.of_list idxs in
  let name =
    match name with
    | Some n -> n
    | None ->
        Printf.sprintf "spawns{%s}" (String.concat "," (List.map string_of_int idxs))
  in
  { name; steal = (fun info -> IS.mem info.spawn_index set); policy;
    shape = Spawn_indices idxs }

let with_name t name = { t with name }

let opaque ?(policy = Reduce_at_sync) ~name steal = { name; steal; policy; shape = Opaque }

let validate t ~k ~d ~n_spawns =
  let out_of_range lo hi xs = List.filter (fun x -> x < lo || x > hi) xs in
  let render xs = String.concat "," (List.map string_of_int xs) in
  match t.shape with
  | Never | Always | Probabilistic | Opaque -> Ok ()
  | Local_indices idxs -> (
      match out_of_range 1 k idxs with
      | [] -> Ok ()
      | bad ->
          Error
            (Printf.sprintf
               "continuation indices {%s} outside 1..K for profile K=%d"
               (render bad) k))
  | At_depth dd ->
      if dd >= 0 && dd <= d then Ok ()
      else Error (Printf.sprintf "depth %d outside 0..D for profile D=%d" dd d)
  | Spawn_indices idxs -> (
      match out_of_range 0 (n_spawns - 1) idxs with
      | [] -> Ok ()
      | bad ->
          Error
            (Printf.sprintf "spawn ordinals {%s} outside the program's %d spawns"
               (render bad) n_spawns))

let merges_before_steal t ~steal_ordinal ~n_open =
  let max_merges = max 0 (n_open - 1) in
  match t.policy with
  | Reduce_at_sync -> 0
  | Reduce_eagerly -> max_merges
  | Reduce_schedule f -> min (max 0 (f steal_ordinal)) max_merges

(* The CLI / wire syntax for specs: keep this total — the serve daemon
   parses untrusted spec strings out of request frames. *)
let parse ~seed ~density s =
  match s with
  | "none" -> Ok none
  | "all" -> Ok (all ())
  | "random" when is_probability density -> Ok (random ~seed ~density ())
  | "random" -> Error (Printf.sprintf "steal density %g is not in [0, 1]" density)
  | s -> (
      match List.map int_of_string (String.split_on_char ',' s) with
      | idxs when List.for_all (fun i -> i >= 1) idxs ->
          Ok (at_local_indices ~policy:Reduce_eagerly idxs)
      | _ -> Error (Printf.sprintf "continuation indices in %S must be >= 1" s)
      | exception _ ->
          Error
            (Printf.sprintf
               "cannot parse steal spec %S (want none, all, random, or a \
                comma-separated index list)"
               s))
