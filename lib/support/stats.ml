let now () = Unix.gettimeofday ()

let time_it f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, t1 -. t0)

let best_of n f =
  if n <= 0 then invalid_arg "Stats.best_of";
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to n do
    let r, dt = time_it f in
    result := Some r;
    if dt < !best then best := dt
  done;
  match !result with
  | Some r -> (r, !best)
  | None -> assert false

let nonempty = function
  | [] -> invalid_arg "Stats: empty list"
  | xs -> xs

let mean xs =
  let xs = nonempty xs in
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  let xs = nonempty xs in
  List.iter (fun x -> if x <= 0.0 then invalid_arg "Stats.geomean: nonpositive") xs;
  let log_sum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
  exp (log_sum /. float_of_int (List.length xs))

let median xs =
  let xs = nonempty xs in
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

let min_max xs =
  let xs = nonempty xs in
  List.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (infinity, neg_infinity) xs
