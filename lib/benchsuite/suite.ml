(* Each generator seeds its own RNG, so a benchmark built alone has the
   same inputs as in [all]: [find] builds only the one it names. *)
let benches =
  let s scale f = max 1 (int_of_float (f *. scale)) in
  let log_extra scale base =
    int_of_float (Float.round (Float.log2 (Float.max 1.0 scale))) + base
  in
  [
    ( "collision",
      fun ~seed ~scale ->
        Bm_collision.bench ~seed ~n:(s scale 4000.) ~world:50.0 ~cell:2.5 );
    ( "dedup",
      fun ~seed ~scale ->
        Bm_dedup.bench ~seed ~size:(s scale 262144.) ~block:2048 );
    ( "ferret",
      fun ~seed ~scale ->
        Bm_ferret.bench ~seed ~db:(s scale 512.) ~queries:(s scale 192.)
          ~dim:16 ~topk:3 );
    ("fib", fun ~seed:_ ~scale -> Bm_fib.bench ~n:(log_extra scale 21));
    ( "knapsack",
      fun ~seed ~scale ->
        let n_items = log_extra scale 24 in
        Bm_knapsack.bench ~seed ~n_items ~capacity:50
          ~spawn_depth:(n_items - 8) );
    ( "pbfs",
      fun ~seed ~scale ->
        Bm_pbfs.bench ~seed ~n:(s scale 30000.) ~m:(s scale 190000.) ~grain:16
    );
  ]

let names = List.map fst benches

let all ?(seed = 20150613) ?(scale = 1.0) () =
  List.map (fun (_, make) -> make ~seed ~scale) benches

let find ?(seed = 20150613) ?(scale = 1.0) name =
  (List.assoc name benches) ~seed ~scale
