(* Tests for the benchmark suite: workload generators are deterministic,
   every benchmark's Cilk version matches its plain version, results are
   schedule-independent, and the suite is race-free under the detectors. *)

open Rader_runtime
open Rader_benchsuite
open Rader_core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Scaled-down suite for tests. *)
let small () = Suite.all ~seed:7 ~scale:0.05 ()

(* ---------- workloads ---------- *)

let test_graph_generator () =
  let g = Workloads.random_graph ~seed:3 ~n:100 ~m:300 in
  check "n" 100 g.Workloads.n;
  check "csr closes" (Array.length g.Workloads.col) g.Workloads.row.(100);
  check "symmetric edge count" 600 g.Workloads.row.(100);
  checkb "neighbors in range" true
    (Array.for_all (fun v -> v >= 0 && v < 100) g.Workloads.col);
  let g2 = Workloads.random_graph ~seed:3 ~n:100 ~m:300 in
  checkb "deterministic" true (g.Workloads.col = g2.Workloads.col)

let test_bytes_generator () =
  let b = Workloads.random_bytes ~seed:1 4096 in
  check "size" 4096 (Bytes.length b);
  checkb "deterministic" true (Bytes.equal b (Workloads.random_bytes ~seed:1 4096));
  checkb "seed matters" false (Bytes.equal b (Workloads.random_bytes ~seed:2 4096))

let test_vectors_generator () =
  let db = Workloads.feature_vectors ~seed:5 ~count:64 ~dim:8 in
  check "count" 64 (Array.length db);
  checkb "dims" true (Array.for_all (fun v -> Array.length v = 8) db)

let test_items_and_spheres () =
  let items = Workloads.knapsack_items ~seed:4 ~n:20 ~max_weight:10 ~max_value:20 in
  checkb "weights positive" true (Array.for_all (fun (w, v) -> w >= 1 && v >= 1) items);
  let sp = Workloads.spheres ~seed:4 ~n:50 ~world:10.0 in
  checkb "in world" true
    (Array.for_all (fun (x, y, z, r) -> x >= 0. && y >= 0. && z >= 0. && r > 0. && x < 10.) sp)

(* ---------- benchmark correctness ---------- *)

let test_plain_equals_cilk () =
  List.iter
    (fun b ->
      let p = b.Bench_def.plain () in
      let c, _ = Cilk.exec b.Bench_def.cilk in
      Alcotest.(check int) (b.Bench_def.name ^ ": plain = cilk") p c)
    (small ())

let test_schedule_independent () =
  let specs =
    [
      Steal_spec.all ();
      Steal_spec.all ~policy:Steal_spec.Reduce_at_sync ();
      Steal_spec.random ~seed:21 ~density:0.3 ();
    ]
  in
  List.iter
    (fun b ->
      let expected = b.Bench_def.plain () in
      List.iter
        (fun spec ->
          let c, _ = Cilk.exec ~spec b.Bench_def.cilk in
          Alcotest.(check int)
            (Printf.sprintf "%s under %s" b.Bench_def.name spec.Steal_spec.name)
            expected c)
        specs)
    (small ())

let test_benchmarks_race_free_peer_set () =
  List.iter
    (fun b ->
      let eng = Engine.create () in
      let d = Peer_set.attach eng in
      ignore (Engine.run eng b.Bench_def.cilk);
      Alcotest.(check int) (b.Bench_def.name ^ ": no view-read races") 0
        (List.length (Peer_set.races d)))
    (small ())

let test_benchmarks_race_free_sp_plus () =
  List.iter
    (fun b ->
      List.iter
        (fun spec ->
          let eng = Engine.create ~spec () in
          let d = Sp_plus.attach eng in
          ignore (Engine.run eng b.Bench_def.cilk);
          Alcotest.(check int)
            (Printf.sprintf "%s under %s: no determinacy races" b.Bench_def.name
               spec.Steal_spec.name)
            0
            (List.length (Sp_plus.races d)))
        [ Steal_spec.none; Steal_spec.random ~seed:2 ~density:0.25 () ])
    (small ())

let test_oblivious_workloads () =
  List.iter
    (fun b ->
      let p = b.Bench_def.plain () in
      let c, _ = Cilk.exec b.Bench_def.cilk in
      Alcotest.(check int) (b.Bench_def.name ^ " plain = cilk") p c;
      (* race-free under every reducer-unaware detector *)
      let eng = Engine.create () in
      let d = Sp_order.attach eng in
      ignore (Engine.run eng b.Bench_def.cilk);
      Alcotest.(check int) (b.Bench_def.name ^ " sp-order clean") 0
        (List.length (Sp_order.races d));
      let eng = Engine.create () in
      let d = Offset_span.attach eng in
      ignore (Engine.run eng b.Bench_def.cilk);
      Alcotest.(check int)
        (b.Bench_def.name ^ " offset-span clean")
        0
        (List.length (Offset_span.races d));
      let eng = Engine.create () in
      let d = Sp_bags.attach eng in
      ignore (Engine.run eng b.Bench_def.cilk);
      Alcotest.(check int) (b.Bench_def.name ^ " sp-bags clean") 0
        (List.length (Sp_bags.races d)))
    [
      Bm_oblivious.fib_futures ~n:12;
      Bm_oblivious.stencil ~seed:2 ~n:512 ~rounds:3 ~grain:16;
    ]

let test_nqueens () =
  let b = Bm_nqueens.bench ~n:7 ~spawn_depth:3 in
  let p = b.Bench_def.plain () in
  Alcotest.(check int) "7-queens has 40 solutions" 40 p;
  let c, _ = Cilk.exec b.Bench_def.cilk in
  Alcotest.(check int) "plain = cilk" p c;
  let c2, _ = Cilk.exec ~spec:(Steal_spec.all ()) b.Bench_def.cilk in
  Alcotest.(check int) "schedule independent" p c2;
  let eng = Engine.create ~spec:(Steal_spec.at_local_indices [ 1; 2; 3 ]) () in
  let d = Sp_plus.attach eng in
  ignore (Engine.run eng b.Bench_def.cilk);
  Alcotest.(check int) "race-free" 0 (List.length (Sp_plus.races d))

let test_stencil_race_injection () =
  (* sanity of the workload's race-freedom claim: removing the buffer swap
     (writing in place) must produce real races that all detectors see *)
  let broken ctx =
    let eng = Engine.engine ctx in
    let buf = Rarray.init eng ~label:"inplace" 64 (fun i -> i) in
    Cilk.parallel_for ctx ~lo:0 ~hi:64 (fun ctx i ->
        let a = if i = 0 then 0 else Rarray.read ctx buf (i - 1) in
        Rarray.write ctx buf i (a + 1));
    Cilk.sync ctx
  in
  let eng = Engine.create () in
  let d = Sp_bags.attach eng in
  ignore (Engine.run eng broken);
  Alcotest.(check bool) "sp-bags catches" true (Sp_bags.races d <> []);
  let eng = Engine.create () in
  let d = Sp_order.attach eng in
  ignore (Engine.run eng broken);
  Alcotest.(check bool) "sp-order catches" true (Sp_order.races d <> [])

(* [find] builds one benchmark alone; its inputs must be those [all]
   builds, since each generator seeds its own RNG. *)
let test_suite_lookup () =
  Alcotest.(check (list string)) "names" Suite.names
    (List.map (fun b -> b.Bench_def.name) (Suite.all ()));
  List.iter
    (fun b ->
      let name = b.Bench_def.name in
      let f = Suite.find ~seed:7 ~scale:0.05 name in
      Alcotest.(check (list string))
        (name ^ ": find = all")
        [ name; b.Bench_def.descr; b.Bench_def.input ]
        [ f.Bench_def.name; f.Bench_def.descr; f.Bench_def.input ];
      check (name ^ ": plain checksum") (b.Bench_def.plain ()) (f.Bench_def.plain ()))
    (small ());
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Suite.find "nope"))

let test_fnv_hash_stability () =
  Alcotest.(check bool) "string hash stable" true
    (Bench_def.fnv_string "abc" = Bench_def.fnv_string "abc");
  Alcotest.(check bool) "different strings differ" true
    (Bench_def.fnv_string "abc" <> Bench_def.fnv_string "abd");
  Alcotest.(check bool) "int folding differs" true
    (Bench_def.fnv_int 0 1 <> Bench_def.fnv_int 0 2)

let () =
  Alcotest.run "benchsuite"
    [
      ( "workloads",
        [
          Alcotest.test_case "graph" `Quick test_graph_generator;
          Alcotest.test_case "bytes" `Quick test_bytes_generator;
          Alcotest.test_case "vectors" `Quick test_vectors_generator;
          Alcotest.test_case "items/spheres" `Quick test_items_and_spheres;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "plain = cilk" `Quick test_plain_equals_cilk;
          Alcotest.test_case "schedule independent" `Quick test_schedule_independent;
          Alcotest.test_case "peer-set clean" `Quick test_benchmarks_race_free_peer_set;
          Alcotest.test_case "sp+ clean" `Slow test_benchmarks_race_free_sp_plus;
          Alcotest.test_case "oblivious workloads" `Quick test_oblivious_workloads;
          Alcotest.test_case "nqueens" `Quick test_nqueens;
          Alcotest.test_case "stencil race injection" `Quick test_stencil_race_injection;
          Alcotest.test_case "suite lookup" `Quick test_suite_lookup;
          Alcotest.test_case "fnv" `Quick test_fnv_hash_stability;
        ] );
    ]
