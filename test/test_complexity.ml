(* Empirical check of the paper's complexity bounds.

   Theorem 4: Peer-Set runs in O(T α(x,x)) for T events over x frames.
   Theorem 5: SP+ runs in O((T + Mτ) α(v,v)).

   Both bounds say the same operational thing: the amortized
   disjoint-set / shadow-space work per engine event is a small constant
   times α — and α is ≤ 4 for any input that fits in a machine, i.e.
   effectively flat. The obs layer counts exactly those operations
   (finds, unions, path-compression steps, bag ops, shadow ops), so the
   bound becomes testable: run the detectors on geometrically growing
   inputs and assert that (a) work per event never exceeds a small
   constant and (b) the ratio does not climb with input size (the slope
   check — a log factor would show up as steady growth across a
   geometric sweep; α cannot). *)

open Rader_runtime
open Rader_core
module Obs = Rader_obs.Obs

let checkb = Alcotest.(check bool)

let rec fib ctx n =
  if n < 2 then n
  else begin
    let a = Cilk.spawn ctx (fun ctx -> fib ctx (n - 1)) in
    let b = Cilk.call ctx (fun ctx -> fib ctx (n - 2)) in
    Cilk.sync ctx;
    Cilk.get ctx a + b
  end

(* pbfs-style flat data parallelism with a reducer: wide sync blocks, so
   steals and reduce operations scale with n *)
let reducer_loop n ctx =
  let r = Rmonoid.new_int_add ctx ~init:0 in
  Cilk.parallel_for ctx ~lo:0 ~hi:n (fun ctx i -> Rmonoid.add ctx r i);
  Cilk.sync ctx;
  ignore (Rmonoid.int_cell_value ctx r)

let delta_of ~attach program =
  snd
    (Obs.with_enabled (fun () ->
         let eng = Engine.create ~spec:(Steal_spec.all ()) () in
         let _det = attach eng in
         ignore (Engine.run_result eng program)))

(* (events, amortized detector ops per event) for one run *)
let measure ~attach ~ops program =
  let c = delta_of ~attach program in
  let events = c.Obs.events in
  checkb "run produced events" true (events > 0);
  (events, float_of_int (ops c) /. float_of_int events)

let assert_flat what ~cap ~max_growth points =
  List.iter
    (fun (size, events, ratio) ->
      Printf.printf "%s n=%-5d events=%-8d ops/event=%.3f\n" what size events
        ratio;
      checkb
        (Printf.sprintf "%s n=%d: amortized ops/event %.3f within constant %.1f"
           what size ratio cap)
        true (ratio <= cap))
    points;
  (* geometric input growth must not produce ratio growth: compare each
     size to the smallest — α is flat, a log factor is not *)
  let _, _, r0 = List.hd points in
  List.iter
    (fun (size, _, r) ->
      checkb
        (Printf.sprintf "%s n=%d: slope flat (%.3f vs %.3f at smallest size)"
           what size r r0)
        true (r <= r0 *. max_growth))
    (List.tl points);
  (* sanity: the sweep really was geometric in events *)
  let evs = List.map (fun (_, e, _) -> e) points in
  checkb (what ^ ": events grew at every step") true
    (List.sort compare evs = evs && List.length (List.sort_uniq compare evs) = List.length evs)

(* SP+ work is dset ops (series-parallel maintenance, path compression)
   plus shadow-space ops (Thm 5's traversal term) *)
let test_spplus_fib () =
  [ 10; 13; 16; 19 ]
  |> List.map (fun n ->
         let events, ratio =
           measure ~attach:Sp_plus.attach
             ~ops:(fun c -> Obs.dset_ops c + Obs.shadow_ops c)
             (fun ctx -> ignore (fib ctx n))
         in
         (n, events, ratio))
  |> assert_flat "sp+/fib" ~cap:2.0 ~max_growth:1.5

let test_spplus_reducer_loop () =
  [ 64; 256; 1024; 4096 ]
  |> List.map (fun n ->
         let events, ratio =
           measure ~attach:Sp_plus.attach
             ~ops:(fun c -> Obs.dset_ops c + Obs.shadow_ops c)
             (reducer_loop n)
         in
         (n, events, ratio))
  |> assert_flat "sp+/reducer-loop" ~cap:4.0 ~max_growth:1.5

(* Peer-Set work is bag ops (the disjoint-set SS/SP/P machinery of Fig. 3)
   plus the reader shadow spaces *)
let test_peerset_reducer_loop () =
  [ 64; 256; 1024; 4096 ]
  |> List.map (fun n ->
         let events, ratio =
           measure ~attach:Peer_set.attach
             ~ops:(fun c -> Obs.bag_ops c + Obs.shadow_ops c)
             (reducer_loop n)
         in
         (n, events, ratio))
  |> assert_flat "peerset/reducer-loop" ~cap:2.0 ~max_growth:1.5

(* The depa backend replaces the disjoint sets with DePa-style
   fingerprints: queries touch O(1) fingerprint words and epoch-table
   slots in the worst case, with no amortized path compression behind
   the bound. Its counters (reach ops) must stay flat across the same
   geometric sweeps — and the dset/bag counters must stay at exactly
   zero, or the backends are not actually disjoint cost models. *)

let depa_attach eng = Sp_plus.attach ~reach:Rader_reach.Reach.Depa eng
let depa_peer_attach eng = Peer_set.attach ~reach:Rader_reach.Reach.Depa eng

let test_depa_spplus_fib () =
  [ 10; 13; 16; 19 ]
  |> List.map (fun n ->
         let events, ratio =
           measure ~attach:depa_attach
             ~ops:(fun c -> Obs.reach_ops c + Obs.shadow_ops c)
             (fun ctx -> ignore (fib ctx n))
         in
         (n, events, ratio))
  |> assert_flat "sp+[depa]/fib" ~cap:2.0 ~max_growth:1.5

let test_depa_spplus_reducer_loop () =
  [ 64; 256; 1024; 4096 ]
  |> List.map (fun n ->
         let events, ratio =
           measure ~attach:depa_attach
             ~ops:(fun c -> Obs.reach_ops c + Obs.shadow_ops c)
             (reducer_loop n)
         in
         (n, events, ratio))
  |> assert_flat "sp+[depa]/reducer-loop" ~cap:4.0 ~max_growth:1.5

let test_depa_does_no_dset_work () =
  let c = delta_of ~attach:depa_attach (reducer_loop 512) in
  checkb "depa SP+ did reach work" true (Obs.reach_ops c > 0);
  checkb "depa SP+ does zero disjoint-set work" true (Obs.dset_ops c = 0);
  checkb "depa SP+ does zero bag work" true (Obs.bag_ops c = 0);
  let c = delta_of ~attach:depa_peer_attach (reducer_loop 512) in
  checkb "depa Peer-Set does zero disjoint-set work" true
    (Obs.dset_ops c = 0 && Obs.bag_ops c = 0)

let test_depa_peerset_reducer_loop () =
  [ 64; 256; 1024; 4096 ]
  |> List.map (fun n ->
         let events, ratio =
           measure ~attach:depa_peer_attach
             ~ops:(fun c -> Obs.reach_ops c + Obs.shadow_ops c)
             (reducer_loop n)
         in
         (n, events, ratio))
  |> assert_flat "peerset[depa]/reducer-loop" ~cap:2.0 ~max_growth:1.5

(* path compression is what makes the bounds amortized: verify it actually
   fires on a workload deep enough to build long find paths, and that its
   total cost stays within the linear budget. Frames join the disjoint
   set lazily at their first instrumented access, so the workload must
   touch memory — a pure-control program like fib does no dset work at
   all (that is the point of the lazy insertion). *)
let test_compression_amortizes () =
  let c = delta_of ~attach:Sp_plus.attach (reducer_loop 4096) in
  checkb "finds happened" true (c.Obs.dset_finds > 0);
  checkb "compression stays amortized: steps <= 2 * finds" true
    (c.Obs.dset_compress_steps <= 2 * c.Obs.dset_finds)

(* Exact allocation gate for the engine. Allocation is deterministic for a
   fixed program, spec and compiler, so it is gated exactly rather than
   timed: words allocated per spawn under [Tool.null], as the slope
   between two input sizes (fixed per-run costs cancel). Words count the
   minor heap plus blocks allocated directly in the major heap (those
   over 256 words, which [Gc.minor_words] misses). [Gc.minor_words] is
   exact at any point; the minor count in [Gc.counters] only moves at
   minor collections, so only its major and promoted counts are used.
   Any increase over the committed table fails; a decrease should lower
   the table. *)

let words_allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* the bare spawn/call/sync tree: only the engine and the user closures
   allocate *)
let rec bare_tree ctx n =
  if n >= 2 then begin
    ignore (Cilk.spawn ctx (fun ctx -> bare_tree ctx (n - 1)));
    Cilk.call ctx (fun ctx -> bare_tree ctx (n - 2));
    Cilk.sync ctx
  end

(* the paper's fib, with its opadd reducer *)
let fib_opadd n ctx =
  ignore ((Rader_benchsuite.Bm_fib.bench ~n).Rader_benchsuite.Bench_def.cilk ctx)

let alloc_programs =
  [
    ("bare tree", Steal_spec.none, fun n ctx -> bare_tree ctx n);
    ("fib+opadd", Steal_spec.none, fib_opadd);
    ("fib+opadd -s all", Steal_spec.all (), fib_opadd);
  ]

(* Committed words per spawn, per compiler series: the measured slopes
   rounded up to a tenth of a word (5.1.1 measured 26.00, 36.00 and 55.01;
   the last carries the reducer view stack's doubling with depth). A
   series without a row is held to the first one. *)
let alloc_table =
  [ ("5.1", [ ("bare tree", 26.0); ("fib+opadd", 36.0); ("fib+opadd -s all", 55.1) ]) ]

(* One engine, recycled with [Engine.reset] after a warm-up run at the
   larger size, so its stacks are already grown at both measured sizes. *)
let words_per_spawn ~spec program =
  let eng = Engine.create ~spec () in
  let measure n =
    Engine.reset ~spec eng;
    let main = program n in
    let w0 = words_allocated () in
    ignore (Engine.run eng main);
    let w1 = words_allocated () in
    ((Engine.stats eng).Engine.n_spawns, w1 -. w0)
  in
  ignore (measure 18);
  let s0, w0 = measure 14 in
  let s1, w1 = measure 18 in
  (w1 -. w0) /. float_of_int (s1 - s0)

let test_alloc_per_spawn () =
  let series = String.sub Sys.ocaml_version 0 3 in
  let row =
    match List.assoc_opt series alloc_table with
    | Some row -> row
    | None -> snd (List.hd alloc_table)
  in
  let measured =
    List.map
      (fun (name, spec, program) ->
        let w = words_per_spawn ~spec program in
        let limit = List.assoc name row in
        Printf.printf "%s: %.4f words/spawn (table %.1f, OCaml %s)\n" name w
          limit Sys.ocaml_version;
        (name, w, limit))
      alloc_programs
  in
  List.iter
    (fun (name, w, limit) ->
      checkb
        (Printf.sprintf "%s: %.2f words/spawn <= %.1f" name w limit)
        true (w <= limit))
    measured

let () =
  Alcotest.run "complexity"
    [
      ( "alpha-bounds",
        [
          Alcotest.test_case "sp+ on fib" `Quick test_spplus_fib;
          Alcotest.test_case "sp+ on reducer loop" `Quick test_spplus_reducer_loop;
          Alcotest.test_case "peerset on reducer loop" `Quick
            test_peerset_reducer_loop;
          Alcotest.test_case "path compression amortizes" `Quick
            test_compression_amortizes;
        ] );
      ( "depa-bounds",
        [
          Alcotest.test_case "sp+[depa] on fib" `Quick test_depa_spplus_fib;
          Alcotest.test_case "sp+[depa] on reducer loop" `Quick
            test_depa_spplus_reducer_loop;
          Alcotest.test_case "peerset[depa] on reducer loop" `Quick
            test_depa_peerset_reducer_loop;
          Alcotest.test_case "depa does no dset work" `Quick
            test_depa_does_no_dset_work;
        ] );
      ( "engine-alloc",
        [ Alcotest.test_case "words per spawn" `Quick test_alloc_per_spawn ] );
    ]
