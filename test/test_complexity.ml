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
   the last carries the reducer view stack's doubling with depth; recorded,
   39.84, 68.19 and 119.31, the tape's doubling store included). A series
   without a row is held to the first one. *)
let alloc_table =
  [
    ( "5.1",
      [
        ("bare tree", 26.0);
        ("fib+opadd", 36.0);
        ("fib+opadd -s all", 55.1);
        ("bare tree recorded", 39.9);
        ("fib+opadd recorded", 68.2);
        ("fib+opadd -s all recorded", 119.4);
        ("bare tree front end", 130.9);
        ("fib+opadd front end", 214.3);
      ] );
  ]

(* One engine, recycled with [Engine.reset] after a warm-up run at the
   larger size, so its stacks are already grown at both measured sizes. A
   recorded run gets a fresh engine instead: a recycled one keeps its
   tape's grown store, which would hide the cost of the tape itself. *)
let words_per_spawn ~record ~spec program () =
  let eng = Engine.create ~spec () in
  let measure n =
    let eng =
      if record then Engine.create ~spec ~record ()
      else begin
        Engine.reset ~spec eng;
        eng
      end
    in
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

(* The same slope for verify's front end on a no-steal program: the
   recorded run, its decode into flat arrays with the parse-tree index,
   and the pair scan. *)
let front_end_words_per_spawn program () =
  let measure n =
    let main = program n in
    let w0 = words_allocated () in
    let spawns =
      match Rader_analysis.Ir.of_program (fun ctx -> main ctx; 0) with
      | Ok ir ->
          let tr = ir.Rader_analysis.Ir.trace in
          ignore (Coverage.scan_trace tr);
          Array.length tr.Trace.spawn_frame
      | Error f -> failwith (Diag.to_string f)
    in
    (spawns, words_allocated () -. w0)
  in
  ignore (measure 18);
  let s0, w0 = measure 14 in
  let s1, w1 = measure 18 in
  (w1 -. w0) /. float_of_int (s1 - s0)

let alloc_measures =
  List.map
    (fun (name, spec, p) -> (name, words_per_spawn ~record:false ~spec p))
    alloc_programs
  @ List.map
      (fun (name, spec, p) -> (name ^ " recorded", words_per_spawn ~record:true ~spec p))
      alloc_programs
  @ [
      ("bare tree front end", front_end_words_per_spawn (fun n ctx -> bare_tree ctx n));
      ("fib+opadd front end", front_end_words_per_spawn fib_opadd);
    ]

let test_alloc_per_spawn () =
  let series = String.sub Sys.ocaml_version 0 3 in
  let row =
    match List.assoc_opt series alloc_table with
    | Some row -> row
    | None -> snd (List.hd alloc_table)
  in
  let measured =
    List.map
      (fun (name, measure) ->
        let w = measure () in
        let limit = List.assoc name row in
        Printf.printf "%s: %.4f words/spawn (table %.1f, OCaml %s)\n" name w
          limit Sys.ocaml_version;
        (name, w, limit))
      alloc_measures
  in
  List.iter
    (fun (name, w, limit) ->
      checkb
        (Printf.sprintf "%s: %.2f words/spawn <= %.1f" name w limit)
        true (w <= limit))
    measured

(* Exact Obs-operations gate. For a fixed program, spec and backend the
   detector's operation counts are deterministic and independent of the
   compiler, so they are gated for equality against one committed table:
   the six §8 programs at scale 0.05 (the suite's default seed) under
   Peer-Set without steals and SP+ without steals, stealing everything,
   and stealing each sync block's first continuation with reduces at the
   sync, each under both reachability backends. An increase is a
   regression; a decrease updates the table in the same change. The
   measured rows are printed in the table's syntax. *)

let obs_keys =
  [
    "events";
    "dset_adds";
    "dset_finds";
    "dset_unions";
    "dset_compress_steps";
    "bag_makes";
    "bag_unions";
    "bag_finds";
    "shadow_lookups";
    "shadow_updates";
    "peerset_queries";
    "reach_fp_queries";
    "reach_fp_words";
    "reach_epoch_ops";
  ]

let obs_configs =
  [
    ("peer_set.none", `Peer, Steal_spec.none);
    ("sp_plus.none", `Sp, Steal_spec.none);
    ("sp_plus.all", `Sp, Steal_spec.all ());
    ( "sp_plus.local1",
      `Sp,
      Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_at_sync [ 1 ] );
  ]

(* (program, config, backend) -> counts in [obs_keys] order *)
let obs_table =
  [
    ("collision", "peer_set.none", "dset", [ 806; 1; 1; 0; 0; 600; 997; 1; 3; 4; 2; 0; 0; 0 ]);
    ("collision", "sp_plus.none", "dset", [ 806; 2; 2; 1; 0; 802; 602; 2; 10; 5; 0; 0; 0; 0 ]);
    ("collision", "sp_plus.all", "dset", [ 814; 3; 4; 2; 1; 1004; 803; 4; 20; 9; 0; 0; 0; 0 ]);
    ("collision", "sp_plus.local1", "dset", [ 814; 3; 4; 2; 1; 877; 676; 4; 20; 9; 0; 0; 0; 0 ]);
    ("collision", "peer_set.none", "depa", [ 806; 0; 0; 0; 0; 0; 0; 0; 3; 4; 2; 1; 1; 2 ]);
    ("collision", "sp_plus.none", "depa", [ 806; 0; 0; 0; 0; 0; 0; 0; 10; 5; 0; 2; 2; 600 ]);
    ("collision", "sp_plus.all", "depa", [ 814; 0; 0; 0; 0; 0; 0; 0; 20; 9; 0; 4; 4; 999 ]);
    ("collision", "sp_plus.local1", "depa", [ 814; 0; 0; 0; 0; 0; 0; 0; 20; 9; 0; 4; 4; 745 ]);
    ("dedup", "peer_set.none", "dset", [ 548; 1; 1; 0; 0; 24; 37; 1; 3; 4; 2; 0; 0; 0 ]);
    ("dedup", "sp_plus.none", "dset", [ 548; 20; 40; 19; 20; 290; 172; 40; 518; 39; 0; 0; 0; 0 ]);
    ("dedup", "sp_plus.all", "dset", [ 584; 133; 264; 132; 129; 320; 303; 264; 554; 262; 0; 0; 0; 0 ]);
    ("dedup", "sp_plus.local1", "dset", [ 566; 82; 165; 81; 81; 305; 243; 165; 536; 162; 0; 0; 0; 0 ]);
    ("dedup", "peer_set.none", "depa", [ 548; 0; 0; 0; 0; 0; 0; 0; 3; 4; 2; 1; 1; 2 ]);
    ("dedup", "sp_plus.none", "depa", [ 548; 0; 0; 0; 0; 0; 0; 0; 518; 39; 0; 40; 40; 154 ]);
    ("dedup", "sp_plus.all", "depa", [ 584; 0; 0; 0; 0; 0; 0; 0; 554; 262; 0; 264; 264; 185 ]);
    ("dedup", "sp_plus.local1", "depa", [ 566; 0; 0; 0; 0; 0; 0; 0; 536; 162; 0; 165; 165; 173 ]);
    ("ferret", "peer_set.none", "dset", [ 76; 1; 1; 0; 0; 30; 47; 1; 3; 4; 2; 0; 0; 0 ]);
    ("ferret", "sp_plus.none", "dset", [ 76; 2; 5; 1; 0; 58; 40; 5; 38; 3; 0; 0; 0; 0 ]);
    ("ferret", "sp_plus.all", "dset", [ 124; 14; 26; 13; 4; 98; 76; 26; 86; 23; 0; 0; 0; 0 ]);
    ("ferret", "sp_plus.local1", "dset", [ 100; 8; 16; 7; 2; 78; 58; 16; 62; 13; 0; 0; 0; 0 ]);
    ("ferret", "peer_set.none", "depa", [ 76; 0; 0; 0; 0; 0; 0; 0; 3; 4; 2; 1; 1; 2 ]);
    ("ferret", "sp_plus.none", "depa", [ 76; 0; 0; 0; 0; 0; 0; 0; 38; 3; 0; 5; 5; 41 ]);
    ("ferret", "sp_plus.all", "depa", [ 124; 0; 0; 0; 0; 0; 0; 0; 86; 23; 0; 26; 26; 82 ]);
    ("ferret", "sp_plus.local1", "depa", [ 100; 0; 0; 0; 0; 0; 0; 0; 62; 13; 0; 16; 16; 64 ]);
    ("fib", "peer_set.none", "dset", [ 194820; 1; 1; 0; 0; 106266; 141685; 1; 3; 4; 2; 0; 0; 0 ]);
    ("fib", "sp_plus.none", "dset", [ 194820; 2; 22; 1; 0; 159398; 106266; 22; 70846; 3; 0; 0; 0; 0 ]);
    ("fib", "sp_plus.all", "dset", [ 301080; 35422; 53132; 35421; 6764; 247948; 194816; 53132; 177106; 53133; 0; 0; 0; 0 ]);
    ("fib", "sp_plus.local1", "dset", [ 301080; 35422; 53132; 35421; 6764; 247948; 194816; 53132; 177106; 53133; 0; 0; 0; 0 ]);
    ("fib", "peer_set.none", "depa", [ 194820; 0; 0; 0; 0; 0; 0; 0; 3; 4; 2; 1; 1; 2 ]);
    ("fib", "sp_plus.none", "depa", [ 194820; 0; 0; 0; 0; 0; 0; 0; 70846; 3; 0; 22; 22; 106284 ]);
    ("fib", "sp_plus.all", "depa", [ 301080; 0; 0; 0; 0; 0; 0; 0; 177106; 53133; 0; 53132; 53132; 194814 ]);
    ("fib", "sp_plus.local1", "depa", [ 301080; 0; 0; 0; 0; 0; 0; 0; 177106; 53133; 0; 53132; 53132; 194814 ]);
    ("knapsack", "peer_set.none", "dset", [ 495205; 1; 1; 0; 0; 302004; 402669; 1; 3; 4; 2; 0; 0; 0 ]);
    ("knapsack", "sp_plus.none", "dset", [ 495205; 2; 12; 1; 0; 448930; 302004; 12; 92552; 3; 0; 0; 0; 0 ]);
    ("knapsack", "sp_plus.all", "dset", [ 818996; 92518; 138776; 92517; 23565; 680220; 533294; 138776; 462586; 138777; 0; 0; 0; 0 ]);
    ("knapsack", "sp_plus.local1", "dset", [ 818996; 92518; 138776; 92517; 23565; 680220; 533294; 138776; 462586; 138777; 0; 0; 0; 0 ]);
    ("knapsack", "peer_set.none", "depa", [ 495205; 0; 0; 0; 0; 0; 0; 0; 3; 4; 2; 1; 1; 2 ]);
    ("knapsack", "sp_plus.none", "depa", [ 495205; 0; 0; 0; 0; 0; 0; 0; 92552; 3; 0; 12; 12; 302012 ]);
    ("knapsack", "sp_plus.all", "depa", [ 818996; 0; 0; 0; 0; 0; 0; 0; 462586; 138777; 0; 138776; 138776; 533292 ]);
    ("knapsack", "sp_plus.local1", "depa", [ 818996; 0; 0; 0; 0; 0; 0; 0; 462586; 138777; 0; 138776; 138776; 533292 ]);
    ("pbfs", "peer_set.none", "dset", [ 34230; 1; 4; 0; 0; 342; 567; 4; 12; 16; 8; 0; 0; 0 ]);
    ("pbfs", "sp_plus.none", "dset", [ 34230; 108; 21518; 107; 18683; 9307; 4876; 21518; 49848; 10773; 0; 0; 0; 0 ]);
    ("pbfs", "sp_plus.all", "dset", [ 34503; 108; 21518; 107; 18683; 9780; 5167; 21518; 49848; 10773; 0; 0; 0; 0 ]);
    ("pbfs", "sp_plus.local1", "dset", [ 34350; 108; 21518; 107; 18402; 9515; 5004; 21518; 49848; 10773; 0; 0; 0; 0 ]);
    ("pbfs", "peer_set.none", "depa", [ 34230; 0; 0; 0; 0; 0; 0; 0; 12; 16; 8; 4; 4; 8 ]);
    ("pbfs", "sp_plus.none", "depa", [ 34230; 0; 0; 0; 0; 0; 0; 0; 49848; 10773; 0; 21518; 21518; 17696 ]);
    ("pbfs", "sp_plus.all", "depa", [ 34503; 0; 0; 0; 0; 0; 0; 0; 49848; 10773; 0; 21518; 21518; 31024 ]);
    ("pbfs", "sp_plus.local1", "depa", [ 34350; 0; 0; 0; 0; 0; 0; 0; 49848; 10773; 0; 21518; 21518; 30800 ]);
  ]

let obs_counts (b : Rader_benchsuite.Bench_def.t) det reach spec =
  let c =
    snd
      (Obs.with_enabled (fun () ->
           let eng = Engine.create ~spec () in
           (match det with
           | `Peer -> ignore (Peer_set.attach ~reach eng)
           | `Sp -> ignore (Sp_plus.attach ~reach eng));
           ignore (Engine.run_result eng b.Rader_benchsuite.Bench_def.cilk)))
  in
  let all = Obs.to_assoc c in
  List.map (fun k -> List.assoc k all) obs_keys

let test_obs_exact () =
  let module Reach = Rader_reach.Reach in
  let measured =
    List.concat_map
      (fun (b : Rader_benchsuite.Bench_def.t) ->
        List.concat_map
          (fun reach ->
            List.map
              (fun (config, det, spec) ->
                ( (b.name, config, Reach.show reach),
                  obs_counts b det reach spec ))
              obs_configs)
          [ Reach.Dset; Reach.Depa ])
      (Rader_benchsuite.Suite.all ~scale:0.05 ())
  in
  List.iter
    (fun ((p, c, r), got) ->
      Printf.printf "    (%S, %S, %S, [ %s ]);\n" p c r
        (String.concat "; " (List.map string_of_int got)))
    measured;
  Alcotest.(check int) "one committed row per run" (List.length measured)
    (List.length obs_table);
  List.iter
    (fun (((p, c, r) as key), got) ->
      match
        List.find_opt (fun (p', c', r', _) -> (p', c', r') = key) obs_table
      with
      | None -> Alcotest.failf "%s/%s.%s: no committed row" p c r
      | Some (_, _, _, want) ->
          List.iter2
            (fun k (w, g) ->
              if w <> g then
                Alcotest.failf "%s/%s.%s: %s is %d, table says %d" p c r k g w)
            obs_keys (List.combine want got))
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
      ( "obs-exact",
        [ Alcotest.test_case "§8 operation counts" `Quick test_obs_exact ] );
    ]
