(* Known answers, written by hand from the programs' source — never taken
   from the detectors under test. Result values come from plain-OCaml
   code: [Bench_def.plain] for the §8 suite and the §9 reducer-free
   programs, and the small functions below for the demos. *)

(* §8 suite (lib/benchsuite): every program is race-free and uses its
   reducers correctly, so every configuration reports zero racy
   locations: Peer-Set under no steals (no view-read race), and SP+
   under no steals, check-updates and check-reductions (no determinacy
   race), under either reachability backend. *)
let check_racy ~program ~config =
  match (program, config) with
  | ("collision" | "dedup" | "ferret" | "fib" | "knapsack" | "pbfs"),
    ("peer_set.none" | "sp_plus.none" | "sp_plus.updates" | "sp_plus.reductions") ->
      0
  | _ -> invalid_arg ("no known answer for check " ^ program ^ "/" ^ config)

(* Racy locations over the whole §7 steal-specification family — the
   verdict of [Witness.verify] and [Coverage.exhaustive_check], in the
   family workload and for the serve mix's [Verify] requests.
   - fig1-buggy: the scan reads the original list while the reducer's
     update strands insert into a shallow copy that shares its [next]
     cells; once a steal gives the updates a fresh view, a view-aware
     write to [mylist.next] is logically parallel with the scan's read:
     one racy location.
   - fig1-fixed deep-copies, so the two share no cell.
   - wordcount, minimax, fib, knapsack and dedup touch shared state only
     through reducers, whose views never escape the reduce tree.
   - fib-futures shares no memory; stencil writes disjoint cells in
     parallel and only reads overlapping ones. *)
let family_racy = function
  | "fig1-buggy" -> 1
  | "fig1-fixed" | "wordcount" | "minimax" | "fib" | "knapsack" | "dedup"
  | "fib-futures" | "stencil" ->
      0
  | p -> invalid_arg ("no known answer for family " ^ p)

(* Serve mix: SP+ racy locations of one [Check] under one steal spec.
   - fig1-buggy races only when the update loop's continuation is stolen
     ("all", or "1": the first continuation of every sync block), which
     moves the updates onto a fresh view; with no steals they share the
     scan's view and are serialized through it.
   - racy-read reads the reducer before the sync that joins the spawned
     updates. With no steals both touch view 0: one race. Stealing the
     root's first continuation ("all" or "1") gives the read a fresh
     view, which no update writes.
   - fib-racy's leaves all bump one plain cell: racy under every spec.
   - wordcount and minimax are clean under every schedule. *)
let serve_check_racy ~program ~spec =
  match (program, spec) with
  | "fig1-buggy", "none" -> 0
  | "fig1-buggy", ("all" | "1") -> 1
  | "racy-read", "none" -> 1
  | "racy-read", ("all" | "1") -> 0
  | "fib-racy", ("none" | "all" | "1") -> 1
  | ("wordcount" | "minimax"), ("none" | "all" | "1") -> 0
  | _ -> invalid_arg ("no known answer for serve check " ^ program ^ "/" ^ spec)

(* Plain-OCaml results of the demo programs ([Demos]), for the scales
   the workloads use. *)
let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

let fib_racy_result ~scale = fib (8 + int_of_float (scale *. 4.))

(* every word of the count map is counted once per loop iteration *)
let wordcount_result ~scale = max 64 (int_of_float (scale *. 4000.))
