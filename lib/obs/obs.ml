(* Detector-wide operation counters.

   One [counters] record per domain, reached through domain-local storage:
   the instrumented substrates (Reach, Shadow, Engine, Peer_set) bump
   the current domain's record, the coverage sweep snapshots it around
   each spec replay, and the per-replay deltas are summed in spec order —
   so the merged counters of a parallel sweep are byte-identical to the
   serial sweep's, the same discipline the sweep already applies to race
   reports.

   Counting is gated on one process-wide atomic flag. With the flag off
   (the default) every instrumentation site is a single load-and-branch,
   which is what keeps the always-compiled layer within the bench
   regression budget; with it on, sites pay one domain-local lookup and a
   field increment. *)

type counters = {
  (* engine events, flushed once per run from Engine's own stats *)
  mutable engine_runs : int;
  mutable events : int; (* strand starts + instrumented accesses *)
  mutable strands : int;
  mutable frames : int;
  mutable spawns : int;
  mutable syncs : int;
  mutable steals : int;
  mutable reduce_calls : int;
  mutable reads : int;
  mutable writes : int;
  mutable reducer_reads : int;
  (* disjoint-set forest (the α(x,x) term of Theorems 4 and 5) *)
  mutable dset_adds : int;
  mutable dset_finds : int;
  mutable dset_unions : int;
  mutable dset_compress_steps : int; (* parent pointers rewritten *)
  (* bag layer over the forest *)
  mutable bag_makes : int;
  mutable bag_unions : int;
  mutable bag_finds : int;
  (* shadow spaces *)
  mutable shadow_lookups : int;
  mutable shadow_updates : int;
  (* Peer-Set reducer-read checks *)
  mutable peerset_queries : int;
  (* Reach fingerprint backend (DePa-style order maintenance) *)
  mutable reach_fp_queries : int; (* precedence queries answered *)
  mutable reach_fp_words : int; (* fingerprint words compared *)
  mutable reach_epoch_ops : int; (* view-epoch records + survivor-search steps *)
  (* online work-stealing runtime (Rader_sched.Online) *)
  mutable online_tasks : int; (* tasks executed across all workers *)
  mutable online_deque_steals : int; (* successful cross-worker deque steals *)
  mutable online_parks : int; (* sync waits that actually suspended *)
}

let zero () =
  {
    engine_runs = 0;
    events = 0;
    strands = 0;
    frames = 0;
    spawns = 0;
    syncs = 0;
    steals = 0;
    reduce_calls = 0;
    reads = 0;
    writes = 0;
    reducer_reads = 0;
    dset_adds = 0;
    dset_finds = 0;
    dset_unions = 0;
    dset_compress_steps = 0;
    bag_makes = 0;
    bag_unions = 0;
    bag_finds = 0;
    shadow_lookups = 0;
    shadow_updates = 0;
    peerset_queries = 0;
    reach_fp_queries = 0;
    reach_fp_words = 0;
    reach_epoch_ops = 0;
    online_tasks = 0;
    online_deque_steals = 0;
    online_parks = 0;
  }

(* The field list below is the single source of truth for every derived
   form (tables, JSON, equality, arithmetic). Add new counters here and in
   [zero]; never rename — the names are schema keys in BENCH_rader.json
   and in --metrics=json output. *)
let fields : (string * (counters -> int) * (counters -> int -> unit)) list =
  [
    ("engine_runs", (fun c -> c.engine_runs), fun c v -> c.engine_runs <- v);
    ("events", (fun c -> c.events), fun c v -> c.events <- v);
    ("strands", (fun c -> c.strands), fun c v -> c.strands <- v);
    ("frames", (fun c -> c.frames), fun c v -> c.frames <- v);
    ("spawns", (fun c -> c.spawns), fun c v -> c.spawns <- v);
    ("syncs", (fun c -> c.syncs), fun c v -> c.syncs <- v);
    ("steals", (fun c -> c.steals), fun c v -> c.steals <- v);
    ("reduce_calls", (fun c -> c.reduce_calls), fun c v -> c.reduce_calls <- v);
    ("reads", (fun c -> c.reads), fun c v -> c.reads <- v);
    ("writes", (fun c -> c.writes), fun c v -> c.writes <- v);
    ("reducer_reads", (fun c -> c.reducer_reads), fun c v -> c.reducer_reads <- v);
    ("dset_adds", (fun c -> c.dset_adds), fun c v -> c.dset_adds <- v);
    ("dset_finds", (fun c -> c.dset_finds), fun c v -> c.dset_finds <- v);
    ("dset_unions", (fun c -> c.dset_unions), fun c v -> c.dset_unions <- v);
    ( "dset_compress_steps",
      (fun c -> c.dset_compress_steps),
      fun c v -> c.dset_compress_steps <- v );
    ("bag_makes", (fun c -> c.bag_makes), fun c v -> c.bag_makes <- v);
    ("bag_unions", (fun c -> c.bag_unions), fun c v -> c.bag_unions <- v);
    ("bag_finds", (fun c -> c.bag_finds), fun c v -> c.bag_finds <- v);
    ("shadow_lookups", (fun c -> c.shadow_lookups), fun c v -> c.shadow_lookups <- v);
    ("shadow_updates", (fun c -> c.shadow_updates), fun c v -> c.shadow_updates <- v);
    ("peerset_queries", (fun c -> c.peerset_queries), fun c v -> c.peerset_queries <- v);
    ( "reach_fp_queries",
      (fun c -> c.reach_fp_queries),
      fun c v -> c.reach_fp_queries <- v );
    ("reach_fp_words", (fun c -> c.reach_fp_words), fun c v -> c.reach_fp_words <- v);
    ("reach_epoch_ops", (fun c -> c.reach_epoch_ops), fun c v -> c.reach_epoch_ops <- v);
    ("online_tasks", (fun c -> c.online_tasks), fun c v -> c.online_tasks <- v);
    ( "online_deque_steals",
      (fun c -> c.online_deque_steals),
      fun c v -> c.online_deque_steals <- v );
    ("online_parks", (fun c -> c.online_parks), fun c v -> c.online_parks <- v);
  ]

let to_assoc c = List.map (fun (name, get, _) -> (name, get c)) fields

let copy c =
  let out = zero () in
  List.iter (fun (_, get, set) -> set out (get c)) fields;
  out

let add ~into c = List.iter (fun (_, get, set) -> set into (get into + get c)) fields

let diff a b =
  let out = zero () in
  List.iter (fun (_, get, set) -> set out (get a - get b)) fields;
  out

let equal a b = List.for_all (fun (_, get, _) -> get a = get b) fields

let is_zero c = List.for_all (fun (_, get, _) -> get c = 0) fields

let dset_ops c = c.dset_finds + c.dset_unions + c.dset_compress_steps

let shadow_ops c = c.shadow_lookups + c.shadow_updates

let bag_ops c = c.bag_makes + c.bag_unions + c.bag_finds

let reach_ops c = c.reach_fp_words + c.reach_epoch_ops

(* ---------- enable flag + per-domain current record ---------- *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

let key : counters Domain.DLS.key = Domain.DLS.new_key zero

let cur () = Domain.DLS.get key

let snapshot () = copy (cur ())

let since snap = diff (cur ()) snap

(* [with_enabled f] runs [f] with counting on, restoring the previous
   state afterwards (including on exceptions), and returns [f]'s result
   together with the counters this domain accumulated during the call. *)
let with_enabled f =
  let was = enabled () in
  set_enabled true;
  let snap = snapshot () in
  Fun.protect ~finally:(fun () -> set_enabled was) (fun () ->
      let result = f () in
      (result, since snap))

(* ---------- bump helpers (call only under [enabled ()]) ---------- *)

let bump_dset_add () =
  let c = cur () in
  c.dset_adds <- c.dset_adds + 1

let bump_dset_find ~compress_steps =
  let c = cur () in
  c.dset_finds <- c.dset_finds + 1;
  c.dset_compress_steps <- c.dset_compress_steps + compress_steps

let bump_dset_union () =
  let c = cur () in
  c.dset_unions <- c.dset_unions + 1

let bump_bag_make () =
  let c = cur () in
  c.bag_makes <- c.bag_makes + 1

let bump_bag_union () =
  let c = cur () in
  c.bag_unions <- c.bag_unions + 1

let bump_bag_find () =
  let c = cur () in
  c.bag_finds <- c.bag_finds + 1

let bump_shadow_lookup () =
  let c = cur () in
  c.shadow_lookups <- c.shadow_lookups + 1

let bump_shadow_update () =
  let c = cur () in
  c.shadow_updates <- c.shadow_updates + 1

let bump_peerset_query () =
  let c = cur () in
  c.peerset_queries <- c.peerset_queries + 1

let bump_reach_query ~words =
  let c = cur () in
  c.reach_fp_queries <- c.reach_fp_queries + 1;
  c.reach_fp_words <- c.reach_fp_words + words

let bump_reach_epoch ~steps =
  let c = cur () in
  c.reach_epoch_ops <- c.reach_epoch_ops + steps

(* Online runtime: bumped from the worker domain that did the work, so
   the per-domain records naturally shard the counts; the runtime sums
   the per-worker deltas when it joins its domains. *)
let bump_online_task () =
  let c = cur () in
  c.online_tasks <- c.online_tasks + 1

let bump_online_deque_steal () =
  let c = cur () in
  c.online_deque_steals <- c.online_deque_steals + 1

let bump_online_park () =
  let c = cur () in
  c.online_parks <- c.online_parks + 1

(* Engine flushes a whole run at once (zero per-event overhead: the engine
   already maintains these counts for [Engine.stats]). *)
let note_engine_run ~events ~strands ~frames ~spawns ~syncs ~steals ~reduce_calls
    ~reads ~writes ~reducer_reads =
  let c = cur () in
  c.engine_runs <- c.engine_runs + 1;
  c.events <- c.events + events;
  c.strands <- c.strands + strands;
  c.frames <- c.frames + frames;
  c.spawns <- c.spawns + spawns;
  c.syncs <- c.syncs + syncs;
  c.steals <- c.steals + steals;
  c.reduce_calls <- c.reduce_calls + reduce_calls;
  c.reads <- c.reads + reads;
  c.writes <- c.writes + writes;
  c.reducer_reads <- c.reducer_reads + reducer_reads

(* ---------- rendering ---------- *)

let to_table_string c =
  let width =
    List.fold_left (fun w (name, _, _) -> max w (String.length name)) 0 fields
  in
  String.concat ""
    (List.map
       (fun (name, v) -> Printf.sprintf "  %-*s %d\n" width name v)
       (to_assoc c))

(* The counters object alone, e.g. {"engine_runs":1,...} — callers embed
   it in their own JSON envelope. *)
let to_json_string c =
  let buf = Buffer.create 512 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Buffer.add_string buf name;
      Buffer.add_string buf "\":";
      Buffer.add_string buf (string_of_int v))
    (to_assoc c);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ---------- monotonic-enough clock (microseconds) ---------- *)

(* Phase timers and trace spans share this clock. [Unix.gettimeofday] is
   the only sub-second clock in the image; span emitters clamp per-thread
   regressions away (see Chrome_trace), so a rare NTP step cannot produce
   a malformed trace. *)
let now_us () = Unix.gettimeofday () *. 1e6

type phase = { phase_name : string; mutable phase_us : float }

let phase name = { phase_name = name; phase_us = 0.0 }

let timed p f =
  let t0 = now_us () in
  Fun.protect ~finally:(fun () -> p.phase_us <- p.phase_us +. (now_us () -. t0)) f

let phase_seconds p = p.phase_us /. 1e6
let phase_name p = p.phase_name
