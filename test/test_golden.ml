(* Golden-trace conformance: the exact tool-event sequence the engine
   emits for a corpus of seed programs × steal specs is pinned by
   fingerprint files in test/golden/. The engine is deterministic, so any
   drift in event order, frame numbering, region numbering or location
   numbering — the coordinates every detector and the obs layer key off —
   shows up as a digest mismatch here before it silently re-baselines the
   detectors.

   To re-baseline intentionally:
     RADER_GOLDEN_REGEN=$PWD/test/golden dune runtest   (from the repo root)
   then review the diff like any other code change. *)

open Rader_runtime

let checkb = Alcotest.(check bool)

(* --- the recorder ------------------------------------------------------ *)

(* [observe eng recorder] is the record installed on [eng]: the recorder
   itself, or the recorder composed with a detector bound to [eng]. *)
let record_lines ?(observe = fun _ recorder -> recorder) spec program =
  let buf = Buffer.create 4096 in
  let addf fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let tool =
    {
      Tool.on_frame_enter =
        (fun ~frame ~parent ~spawned ~kind ->
          addf "enter %d parent=%d spawned=%b kind=%s" frame parent spawned
            (Tool.frame_kind_name kind));
      on_frame_return =
        (fun ~frame ~parent ~spawned ~kind ->
          addf "return %d parent=%d spawned=%b kind=%s" frame parent spawned
            (Tool.frame_kind_name kind));
      on_sync = (fun ~frame -> addf "sync %d" frame);
      on_steal = (fun ~frame ~region -> addf "steal %d region=%d" frame region);
      on_reduce =
        (fun ~frame ~into_region ~from_region ->
          addf "reduce %d into=%d from=%d" frame into_region from_region);
      on_read =
        (fun ~frame ~loc ~view_aware ->
          addf "read %d loc=%d va=%b" frame loc view_aware);
      on_write =
        (fun ~frame ~loc ~view_aware ->
          addf "write %d loc=%d va=%b" frame loc view_aware);
      on_reducer_read =
        (fun ~frame ~reducer -> addf "rread %d reducer=%d" frame reducer);
    }
  in
  let eng = Engine.create ~spec () in
  Engine.set_tool eng (observe eng tool);
  (match Engine.run_result eng program with
  | Ok _ -> addf "end ok"
  | Error f -> addf "end %s" (Rader_core.Diag.class_name f));
  Buffer.contents buf

(* --- the corpus -------------------------------------------------------- *)

let rec fib ctx n =
  if n < 2 then n
  else begin
    let a = Cilk.spawn ctx (fun ctx -> fib ctx (n - 1)) in
    let b = Cilk.call ctx (fun ctx -> fib ctx (n - 2)) in
    Cilk.sync ctx;
    Cilk.get ctx a + b
  end

let fib8 ctx = fib ctx 8

let sum_loop ctx =
  let r = Rmonoid.new_int_add ctx ~init:0 in
  Cilk.parallel_for ctx ~lo:0 ~hi:8 (fun ctx i -> Rmonoid.add ctx r i);
  Cilk.sync ctx;
  ignore (Rmonoid.int_cell_value ctx r)

let list_builder ctx =
  let red = Reducer.create ctx (Mylist.monoid ()) ~init:(Mylist.empty ctx) in
  Cilk.parallel_for ctx ~lo:0 ~hi:6 (fun ctx i ->
      Reducer.update ctx red (fun c l ->
          Mylist.insert c l i;
          l));
  Cilk.sync ctx;
  ignore (Mylist.scan ctx (Reducer.get_value ctx red))

let specs =
  [
    ("none", Steal_spec.none);
    ("all", Steal_spec.all ());
    ( "local_2_4",
      Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_at_sync [ 2; 4 ] );
  ]

let corpus =
  [
    ("fib8", (fib8 : Engine.ctx -> int), [ "none"; "all" ]);
    ("sum_loop", (fun ctx -> sum_loop ctx; 0), [ "none"; "all"; "local_2_4" ]);
    ("list_builder", (fun ctx -> list_builder ctx; 0), [ "none"; "all"; "local_2_4" ]);
  ]

(* --- golden file format ------------------------------------------------ *)

let head_lines = 20

let render ~program ~spec_name text =
  let lines = String.split_on_char '\n' text in
  let n_events = List.length lines - 1 (* trailing newline *) in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "program %s\n" program;
  Printf.bprintf buf "spec %s\n" spec_name;
  Printf.bprintf buf "events %d\n" n_events;
  Printf.bprintf buf "digest %s\n" (Digest.to_hex (Digest.string text));
  Printf.bprintf buf "--\n";
  List.iteri
    (fun i l -> if i < head_lines && l <> "" then Printf.bprintf buf "%s\n" l)
    lines;
  Buffer.contents buf

let golden_name program spec_name = Printf.sprintf "%s__%s.golden" program spec_name

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  body

let test_case_for program prog spec_name () =
  let spec = List.assoc spec_name specs in
  let rendered =
    render ~program ~spec_name (record_lines spec (fun ctx -> ignore (prog ctx)))
  in
  let name = golden_name program spec_name in
  match Sys.getenv_opt "RADER_GOLDEN_REGEN" with
  | Some dir ->
      let oc = open_out_bin (Filename.concat dir name) in
      output_string oc rendered;
      close_out oc
  | None ->
      let path = Filename.concat "golden" name in
      if not (Sys.file_exists path) then
        Alcotest.fail
          (Printf.sprintf
             "missing golden file %s — generate with \
              RADER_GOLDEN_REGEN=$PWD/test/golden dune runtest"
             name);
      let expected = read_file path in
      if expected <> rendered then begin
        Printf.printf "--- expected (%s)\n%s--- got\n%s" name expected rendered;
        checkb
          (Printf.sprintf
             "%s: event sequence drifted — if intentional, re-baseline with \
              RADER_GOLDEN_REGEN (see test_golden.ml)"
             name)
          true false
      end

(* --- backend verdict parity over the same corpus ----------------------- *)

(* The goldens pin the raw event stream, which no precedence backend can
   perturb (backends are pure observers). What a backend COULD perturb is
   the verdict computed from that stream — so the same corpus also pins
   "dset and depa produce byte-identical race reports". *)

module Core = Rader_core

let sp_plus_verdict ~reach spec program =
  let eng = Engine.create ~spec () in
  let d = Core.Sp_plus.attach ~reach eng in
  ignore (Engine.run_result eng program);
  List.map Core.Report.to_string (Core.Sp_plus.races d)

let peer_set_verdict ~reach program =
  let eng = Engine.create () in
  let d = Core.Peer_set.attach ~reach eng in
  ignore (Engine.run_result eng program);
  List.map Core.Report.to_string (Core.Peer_set.races d)

let parity_case_for name prog spec_name () =
  let spec = List.assoc spec_name specs in
  let program ctx = ignore (prog ctx) in
  Alcotest.(check (list string))
    (Printf.sprintf "%s under %s: SP+ dset vs depa" name spec_name)
    (sp_plus_verdict ~reach:Rader_reach.Reach.Dset spec program)
    (sp_plus_verdict ~reach:Rader_reach.Reach.Depa spec program);
  Alcotest.(check (list string))
    "Peer-Set dset vs depa"
    (peer_set_verdict ~reach:Rader_reach.Reach.Dset program)
    (peer_set_verdict ~reach:Rader_reach.Reach.Depa program)

(* --- detector-composed streams over the same corpus -------------------- *)

(* A detector holds its engine and reads labels and strand ids from it.
   With a detector's record ahead of the recorder in one record (the
   chaos harness's composition), the recorder must see the stream it
   sees alone, which the section above pins, and the detector must
   report what it reports installed alone: reading the engine perturbs
   neither. *)

let composed_case_for program prog spec_name () =
  let spec = List.assoc spec_name specs in
  let run ctx = ignore (prog ctx) in
  let alone = record_lines spec run in
  let composed what tool =
    let rendered =
      record_lines spec run ~observe:(fun eng recorder ->
          Rader_testkit.Tools.seq (tool eng) recorder)
    in
    Alcotest.(check string)
      (Printf.sprintf "%s under %s: stream with %s ahead" program spec_name what)
      alone rendered
  in
  List.iter
    (fun reach ->
      let what = "SP+ " ^ Rader_reach.Reach.show reach in
      let sp = ref None in
      composed what (fun eng ->
          let d = Core.Sp_plus.create ~reach eng in
          sp := Some d;
          Core.Sp_plus.tool d);
      Alcotest.(check (list string))
        (what ^ ": composed = alone")
        (sp_plus_verdict ~reach spec run)
        (List.map Core.Report.to_string (Core.Sp_plus.races (Option.get !sp))))
    Rader_reach.Reach.all;
  let peer = ref None in
  composed "Peer-Set" (fun eng ->
      let d = Core.Peer_set.create eng in
      peer := Some d;
      Core.Peer_set.tool d);
  Alcotest.(check (list string))
    "Peer-Set: composed = alone"
    (peer_set_verdict ~reach:Rader_reach.Reach.Dset run)
    (List.map Core.Report.to_string (Core.Peer_set.races (Option.get !peer)))

let () =
  let cases =
    List.concat_map
      (fun (program, prog, specs_used) ->
        List.map
          (fun spec_name ->
            Alcotest.test_case
              (Printf.sprintf "%s under %s" program spec_name)
              `Quick
              (test_case_for program prog spec_name))
          specs_used)
      corpus
  in
  let parity_cases =
    List.concat_map
      (fun (program, prog, specs_used) ->
        List.map
          (fun spec_name ->
            Alcotest.test_case
              (Printf.sprintf "%s under %s" program spec_name)
              `Quick
              (parity_case_for program prog spec_name))
          specs_used)
      corpus
  in
  let composed_cases =
    List.concat_map
      (fun (program, prog, specs_used) ->
        List.map
          (fun spec_name ->
            Alcotest.test_case
              (Printf.sprintf "%s under %s" program spec_name)
              `Quick
              (composed_case_for program prog spec_name))
          specs_used)
      corpus
  in
  Alcotest.run "golden"
    [
      ("event-sequence fingerprints", cases);
      ("reach-backend verdict parity", parity_cases);
      ("detector-composed streams", composed_cases);
    ]
