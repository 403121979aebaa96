(* End-to-end tests for the rader serve daemon: verdict parity with
   one-shot checks, the verdict cache, quota enforcement, backpressure,
   crash isolation + supervised respawn, restart-budget degradation,
   graceful drain, hostile-frame handling, and the chaos acceptance run
   (crash + stall + malformed frames at 10% — every request answered,
   verdicts unchanged, daemon never exits). *)

module Server = Rader_serve.Server
module Client = Rader_serve.Client
module Proto = Rader_serve.Proto
module Load = Rader_serve.Load
module Engine = Rader_runtime.Engine
module Steal_spec = Rader_runtime.Steal_spec
module Sp_plus = Rader_core.Sp_plus
module Report = Rader_core.Report
module Demos = Rader_benchsuite.Demos

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let sock_counter = ref 0

let fresh_addr () =
  incr sock_counter;
  Server.Unix_path
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "rader-test-%d-%d.sock" (Unix.getpid ()) !sock_counter))

let sub ?(kind = Proto.Check) ?(scale = 1.0) ?(seed = 0) ?(spec = "all")
    ?(density = 0.5) ?max_events ?deadline_s ?(prune = true) program =
  { Proto.kind; program; scale; seed; spec; density; max_events; deadline_s;
    prune }

(* The one-shot ground truth: what `rader check PROG -s all` computes. *)
let direct_check name =
  let prog =
    match Demos.resolve ~seed:0 ~scale:1.0 name with
    | Ok p -> p
    | Error e -> failwith e
  in
  let eng = Engine.create ~spec:(Steal_spec.all ()) () in
  let det = Sp_plus.attach eng in
  match Engine.run_result eng prog with
  | Ok v -> (v, List.map Report.to_string (Sp_plus.races det))
  | Error _ -> failwith "direct run faulted"

let connect addr =
  match Client.connect addr with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let submit_ok ?retries c s =
  match Client.submit ?retries c s with
  | Ok o -> o
  | Error e -> Alcotest.failf "submit transport error: %s" e

let verdict_of = function
  | Client.Verdict v -> v
  | Client.Fault m -> Alcotest.failf "unexpected Internal_fault: %s" m
  | Client.Rejected e -> Alcotest.failf "unexpected Proto_error %d" e.Proto.code
  | Client.Shed -> Alcotest.fail "unexpected shed"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Extract "key":INT from the (flat-keyed) health JSON. *)
let json_int json key =
  let pat = Printf.sprintf "\"%s\":" key in
  let nh = String.length json and np = String.length pat in
  let rec find i =
    if i + np > nh then Alcotest.failf "health JSON lacks %s: %s" key json
    else if String.sub json i np = pat then i + np
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while
    !stop < nh && (match json.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
  do
    incr stop
  done;
  int_of_string (String.sub json start (!stop - start))

let wait_for ?(timeout_s = 5.0) pred what =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout_s then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let races_list = Alcotest.(list string)

(* ------------------------------------------------------------------ *)
(* Parity + cache                                                      *)
(* ------------------------------------------------------------------ *)

let test_parity_and_cache () =
  let t = Server.start (Server.default_config ~addr:(fresh_addr ())) in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t))
    (fun () ->
      let c = connect (Server.bound_addr t) in
      let exp_res, exp_races = direct_check "fig1-buggy" in
      (* racy fixture: byte-identical race reports, same program result *)
      let v = verdict_of (submit_ok c (sub "fig1-buggy")) in
      Alcotest.(check bool) "racy status" true (v.Proto.status = Proto.Races);
      Alcotest.(check races_list) "racy reports" exp_races v.Proto.races;
      Alcotest.(check (option int)) "program result" (Some exp_res)
        v.Proto.v_result;
      Alcotest.(check bool) "first hit not cached" false v.Proto.cached;
      (* clean fixture *)
      let _, fixed_races = direct_check "fig1-fixed" in
      Alcotest.(check races_list) "fixed is clean one-shot" [] fixed_races;
      let v2 = verdict_of (submit_ok c (sub "fig1-fixed")) in
      Alcotest.(check bool) "clean status" true (v2.Proto.status = Proto.Clean);
      Alcotest.(check races_list) "clean reports" [] v2.Proto.races;
      (* resubmit: served from cache, verdict unchanged *)
      let v3 = verdict_of (submit_ok c (sub "fig1-buggy")) in
      Alcotest.(check bool) "second hit cached" true v3.Proto.cached;
      Alcotest.(check races_list) "cached reports identical" exp_races
        v3.Proto.races;
      (* health reflects it *)
      (match Client.health c with
      | Ok json ->
          Alcotest.(check int) "cache served" 1 (json_int json "cache_served")
      | Error e -> Alcotest.failf "health: %s" e);
      (* unknown program and bad spec come back as structured errors *)
      (match submit_ok c (sub "no-such-program") with
      | Client.Rejected e ->
          Alcotest.(check int) "unknown program code" Proto.err_unknown_program
            e.Proto.code
      | _ -> Alcotest.fail "unknown program not rejected");
      (match submit_ok c (sub ~spec:"bogus(" "fig1-buggy") with
      | Client.Rejected e ->
          Alcotest.(check int) "bad spec code" Proto.err_bad_spec e.Proto.code
      | _ -> Alcotest.fail "bad spec not rejected");
      Client.close c)

(* A random spec whose density is no probability is a bad spec, answered
   as such by the worker that parses it — which survives. *)
let test_bad_density () =
  let t = Server.start (Server.default_config ~addr:(fresh_addr ())) in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t))
    (fun () ->
      let c = connect (Server.bound_addr t) in
      List.iter
        (fun density ->
          match submit_ok c (sub ~spec:"random" ~density "fib") with
          | Client.Rejected e ->
              Alcotest.(check int)
                (Printf.sprintf "density %g: bad spec code" density)
                Proto.err_bad_spec e.Proto.code
          | _ -> Alcotest.failf "density %g not rejected" density)
        [ 2.0; -0.5; Float.nan; Float.infinity ];
      let v = verdict_of (submit_ok c (sub ~spec:"random" ~density:0.5 "fig1-fixed")) in
      Alcotest.(check bool) "still serving verdicts" true (v.Proto.status = Proto.Clean);
      (match Client.health c with
      | Ok json ->
          Alcotest.(check int) "no fault" 0 (json_int json "faults");
          Alcotest.(check int) "no worker restarted" 0 (json_int json "restarts")
      | Error e -> Alcotest.failf "health: %s" e);
      Client.close c)

(* Inputs are built before the engine starts, outside every budget: a
   scale that is not a finite number in (0, 16] is a bad field, answered
   before the program is resolved, and no worker faults. *)
let test_bad_scale () =
  let t = Server.start (Server.default_config ~addr:(fresh_addr ())) in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t))
    (fun () ->
      let c = connect (Server.bound_addr t) in
      List.iter
        (fun program ->
          List.iter
            (fun scale ->
              match submit_ok c (sub ~scale program) with
              | Client.Rejected e ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s at scale %g: bad field code" program scale)
                    Proto.err_bad_field e.Proto.code
              | _ -> Alcotest.failf "%s at scale %g not rejected" program scale)
            [ Float.nan; Float.infinity; 0.0; -1.0; 1e15 ])
        [ "fib"; "collision" ];
      let v = verdict_of (submit_ok c (sub "fig1-fixed")) in
      Alcotest.(check bool) "still serving verdicts" true (v.Proto.status = Proto.Clean);
      (match Client.health c with
      | Ok json ->
          Alcotest.(check int) "no fault" 0 (json_int json "faults");
          Alcotest.(check int) "no worker restarted" 0 (json_int json "restarts")
      | Error e -> Alcotest.failf "health: %s" e);
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Quotas                                                              *)
(* ------------------------------------------------------------------ *)

let test_quota_partial () =
  let t = Server.start (Server.default_config ~addr:(fresh_addr ())) in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t))
    (fun () ->
      let c = connect (Server.bound_addr t) in
      (* starved event budget: over-budget runs degrade to Partial *)
      let v = verdict_of (submit_ok c (sub ~max_events:1 "wordcount")) in
      Alcotest.(check bool) "event-budget partial" true
        (v.Proto.status = Proto.Partial);
      Alcotest.(check bool) "failure names the budget class" true
        (List.exists (fun (cls, _) -> contains cls "budget") v.Proto.failures);
      (* an already-expired deadline is charged at dispatch, not run *)
      let v2 =
        verdict_of (submit_ok c (sub ~deadline_s:(-1.0) "fig1-buggy"))
      in
      Alcotest.(check bool) "expired-deadline partial" true
        (v2.Proto.status = Proto.Partial);
      Alcotest.(check bool) "deadline diagnostic" true
        (List.exists (fun (_, msg) -> contains msg "deadline") v2.Proto.failures);
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Backpressure                                                        *)
(* ------------------------------------------------------------------ *)

let test_backpressure_sheds () =
  let cfg =
    {
      (Server.default_config ~addr:(fresh_addr ())) with
      Server.workers = 1;
      queue_depth = 1;
      retry_after_ms = 10;
    }
  in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t))
    (fun () ->
      (* 4 simultaneous ~800ms checks against 1 worker + queue depth 1:
         at least one must be answered Retry_after; with retries:0 the
         client gives up and records the shed. Nothing goes silent. *)
      let r =
        Load.run ~retries:0 ~addr:(Server.bound_addr t) ~clients:4
          ~requests_per_client:1
          ~make:(fun i -> sub ~scale:2.0 ~seed:i "minimax")
          ()
      in
      Alcotest.(check int) "every request answered" r.Load.tally.Load.sent
        (Load.answered r.Load.tally);
      Alcotest.(check bool) "overload sheds" true (r.Load.tally.Load.sheds > 0);
      Alcotest.(check bool) "some requests complete" true
        (r.Load.tally.Load.verdicts > 0);
      Alcotest.(check int) "no transport errors" 0
        r.Load.tally.Load.transport_errors)

(* ------------------------------------------------------------------ *)
(* Crash isolation + supervision                                       *)
(* ------------------------------------------------------------------ *)

let test_crash_isolation_respawn () =
  let cfg =
    {
      (Server.default_config ~addr:(fresh_addr ())) with
      Server.workers = 1;
      restart_budget = 100;
      restart_window_s = 3600.0;
      chaos_cfg =
        Some { Server.crash_rate = 1.0; stall_rate = 0.0; chaos_seed = 7 };
    }
  in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t))
    (fun () ->
      let c = connect (Server.bound_addr t) in
      (* every request crashes its worker; each must still be answered
         with a structured Internal_fault, and the supervisor must have
         respawned the worker before the next one is served *)
      for i = 1 to 3 do
        (match submit_ok c (sub ~seed:i "fig1-buggy") with
        | Client.Fault msg ->
            Alcotest.(check bool) "fault carries a message" true
              (String.length msg > 0)
        | _ -> Alcotest.failf "request %d not answered with a fault" i);
        wait_for
          (fun () ->
            let j = Server.health_json t in
            json_int j "restarts" >= i && json_int j "live" = 1)
          (Printf.sprintf "respawn %d" i)
      done;
      let j = Server.health_json t in
      Alcotest.(check int) "three respawns" 3 (json_int j "restarts");
      Alcotest.(check bool) "pool not degraded" true
        (not (contains j "\"degraded\":true"));
      Client.close c)

let test_restart_budget_degrades () =
  let cfg =
    {
      (Server.default_config ~addr:(fresh_addr ())) with
      Server.workers = 1;
      restart_budget = 0;
      restart_window_s = 3600.0;
      retry_after_ms = 10;
      chaos_cfg =
        Some { Server.crash_rate = 1.0; stall_rate = 0.0; chaos_seed = 7 };
    }
  in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t))
    (fun () ->
      let c = connect (Server.bound_addr t) in
      (match submit_ok c (sub "fig1-buggy") with
      | Client.Fault _ -> ()
      | _ -> Alcotest.fail "first request should fault");
      (* budget 0: no respawn allowed — the pool must degrade to
         shedding rather than loop on the hot fault *)
      wait_for
        (fun () -> contains (Server.health_json t) "\"degraded\":true")
        "pool degradation";
      (match submit_ok ~retries:0 c (sub ~seed:2 "fig1-buggy") with
      | Client.Shed -> ()
      | _ -> Alcotest.fail "degraded pool should shed");
      let j = Server.health_json t in
      Alcotest.(check int) "no live workers" 0 (json_int j "live");
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Graceful drain                                                      *)
(* ------------------------------------------------------------------ *)

let test_graceful_drain () =
  let addr = fresh_addr () in
  let t = Server.start (Server.default_config ~addr) in
  let c = connect (Server.bound_addr t) in
  ignore (verdict_of (submit_ok c (sub "fig1-buggy")));
  (* a Shutdown request triggers the same drain as SIGTERM *)
  (match Client.shutdown c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "shutdown: %s" e);
  let final = Server.wait t in
  Alcotest.(check bool) "final flush is draining" true
    (contains final "\"draining\":true");
  Alcotest.(check int) "all answered" (json_int final "admitted")
    (json_int final "answered");
  (* the listener is gone: unix socket unlinked, connects refused *)
  (match addr with
  | Server.Unix_path p ->
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists p)
  | Server.Tcp _ -> ());
  (match Client.connect addr with
  | Ok c2 ->
      Client.close c2;
      Alcotest.fail "connect succeeded after drain"
  | Error _ -> ());
  (* a second stop on a drained server is a no-op, not a hang *)
  ignore (Server.stop t);
  Client.close c

(* ------------------------------------------------------------------ *)
(* Hostile frames against a live server                                *)
(* ------------------------------------------------------------------ *)

let test_malformed_frames_live () =
  let t = Server.start (Server.default_config ~addr:(fresh_addr ())) in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t))
    (fun () ->
      let c = connect (Server.bound_addr t) in
      let fd = Client.fd c in
      (* frame-valid garbage (bad version byte): structured Proto_error,
         and the connection survives at the frame boundary *)
      let body = Proto.encode_request ~id:5 Proto.Health in
      let bad = Bytes.of_string body in
      Bytes.set bad 0 '\xff';
      Proto.send fd (Bytes.to_string bad);
      (match Proto.recv fd with
      | Ok reply -> (
          match Proto.decode_response reply with
          | Ok (_, Proto.Proto_error e) ->
              Alcotest.(check int) "bad version answered" Proto.err_bad_version
                e.Proto.code
          | _ -> Alcotest.fail "expected Proto_error")
      | Error _ -> Alcotest.fail "no reply to frame-valid garbage");
      (* same connection still serves valid requests *)
      (match Client.health c with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "conn dead after recoverable garbage: %s" e);
      (* oversized length prefix: error + close, daemon unharmed *)
      ignore (Unix.write fd (Bytes.of_string "\x7f\xff\xff\xff") 0 4);
      (match Proto.recv fd with
      | Ok reply -> (
          match Proto.decode_response reply with
          | Ok (_, Proto.Proto_error _) -> ()
          | _ -> Alcotest.fail "expected Proto_error for oversized prefix")
      | Error _ -> (* clean close is also acceptable *) ());
      Client.close c;
      (* mid-request disconnect: promise a frame, send half, vanish *)
      let c2 = connect (Server.bound_addr t) in
      ignore
        (Unix.write (Client.fd c2) (Bytes.of_string "\x00\x00\x00\x40ab") 0 6);
      Client.close c2;
      (* the daemon shrugs all of it off and keeps serving *)
      let c3 = connect (Server.bound_addr t) in
      let v = verdict_of (submit_ok c3 (sub "fig1-fixed")) in
      Alcotest.(check bool) "still serving verdicts" true
        (v.Proto.status = Proto.Clean);
      Client.close c3)

(* ------------------------------------------------------------------ *)
(* The acceptance run: chaos at 10% on every axis                      *)
(* ------------------------------------------------------------------ *)

let test_chaos_acceptance () =
  let cfg =
    {
      (Server.default_config ~addr:(fresh_addr ())) with
      Server.workers = 2;
      queue_depth = 64;
      restart_budget = 10_000;
      restart_window_s = 3600.0;
      retry_after_ms = 5;
      chaos_cfg =
        Some { Server.crash_rate = 0.1; stall_rate = 0.1; chaos_seed = 1337 };
    }
  in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t))
    (fun () ->
      (* 500 requests from 4 clients; 10% of workers crash mid-request,
         10% stall past their deadline, and 10% of requests are preceded
         by a malformed frame. Distinct seeds defeat the verdict cache so
         every request actually reaches a worker. *)
      let r =
        Load.run ~seed:99 ~malformed_rate:0.1 ~retries:8
          ~addr:(Server.bound_addr t) ~clients:4 ~requests_per_client:125
          ~make:(fun i -> sub ~seed:i "fig1-buggy")
          ()
      in
      let tally = r.Load.tally in
      Alcotest.(check int) "500 sent" 500 tally.Load.sent;
      Alcotest.(check int) "every request answered" 500 (Load.answered tally);
      Alcotest.(check int) "no transport errors" 0 tally.Load.transport_errors;
      (* each chaos axis demonstrably fired *)
      Alcotest.(check bool) "crashes fired" true (tally.Load.faults > 0);
      Alcotest.(check bool) "stalls fired" true (tally.Load.partials > 0);
      Alcotest.(check bool) "malformed frames fired" true
        (tally.Load.malformed_sent > 0);
      Alcotest.(check bool) "most requests still complete" true
        (tally.Load.verdicts > 250);
      (* the daemon never exited: it is still answering, its pool is
         live, and the supervisor really did respawn crashed workers *)
      let j = Server.health_json t in
      Alcotest.(check bool) "workers respawned" true (json_int j "restarts" > 0);
      Alcotest.(check bool) "pool alive" true (json_int j "live" > 0);
      Alcotest.(check bool) "not degraded" true
        (not (contains j "\"degraded\":true"));
      (* verdict parity under chaos: keep probing (fresh seeds dodge the
         cache; chaos fates are per-job) until a complete verdict lands,
         then demand byte-identical race reports vs the one-shot check *)
      let c = connect (Server.bound_addr t) in
      let probe name =
        let rec go i =
          if i >= 50 then Alcotest.failf "no complete verdict for %s" name
          else
            match submit_ok ~retries:8 c (sub ~seed:(10_000 + i) name) with
            | Client.Verdict v when v.Proto.status <> Proto.Partial -> v
            | _ -> go (i + 1)
        in
        go 0
      in
      let exp_res, exp_races = direct_check "fig1-buggy" in
      let v = probe "fig1-buggy" in
      Alcotest.(check races_list) "racy verdict unchanged under chaos"
        exp_races v.Proto.races;
      Alcotest.(check (option int)) "result unchanged under chaos"
        (Some exp_res) v.Proto.v_result;
      let v2 = probe "fig1-fixed" in
      Alcotest.(check bool) "clean verdict unchanged under chaos" true
        (v2.Proto.status = Proto.Clean);
      Alcotest.(check races_list) "no races under chaos" [] v2.Proto.races;
      Client.close c)

let () =
  Alcotest.run "rader serve"
    [
      ( "service",
        [
          Alcotest.test_case "verdict parity + cache" `Quick
            test_parity_and_cache;
          Alcotest.test_case "quotas degrade to partial" `Quick
            test_quota_partial;
          Alcotest.test_case "backpressure sheds, never hangs" `Quick
            test_backpressure_sheds;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "crash isolation + respawn" `Quick
            test_crash_isolation_respawn;
          Alcotest.test_case "restart budget degrades pool" `Quick
            test_restart_budget_degrades;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "hostile frames on a live server" `Quick
            test_malformed_frames_live;
          Alcotest.test_case "bad density is a bad spec" `Quick test_bad_density;
          Alcotest.test_case "bad scale is a bad field" `Quick test_bad_scale;
          Alcotest.test_case "chaos acceptance: 500 requests" `Quick
            test_chaos_acceptance;
        ] );
    ]
