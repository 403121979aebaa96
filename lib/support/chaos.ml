module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool
module Steal_spec = Rader_runtime.Steal_spec
module Reducer = Rader_runtime.Reducer
module Cilk = Rader_runtime.Cilk
module Cell = Rader_runtime.Cell
module Diag = Rader_core.Diag
module Report = Rader_core.Report
module Sp_plus = Rader_core.Sp_plus
module Coverage = Rader_core.Coverage

(* A virtualized clock: engine deadlines read it through [Engine.create
   ?clock], so a "worker stalls past its deadline" scenario is a pure
   state change (advance the clock) instead of a wall-clock sleep — the
   Stall perturbation and the serve daemon's stall tests stay
   deterministic and instant. *)
module Vclock = struct
  type t = { mutable now : float }

  let make ~start = { now = start }
  let now t = t.now
  let advance t dt = t.now <- t.now +. dt
  let clock t () = t.now
end

type perturbation =
  | Raise_in_strand of int
  | Raise_in_reduce
  | Raise_in_identity
  | Non_associative_monoid
  | Mutating_identity
  | Invalid_spec
  | Event_budget of int
  | Stall of int
  | Sweep_deadline

let all =
  [
    Raise_in_strand 25;
    Raise_in_reduce;
    Raise_in_identity;
    Non_associative_monoid;
    Mutating_identity;
    Invalid_spec;
    (* low enough that even a tiny program blows it, high enough that the
       engine is mid-run with live frames when it does *)
    Event_budget 10;
    (* stall early enough that every battery program still has events (and
       hence deadline checks) left after the virtual clock jumps *)
    Stall 8;
    Sweep_deadline;
  ]

let name = function
  | Raise_in_strand n -> Printf.sprintf "raise-in-strand(%d)" n
  | Raise_in_reduce -> "raise-in-reduce"
  | Raise_in_identity -> "raise-in-identity"
  | Non_associative_monoid -> "non-associative-monoid"
  | Mutating_identity -> "mutating-identity"
  | Invalid_spec -> "invalid-spec"
  | Event_budget n -> Printf.sprintf "event-budget(%d)" n
  | Stall n -> Printf.sprintf "stall(%d)" n
  | Sweep_deadline -> "sweep-deadline"

type outcome = {
  perturbation : perturbation;
  diag : Diag.failure option;
  races : Report.t list;
  escaped : string option;
}

exception Chaos_injected

(* Run [program] under SP+ through the contained entry point. An engine
   runs one tool, so with a [tick] injector the run's tool is SP+'s record
   with [tick] after SP+ on every frame entry, read and write: the
   detector records each event before the injector gets a chance to
   raise. *)
let contained_run ?tick ?max_events ?deadline ?clock ~spec program =
  let eng = Engine.create ~spec ?max_events ?deadline ?clock () in
  let d = Sp_plus.create eng in
  let sp = Sp_plus.tool d in
  let tool =
    match tick with
    | None -> sp
    | Some tick ->
        {
          sp with
          Tool.on_frame_enter =
            (fun ~frame ~parent ~spawned ~kind ->
              sp.on_frame_enter ~frame ~parent ~spawned ~kind;
              tick ());
          on_read =
            (fun ~frame ~loc ~view_aware ->
              sp.on_read ~frame ~loc ~view_aware;
              tick ());
          on_write =
            (fun ~frame ~loc ~view_aware ->
              sp.on_write ~frame ~loc ~view_aware;
              tick ());
        }
  in
  Engine.set_tool eng tool;
  let verdict = Engine.run_result eng program in
  ((match verdict with Ok _ -> None | Error f -> Some f), Sp_plus.races d)

(* An injector that raises once the event counter reaches [n] — the moral
   equivalent of the program under test dying at its n-th strand/access. *)
let raising_tick n =
  let count = ref 0 in
  fun () ->
    incr count;
    if !count >= n then raise Chaos_injected

(* Prefix [program] with two spawned updates of a reducer over [monoid]
   under the all-steals schedule, so the second update runs in a freshly
   stolen region (forcing Create-Identity) and the sync merges two
   materialized views (forcing Reduce). *)
let with_reducer_prologue ?self_check ~monoid ~init program ctx =
  let r = Reducer.create ctx ?self_check monoid ~init in
  ignore (Cilk.spawn ctx (fun ctx -> Reducer.update ctx r (fun _ v -> v + 3)));
  ignore (Cilk.spawn ctx (fun ctx -> Reducer.update ctx r (fun _ v -> v + 5)));
  Cilk.sync ctx;
  program ctx

let int_check = { Reducer.lc_equal = ( = ); lc_copy = Fun.id; lc_samples = 4 }

(* Two-sided identity 0, but non-associative: a ⊗ b = a + b - ab(a-1)(b-1). *)
let non_associative_monoid =
  {
    Reducer.name = "chaos-non-associative";
    identity = (fun _ -> 0);
    reduce = (fun _ a b -> a + b - (a * b * (a - 1) * (b - 1)));
  }

let run_perturbed p program =
  match p with
  | Raise_in_strand n ->
      let diag, races =
        contained_run ~tick:(raising_tick n) ~spec:(Steal_spec.all ())
          program
      in
      (diag, races)
  | Raise_in_reduce ->
      let monoid =
        {
          Reducer.name = "chaos-raising-reduce";
          identity = (fun _ -> 0);
          reduce = (fun _ _ _ -> raise Chaos_injected);
        }
      in
      contained_run ~spec:(Steal_spec.all ())
        (with_reducer_prologue ~monoid ~init:1 program)
  | Raise_in_identity ->
      let monoid =
        {
          Reducer.name = "chaos-raising-identity";
          identity = (fun _ -> raise Chaos_injected);
          reduce = (fun _ a b -> a + b);
        }
      in
      contained_run ~spec:(Steal_spec.all ())
        (with_reducer_prologue ~monoid ~init:1 program)
  | Non_associative_monoid ->
      contained_run ~spec:(Steal_spec.all ())
        (with_reducer_prologue ~self_check:int_check
           ~monoid:non_associative_monoid ~init:2 program)
  | Mutating_identity ->
      contained_run ~spec:(Steal_spec.all ()) (fun ctx ->
          let shared = Cell.make_in ctx ~label:"chaos-shared" 0 in
          let monoid =
            {
              Reducer.name = "chaos-mutating-identity";
              identity =
                (fun c ->
                  Cell.write c shared 1;
                  0);
              reduce = (fun _ a b -> a + b);
            }
          in
          let r = Reducer.create ctx monoid ~init:0 in
          let watcher = Cilk.spawn ctx (fun ctx -> Cell.read ctx shared) in
          ignore
            (Cilk.spawn ctx (fun ctx ->
                 Reducer.update ctx r (fun _ v -> v + 1)));
          Cilk.sync ctx;
          ignore (Cilk.get ctx watcher);
          program ctx)
  | Invalid_spec ->
      contained_run
        ~spec:(Steal_spec.at_local_indices [ 1_000_003 ])
        program
  | Event_budget n -> contained_run ~max_events:n ~spec:Steal_spec.none program
  | Stall n ->
      (* the worker "sleeps" past its deadline: a virtual clock jumps a
         minute forward at the n-th event, and the engine's quota check
         cancels the run at its next deadline poll — no wall-clock sleep,
         no flakiness *)
      let vc = Vclock.make ~start:1.0e9 in
      let count = ref 0 in
      let tick () =
        incr count;
        if !count = n then Vclock.advance vc 60.0
      in
      contained_run ~tick ~deadline:(1.0e9 +. 30.0)
        ~clock:(Vclock.clock vc) ~spec:Steal_spec.none program
  | Sweep_deadline ->
      (* a deadline already in the past: the sweep must stop before its
         first spec and charge every spec to the deadline *)
      let res = Coverage.exhaustive_check ~deadline:(-1.0) program in
      let diag =
        List.find_map
          (fun (_, f) ->
            match f with Diag.Budget_exceeded _ -> Some f | _ -> None)
          res.Coverage.incomplete
      in
      (diag, res.Coverage.reports)

let run_one p program =
  match run_perturbed p program with
  | diag, races -> { perturbation = p; diag; races; escaped = None }
  | exception e ->
      {
        perturbation = p;
        diag = None;
        races = [];
        escaped = Some (Printexc.to_string e);
      }

let run_all program = List.map (fun p -> run_one p program) all

let ok o =
  o.escaped = None
  &&
  match (o.perturbation, o.diag) with
  | Raise_in_strand _, Some (Diag.User_program_exn _) -> true
  | Raise_in_reduce, Some (Diag.User_program_exn { origin; _ }) ->
      origin.Diag.o_kind = Tool.Reduce_fn
  | Raise_in_identity, Some (Diag.User_program_exn { origin; _ }) ->
      origin.Diag.o_kind = Tool.Identity_fn
  | Non_associative_monoid, Some (Diag.Monoid_contract _) -> true
  | Mutating_identity, None -> o.races <> []
  | Invalid_spec, Some (Diag.Invalid_steal_spec _) -> true
  | Event_budget _, Some (Diag.Budget_exceeded (Diag.Max_events _)) -> true
  | Stall _, Some (Diag.Budget_exceeded (Diag.Deadline _)) -> true
  | Sweep_deadline, Some (Diag.Budget_exceeded (Diag.Deadline _)) -> true
  | _ -> false

let outcome_to_string o =
  let verdict = if ok o then "contained" else "NOT CONTAINED" in
  let detail =
    match (o.escaped, o.diag) with
    | Some e, _ -> "escaped exception: " ^ e
    | None, Some f -> Diag.to_string f
    | None, None ->
        if o.races = [] then "run completed with no diagnostic"
        else Printf.sprintf "%d race(s) reported" (List.length o.races)
  in
  Printf.sprintf "%-24s %-14s %s" (name o.perturbation) verdict detail
