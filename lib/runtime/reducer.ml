type 'v monoid = {
  name : string;
  identity : Engine.ctx -> 'v;
  reduce : Engine.ctx -> 'v -> 'v -> 'v;
}

type 'v law_check = {
  lc_equal : 'v -> 'v -> bool;
  lc_copy : 'v -> 'v;
  lc_samples : int;
}

(* Serial view storage: a stack of (region id, view) pairs in the engine's
   region-stack order. Region ids never decrease along that stack, views
   are created only for the innermost open region and removed only when
   that region merges into the one below it, so the ids here strictly
   increase and the current region's view, if any, is on top: a lookup
   compares one id, a merge folds the top two entries, nothing is boxed
   and memory is O(live regions). *)
type 'v store = {
  mutable ids : int array;
  mutable views : 'v array; (* same capacity as [ids] *)
  mutable n : int;
}

let[@inline] store_top_is s region = s.n > 0 && s.ids.(s.n - 1) = region

let store_push s region v =
  assert (s.n = 0 || s.ids.(s.n - 1) < region);
  if s.n = Array.length s.views then begin
    let cap = max 4 (2 * s.n) in
    let ids = Array.make cap 0 and views = Array.make cap v in
    Array.blit s.ids 0 ids 0 s.n;
    Array.blit s.views 0 views 0 s.n;
    s.ids <- ids;
    s.views <- views
  end;
  s.ids.(s.n) <- region;
  s.views.(s.n) <- v;
  s.n <- s.n + 1

let store_set s region v =
  if store_top_is s region then s.views.(s.n - 1) <- v
  else store_push s region v

type 'v t = {
  rid : int;
  monoid : 'v monoid;
  views : 'v store;
  creation_region : int;
}

(* Sampled monoid-contract self-check. The monoid operations are invoked
   directly (no view-aware aux frame) on [lc_copy]-copies, so the check
   neither perturbs the strand/dag structure the detectors analyze nor
   mutates live views; monoids whose operations touch instrumented memory
   should only enable it with a copy that allocates fresh cells.
   Violations are recorded on the engine — never raised — and surface
   through [Engine.run_result] as [Fault.Monoid_contract]. *)
let report_violation ctx monoid law detail =
  let eng = Engine.engine ctx in
  Engine.report_contract_violation eng
    {
      Fault.cv_monoid = monoid.name;
      cv_law = law;
      cv_region = Engine.current_region ctx;
      cv_origin = Engine.failure_origin eng;
      cv_detail = detail;
    }

let check_identity_laws ctx monoid lc v =
  let identity () = monoid.identity ctx in
  let reduce a b = monoid.reduce ctx a b in
  if not (lc.lc_equal (reduce (identity ()) (lc.lc_copy v)) (lc.lc_copy v)) then
    report_violation ctx monoid Fault.Left_identity
      "reduce(identity, v) differs from v on an observed view";
  if not (lc.lc_equal (reduce (lc.lc_copy v) (identity ())) (lc.lc_copy v)) then
    report_violation ctx monoid Fault.Right_identity
      "reduce(v, identity) differs from v on an observed view"

(* Associativity on the two observed views [a] (surviving) and [b]
   (dominated), with a ⊗ b itself as the third sample: compare
   ((a ⊗ b) ⊗ c) with (a ⊗ (b ⊗ c)) where c = a ⊗ b. *)
let check_associativity ctx monoid lc a b =
  let reduce x y = monoid.reduce ctx x y in
  let c () = reduce (lc.lc_copy a) (lc.lc_copy b) in
  let lhs = reduce (reduce (lc.lc_copy a) (lc.lc_copy b)) (c ()) in
  let rhs = reduce (lc.lc_copy a) (reduce (lc.lc_copy b) (c ())) in
  if not (lc.lc_equal lhs rhs) then
    report_violation ctx monoid Fault.Associativity
      "((a ⊗ b) ⊗ c) differs from (a ⊗ (b ⊗ c)) on observed views \
       (c = a ⊗ b)"

(* Online the regions themselves own the view tables (they are
   created/merged/discarded by the work-stealing runtime, which also
   guarantees single-owner access), so reads and writes route through the
   engine's online hooks with an [Obj.t]-erased payload: every entry under
   a reducer's id is written and read back only by that reducer's own
   closures, at the one type ['v]. *)
let online_find ctx rid region =
  match Engine.online_view_find ctx ~region ~reducer:rid with
  | None -> None
  | Some o -> Some (Obj.obj o)

let online_set ctx rid region v =
  Engine.online_view_set ctx ~region ~reducer:rid (Obj.repr v)

(* Auxiliary-frame bodies, passed to [Engine.run_aux_frame] with their
   argument so that no closure is built per call. *)
let run_identity c m = m.identity c
let run_reduce c (m, v_into, v_from) = m.reduce c v_into v_from

let create ctx ?self_check monoid ~init =
  let eng = Engine.engine ctx in
  let views = { ids = [||]; views = [||]; n = 0 } in
  let samples_left =
    ref (match self_check with None -> 0 | Some lc -> max 0 lc.lc_samples)
  in
  (* The merge closure needs the reducer's id for aux-frame provenance, but
     the id is only assigned by [register_reducer] below; merges run only
     during the computation, long after the slot is filled. *)
  let rid_slot = ref (-1) in
  let combine mctx v_into v_from =
    (match self_check with
    | Some lc when !samples_left > 0 ->
        decr samples_left;
        check_identity_laws mctx monoid lc v_from;
        check_associativity mctx monoid lc v_into v_from
    | _ -> ());
    Engine.run_aux_frame ~reducer:!rid_slot mctx Tool.Reduce_fn run_reduce
      (monoid, v_into, v_from)
  in
  (* A surviving region that never materialized a view takes [v_from]
     as is: its lazy identity absorbs it without running user code. *)
  let merge mctx ~from_region ~into_region =
    if Engine.is_online mctx then
      (* The dying region's whole view table is discarded by the runtime
         after its merges, so nothing is removed here. *)
      match online_find mctx !rid_slot from_region with
      | None -> ()
      | Some v_from ->
          online_set mctx !rid_slot into_region
            (match online_find mctx !rid_slot into_region with
            | None -> v_from
            | Some v_into -> combine mctx v_into v_from)
    else if store_top_is views from_region then begin
      let v_from = views.views.(views.n - 1) in
      views.n <- views.n - 1;
      store_set views into_region
        (if store_top_is views into_region then
           combine mctx views.views.(views.n - 1) v_from
         else v_from)
    end
  in
  let rid = Engine.register_reducer eng ~merge in
  rid_slot := rid;
  Engine.emit_reducer_read ctx rid;
  (match self_check with
  | Some lc when lc.lc_samples > 0 -> check_identity_laws ctx monoid lc init
  | _ -> ());
  let creation_region = Engine.current_region ctx in
  if Engine.is_online ctx then online_set ctx rid creation_region init
  else store_push views creation_region init;
  { rid; monoid; views; creation_region }

let set_view ctx r v =
  let region = Engine.current_region ctx in
  if Engine.is_online ctx then online_set ctx r.rid region v
  else store_set r.views region v

let materialize ctx r =
  let v =
    Engine.run_aux_frame ~reducer:r.rid ctx Tool.Identity_fn run_identity
      r.monoid
  in
  set_view ctx r v;
  v

(* The view of the current region, materializing an identity view on
   demand (Cilk creates views lazily at the first access after a steal). *)
let current_view ctx r =
  let region = Engine.current_region ctx in
  if Engine.is_online ctx then
    match online_find ctx r.rid region with
    | Some v -> v
    | None -> materialize ctx r
  else if store_top_is r.views region then r.views.views.(r.views.n - 1)
  else materialize ctx r

let get_value ctx r =
  Engine.emit_reducer_read ctx r.rid;
  current_view ctx r

let set_value ctx r v =
  Engine.emit_reducer_read ctx r.rid;
  set_view ctx r v

let update ctx r f =
  let v = current_view ctx r in
  set_view ctx r (Engine.run_aux_frame ~reducer:r.rid ctx Tool.Update_fn f v)

let id r = r.rid
let name r = r.monoid.name

(* The creation region's view is no longer on top once a later region
   opened, so scan the stack. *)
let peek r =
  let s = r.views in
  let rec find i =
    if i < 0 then None
    else if s.ids.(i) = r.creation_region then Some s.views.(i)
    else find (i - 1)
  in
  find (s.n - 1)

let n_views r = r.views.n
