type frame_kind = Frame_kind.t = User_fn | Update_fn | Reduce_fn | Identity_fn

type hooks = {
  on_frame_enter : frame:int -> parent:int -> spawned:bool -> kind:frame_kind -> unit;
  on_frame_return : frame:int -> parent:int -> spawned:bool -> kind:frame_kind -> unit;
  on_sync : frame:int -> unit;
  on_steal : frame:int -> region:int -> unit;
  on_reduce : frame:int -> into_region:int -> from_region:int -> unit;
  on_read : frame:int -> loc:int -> view_aware:bool -> unit;
  on_write : frame:int -> loc:int -> view_aware:bool -> unit;
  on_reducer_read : frame:int -> reducer:int -> unit;
}

let hooks_null =
  {
    on_frame_enter = (fun ~frame:_ ~parent:_ ~spawned:_ ~kind:_ -> ());
    on_frame_return = (fun ~frame:_ ~parent:_ ~spawned:_ ~kind:_ -> ());
    on_sync = (fun ~frame:_ -> ());
    on_steal = (fun ~frame:_ ~region:_ -> ());
    on_reduce = (fun ~frame:_ ~into_region:_ ~from_region:_ -> ());
    on_read = (fun ~frame:_ ~loc:_ ~view_aware:_ -> ());
    on_write = (fun ~frame:_ ~loc:_ ~view_aware:_ -> ());
    on_reducer_read = (fun ~frame:_ ~reducer:_ -> ());
  }

type t =
  | Null
  | Sp_plus of Sp_hot.t
  | Peer_set of Peer_hot.t
  | Extern of hooks

let null = Null
let sp_plus d = Sp_plus d
let peer_set d = Peer_set d
let extern h = Extern h

(* -------- event dispatch --------

   One match per event. The [Sp_plus]/[Peer_set] arms are direct calls
   into the flat detector cores; [Extern] is the escape hatch carrying
   the seed's closure record. *)

let frame_enter t ~frame ~parent ~spawned ~kind =
  match t with
  | Null -> ()
  | Sp_plus d -> Sp_hot.frame_enter d ~frame ~kind
  | Peer_set d -> Peer_hot.frame_enter d ~frame ~spawned ~kind
  | Extern h -> h.on_frame_enter ~frame ~parent ~spawned ~kind

let frame_return t ~frame ~parent ~spawned ~kind =
  match t with
  | Null -> ()
  | Sp_plus d -> Sp_hot.frame_return d ~frame ~spawned
  | Peer_set d -> Peer_hot.frame_return d ~frame ~spawned ~kind
  | Extern h -> h.on_frame_return ~frame ~parent ~spawned ~kind

let sync t ~frame =
  match t with
  | Null -> ()
  | Sp_plus d -> Sp_hot.sync d ~frame
  | Peer_set d -> Peer_hot.sync d ~frame
  | Extern h -> h.on_sync ~frame

let steal t ~frame ~region =
  match t with
  | Null | Peer_set _ -> ()
  | Sp_plus d -> Sp_hot.steal d ~frame ~region
  | Extern h -> h.on_steal ~frame ~region

let reduce t ~frame ~into_region ~from_region =
  match t with
  | Null | Peer_set _ -> ()
  | Sp_plus d -> Sp_hot.reduce d ~frame
  | Extern h -> h.on_reduce ~frame ~into_region ~from_region

let read t ~frame ~loc ~view_aware =
  match t with
  | Null | Peer_set _ -> ()
  | Sp_plus d -> Sp_hot.read d ~frame ~loc ~view_aware
  | Extern h -> h.on_read ~frame ~loc ~view_aware

let write t ~frame ~loc ~view_aware =
  match t with
  | Null | Peer_set _ -> ()
  | Sp_plus d -> Sp_hot.write d ~frame ~loc ~view_aware
  | Extern h -> h.on_write ~frame ~loc ~view_aware

let reducer_read t ~frame ~reducer =
  match t with
  | Null | Sp_plus _ -> ()
  | Peer_set d -> Peer_hot.reducer_read d ~frame ~reducer
  | Extern h -> h.on_reducer_read ~frame ~reducer

(* Span events: the engine only batches when [spans_ok] (never for
   [Extern]), so the [Extern] fallback loop below is defensive — an
   external tool driven directly with a span sees the same per-access
   calls it would have seen unbatched. *)

let read_span t ~frame ~base ~len ~stride ~view_aware =
  match t with
  | Null | Peer_set _ -> ()
  | Sp_plus d -> Sp_hot.read_span d ~frame ~base ~len ~stride ~view_aware
  | Extern h ->
      let loc = ref base in
      for _ = 1 to len do
        h.on_read ~frame ~loc:!loc ~view_aware;
        loc := !loc + stride
      done

let write_span t ~frame ~base ~len ~stride ~view_aware =
  match t with
  | Null | Peer_set _ -> ()
  | Sp_plus d -> Sp_hot.write_span d ~frame ~base ~len ~stride ~view_aware
  | Extern h ->
      let loc = ref base in
      for _ = 1 to len do
        h.on_write ~frame ~loc:!loc ~view_aware;
        loc := !loc + stride
      done

let spans_ok = function
  | Sp_plus _ | Peer_set _ -> true
  | Null | Extern _ -> false

(* The seed's all-closures view of any tool, for code that predates the
   variant (and for the differential dispatch-parity tests, which drive
   the same detector through both paths). *)
let hooks_of t =
  {
    on_frame_enter =
      (fun ~frame ~parent ~spawned ~kind ->
        frame_enter t ~frame ~parent ~spawned ~kind);
    on_frame_return =
      (fun ~frame ~parent ~spawned ~kind ->
        frame_return t ~frame ~parent ~spawned ~kind);
    on_sync = (fun ~frame -> sync t ~frame);
    on_steal = (fun ~frame ~region -> steal t ~frame ~region);
    on_reduce =
      (fun ~frame ~into_region ~from_region ->
        reduce t ~frame ~into_region ~from_region);
    on_read = (fun ~frame ~loc ~view_aware -> read t ~frame ~loc ~view_aware);
    on_write = (fun ~frame ~loc ~view_aware -> write t ~frame ~loc ~view_aware);
    on_reducer_read = (fun ~frame ~reducer -> reducer_read t ~frame ~reducer);
  }

let is_view_aware_kind = Frame_kind.is_view_aware
let frame_kind_name = Frame_kind.name
