type frame_kind = User_fn | Update_fn | Reduce_fn | Identity_fn

type t = {
  on_frame_enter : frame:int -> parent:int -> spawned:bool -> kind:frame_kind -> unit;
  on_frame_return : frame:int -> parent:int -> spawned:bool -> kind:frame_kind -> unit;
  on_sync : frame:int -> unit;
  on_steal : frame:int -> region:int -> unit;
  on_reduce : frame:int -> into_region:int -> from_region:int -> unit;
  on_read : frame:int -> loc:int -> view_aware:bool -> unit;
  on_write : frame:int -> loc:int -> view_aware:bool -> unit;
  on_reducer_read : frame:int -> reducer:int -> unit;
}

let null =
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

let is_view_aware_kind = function
  | User_fn -> false
  | Update_fn | Reduce_fn | Identity_fn -> true

let frame_kind_name = function
  | User_fn -> "user"
  | Update_fn -> "update"
  | Reduce_fn -> "reduce"
  | Identity_fn -> "identity"
