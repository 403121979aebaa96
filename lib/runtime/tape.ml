(* The recorded-run tape: one int per event of a serial execution.

   With [~record:true] the engine appends one entry per event to a flat
   int log ([Engine.tape]); every consumer reads it through
   [Rader_core.Trace]'s decoder. An entry stores only what the decoder
   cannot recount — frame, strand, region and spawn ids all follow from
   the order of the entries — as its tag in the low three bits and its
   argument above them (so an entry without an argument is its tag):

   - [enter]: a frame is entered; the argument packs the frame kind, the
     spawned flag and, for a view-aware frame, its reducer;
   - [return]: the innermost frame returns; the argument is 1 if it was
     spawned and its continuation is stolen. A spawned frame's entry waits
     for the steal decision, so the decoder knows, before the steal's
     merges, that the continuation comes after them;
   - [sync]: the innermost frame syncs, explicitly or before a user frame
     returns; its merges precede it;
   - [merge]: the innermost frame's two topmost regions merge; the entries
     of the reducers' merge callbacks follow, up to the next [merge],
     [sync] or [steal];
   - [steal]: a stolen continuation opens a fresh region, ending the
     steal's merges;
   - [access]: a read or write; the argument packs the location and the
     write flag;
   - [reducer_read]: a reducer-read; the argument is the reducer. *)

let enter = 0
let return = 1
let sync = 2
let merge = 3
let steal = 4
let access = 5
let reducer_read = 6
let[@inline] entry tag arg = (arg lsl 3) lor tag
let[@inline] tag e = e land 7
let[@inline] arg e = e asr 3

let kind_code = function
  | Tool.User_fn -> 0
  | Tool.Update_fn -> 1
  | Tool.Reduce_fn -> 2
  | Tool.Identity_fn -> 3

let[@inline] enter_entry ~kind ~spawned ~reducer =
  entry enter ((reducer lsl 3) lor (if spawned then 4 else 0) lor kind_code kind)

let enter_kind a =
  match a land 3 with
  | 0 -> Tool.User_fn
  | 1 -> Tool.Update_fn
  | 2 -> Tool.Reduce_fn
  | _ -> Tool.Identity_fn

let enter_spawned a = a land 4 <> 0
let enter_reducer a = a asr 3
let[@inline] access_entry ~loc ~write = entry access ((loc lsl 1) lor Bool.to_int write)
let access_loc a = a asr 1
let access_write a = a land 1 = 1
