type t = { mutable data : int array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Intvec: index %d out of bounds [0,%d)" i t.len);
  Array.unsafe_get t.data i

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (if cap = 0 then 16 else 2 * cap) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Intvec.pop: empty";
  t.len <- t.len - 1;
  Array.unsafe_get t.data t.len

let top t =
  if t.len = 0 then invalid_arg "Intvec.top: empty";
  Array.unsafe_get t.data (t.len - 1)

let clear t = t.len <- 0
(* A typed loop, not [Array.sub]: for an array in the major heap the
   runtime's copy initializes each slot through the write barrier. *)
let to_array t =
  let a = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    Array.unsafe_set a i (Array.unsafe_get t.data i)
  done;
  a
