(** Growable int arrays.

    {!Dynarr} stores its elements in a polymorphic array, so each write
    goes through the write barrier ([caml_modify]). This one stores ints in
    an [int array]: a push is a bounds test and a plain store. Used for the
    engine's recorded tape and the trace decoder's stacks. *)

type t

(** [create ()] is an empty vector. *)
val create : unit -> t

(** [length t] is the number of elements stored. *)
val length : t -> int

(** [get t i] is element [i]. @raise Invalid_argument if out of bounds. *)
val get : t -> int -> int

(** [push t x] appends [x]. O(1) amortized. *)
val push : t -> int -> unit

(** [pop t] removes and returns the last element.
    @raise Invalid_argument if [t] is empty. *)
val pop : t -> int

(** [top t] is the last element.
    @raise Invalid_argument if [t] is empty. *)
val top : t -> int

(** [clear t] removes all elements and keeps the store. *)
val clear : t -> unit

(** [to_array t] is a fresh array of the elements. *)
val to_array : t -> int array
