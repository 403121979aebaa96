module Dynarr = Rader_support.Dynarr

type t = int

(* Ranges are stored as (first_id, label, size) and resolved by binary
   search so that allocating a million-slot array costs O(1), not O(n)
   label strings. A size of [-k] is a run of [k] single cells sharing one
   (physically equal) label: a single-cell allocation with the label of
   the run before it, such as a reducer's next identity view, extends the
   run instead of adding an entry. *)
type registry = {
  mutable next : int;
  starts : int Dynarr.t;
  labels : string Dynarr.t;
  sizes : int Dynarr.t;
}

let registry () =
  { next = 0; starts = Dynarr.create (); labels = Dynarr.create (); sizes = Dynarr.create () }

let alloc_range reg ~label n =
  if n <= 0 then invalid_arg "Loc.alloc_range: size must be positive";
  let first = reg.next in
  reg.next <- reg.next + n;
  let last = Dynarr.length reg.sizes - 1 in
  if
    n = 1 && last >= 0
    && Dynarr.get reg.sizes last < 0
    && Dynarr.get reg.labels last == label
  then Dynarr.set reg.sizes last (Dynarr.get reg.sizes last - 1)
  else begin
    Dynarr.push reg.starts first;
    Dynarr.push reg.labels label;
    Dynarr.push reg.sizes (if n = 1 then -1 else n)
  end;
  first

let alloc reg ~label = alloc_range reg ~label 1

(* [cell_label name i] is ["name[i]"] for [i >= 0], written digit by digit:
   a decoded trace labels every cell it touches, and Printf's formatter
   cost more than the rest of the lookup. *)
let cell_label name i =
  let rec digits i = if i < 10 then 1 else 1 + digits (i / 10) in
  let n = String.length name and d = digits i in
  let b = Bytes.create (n + d + 2) in
  Bytes.blit_string name 0 b 0 n;
  Bytes.set b n '[';
  let i = ref i in
  for k = n + d downto n + 1 do
    Bytes.set b k (Char.unsafe_chr (48 + (!i mod 10)));
    i := !i / 10
  done;
  Bytes.set b (n + d + 1) ']';
  Bytes.unsafe_to_string b

let label reg loc =
  if loc < 0 || loc >= reg.next then "?"
  else begin
    (* binary search for the last start <= loc *)
    let lo = ref 0 and hi = ref (Dynarr.length reg.starts - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if Dynarr.get reg.starts mid <= loc then lo := mid else hi := mid - 1
    done;
    let base = Dynarr.get reg.starts !lo in
    let name = Dynarr.get reg.labels !lo in
    if Dynarr.get reg.sizes !lo < 0 then name
    else cell_label name (loc - base)
  end

let count reg = reg.next

let reset reg =
  reg.next <- 0;
  Dynarr.clear reg.starts;
  Dynarr.clear reg.labels;
  Dynarr.clear reg.sizes
