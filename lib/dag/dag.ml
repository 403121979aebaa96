module Dynarr = Rader_support.Dynarr
module Dot = Rader_support.Dot

type strand_kind = User | Update | Reduce | Identity

type strand = {
  id : int;
  frame : int;
  kind : strand_kind;
  view : int;
  label : string;
}

type t = {
  strands : strand Dynarr.t;
  succ : int list Dynarr.t;
  pred : int list Dynarr.t;
}

let create () =
  { strands = Dynarr.create (); succ = Dynarr.create (); pred = Dynarr.create () }

let add_strand t ~frame ~kind ~view ~label =
  let id = Dynarr.length t.strands in
  Dynarr.push t.strands { id; frame; kind; view; label };
  Dynarr.push t.succ [];
  Dynarr.push t.pred [];
  id

let n_strands t = Dynarr.length t.strands

let check_strand t i =
  if i < 0 || i >= n_strands t then invalid_arg "Dag: unknown strand"

let add_edge t u v =
  check_strand t u;
  check_strand t v;
  if u >= v then invalid_arg "Dag.add_edge: edges must follow serial order (u < v)";
  Dynarr.set t.succ u (v :: Dynarr.get t.succ u);
  Dynarr.set t.pred v (u :: Dynarr.get t.pred v)

let strand t i =
  check_strand t i;
  Dynarr.get t.strands i

let succs t i =
  check_strand t i;
  Dynarr.get t.succ i

let preds t i =
  check_strand t i;
  Dynarr.get t.pred i

(* ---------- transitive closure ---------- *)

module Bitset = Rader_support.Bitset

(* desc.(u) = strict descendants of u *)
type closure = { n : int; desc : Bitset.t array }

let closure t =
  let n = n_strands t in
  let desc = Array.init n (fun _ -> Bitset.create n) in
  (* Strand ids are a topological order, so a reverse sweep closes desc. *)
  for u = n - 1 downto 0 do
    List.iter
      (fun v ->
        Bitset.add desc.(u) v;
        Bitset.union_into desc.(u) desc.(v))
      (succs t u)
  done;
  { n; desc }

let check_closure c u =
  if u < 0 || u >= c.n then invalid_arg "Dag: unknown strand"

let precedes c u v =
  check_closure c u;
  check_closure c v;
  Bitset.mem c.desc.(u) v

let parallel c u v =
  check_closure c u;
  check_closure c v;
  u <> v && (not (Bitset.mem c.desc.(u) v)) && not (Bitset.mem c.desc.(v) u)

let is_view_aware = function
  | User -> false
  | Update | Reduce | Identity -> true

let kind_str = function
  | User -> "user"
  | Update -> "update"
  | Reduce -> "reduce"
  | Identity -> "identity"

(* A small palette cycled by view id, for Fig.-5-style rendering. *)
let view_color view =
  if view < 0 then "white"
  else
    let palette =
      [| "lightblue"; "lightsalmon"; "palegreen"; "plum"; "khaki"; "lightcyan"; "mistyrose" |]
    in
    palette.(view mod Array.length palette)

let to_dot t =
  let g = Dot.create "computation" in
  let by_frame = Hashtbl.create 16 in
  for i = 0 to n_strands t - 1 do
    let s = strand t i in
    let id = Printf.sprintf "s%d" i in
    Dot.node g id
      ~label:(Printf.sprintf "%d:%s" i s.label)
      ~attrs:
        [
          ("shape", if is_view_aware s.kind then "box" else "ellipse");
          ("style", "\"filled\"");
          ("fillcolor", Printf.sprintf "\"%s\"" (view_color s.view));
          ("tooltip", Printf.sprintf "\"%s view=%d\"" (kind_str s.kind) s.view);
        ];
    if s.frame >= 0 then begin
      let prev = try Hashtbl.find by_frame s.frame with Not_found -> [] in
      Hashtbl.replace by_frame s.frame (id :: prev)
    end
  done;
  Hashtbl.iter
    (fun frame ids ->
      Dot.subgraph_cluster g (string_of_int frame)
        ~label:(Printf.sprintf "F%d" frame)
        (List.rev ids))
    by_frame;
  for i = 0 to n_strands t - 1 do
    List.iter
      (fun j -> Dot.edge g (Printf.sprintf "s%d" i) (Printf.sprintf "s%d" j) ~attrs:[])
      (succs t i)
  done;
  Dot.render g
