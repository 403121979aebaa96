type race_kind = View_read_race | Determinacy_race

type access_kind = Read | Write | Reducer_read

type t = {
  kind : race_kind;
  subject : int;
  subject_label : string;
  first_frame : int;
  first_access : access_kind;
  second_frame : int;
  second_access : access_kind;
  second_strand : int;
  second_view_aware : bool;
  detail : string;
}

let kind_str = function
  | View_read_race -> "view-read race"
  | Determinacy_race -> "determinacy race"

let access_str = function
  | Read -> "read"
  | Write -> "write"
  | Reducer_read -> "reducer-read"

let to_string r =
  Printf.sprintf "%s on %s: %s by frame %d vs %s%s by frame %d (strand %d)%s"
    (kind_str r.kind) r.subject_label
    (access_str r.first_access)
    r.first_frame
    (access_str r.second_access)
    (if r.second_view_aware then " [view-aware]" else "")
    r.second_frame r.second_strand
    (if r.detail = "" then "" else " — " ^ r.detail)

type collector = {
  mutable items : t list; (* reversed *)
  mutable n : int;
  seen : (race_kind * int, unit) Hashtbl.t;
}

let collector () = { items = []; n = 0; seen = Hashtbl.create 16 }

let report c r =
  let key = (r.kind, r.subject) in
  if not (Hashtbl.mem c.seen key) then begin
    Hashtbl.replace c.seen key ();
    c.items <- r :: c.items;
    c.n <- c.n + 1
  end

let clear c =
  c.items <- [];
  c.n <- 0;
  Hashtbl.reset c.seen

let races c = List.rev c.items

let count c = c.n

let racy_subjects c =
  List.sort_uniq compare (List.map (fun r -> r.subject) (races c))
