(** Race reports produced by the detectors. *)

type race_kind =
  | View_read_race
      (** two reducer-reads with different peer sets (paper §3); [subject]
          is the reducer id *)
  | Determinacy_race
      (** a write logically parallel with another access to the same
          location (paper §5); [subject] is the location id *)

(** What each endpoint of the race was doing. *)
type access_kind = Read | Write | Reducer_read

type t = {
  kind : race_kind;
  subject : int;  (** location id or reducer id *)
  subject_label : string;
  first_frame : int;  (** frame recorded in the shadow space *)
  first_access : access_kind;
  second_frame : int;  (** frame performing the access that exposed the race *)
  second_access : access_kind;
  second_strand : int;  (** strand executing when the race was detected *)
  second_view_aware : bool;
  detail : string;
}

(** [to_string r] is a one-line human-readable description. *)
val to_string : t -> string

(** [access_str k] — ["read"] / ["write"] / ["reducer-read"]. *)
val access_str : access_kind -> string

(** A per-subject deduplicating collector: like the paper's Rader, each
    racy location/reducer is reported once (the first time). *)
type collector

val collector : unit -> collector

(** [report c r] records [r] unless a race on the same [(kind, subject)]
    was already recorded. *)
val report : collector -> t -> unit

(** [clear c] forgets everything recorded, returning the collector to a
    freshly created state (arena reuse across detector runs). *)
val clear : collector -> unit

(** [races c] is everything recorded, in detection order. *)
val races : collector -> t list

(** [count c] is [List.length (races c)] without the list. *)
val count : collector -> int

(** [racy_subjects c] is the sorted list of distinct racy subject ids. *)
val racy_subjects : collector -> int list
