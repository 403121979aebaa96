(** Wire protocol for [rader serve] / [rader submit].

    Frames are a u32 big-endian body length (at most {!max_frame}) followed
    by the body: [u8 version | u8 tag | u32 request id | fields]. Strings
    are u32-length-prefixed bytes, floats are IEEE-754 bits big-endian,
    options are a u8 discriminant then the value.

    Request tags: 1 Submit, 2 Health, 3 Shutdown. Response tags: 129
    Verdict, 130 Retry_after, 131 Internal_fault, 132 Health_report,
    133 Proto_error, 134 Bye.

    Both decoders are {e total}: any malformed body — wrong version,
    unknown tag, truncated field, trailing bytes, absurd lengths — comes
    back as [Error err] with a stable {!err} code, never an exception, so
    a hostile or corrupted client cannot crash the daemon. *)

val version : int

(** Hard cap on body size (1 MiB): enforced before allocation on receive
    and on send. *)
val max_frame : int

type err = { code : int; msg : string }

val err_bad_length : int
val err_bad_version : int
val err_bad_tag : int
val err_truncated : int
val err_trailing : int
val err_bad_field : int

(** Request-level (not framing-level) errors the server can answer. *)

val err_unknown_program : int

val err_bad_spec : int
val err_draining : int

type check_kind =
  | Check  (** one run under one steal spec, SP+ attached *)
  | Coverage  (** the §7 exhaustive sweep *)
  | Lint  (** static reducer-misuse lint — pure tree query, cacheable *)
  | Verify
      (** symbolic whole-family verification with witness replays —
          deterministic in (program, scale), so perfectly cacheable *)

type submit = {
  kind : check_kind;
  program : string;  (** registry name, see [Rader_benchsuite.Demos] *)
  scale : float;
  seed : int;
  spec : string;  (** steal spec, [Steal_spec.parse] syntax; check only *)
  density : float;
  max_events : int option;  (** per-run event budget; server caps it *)
  deadline_s : float option;  (** relative budget in s; server caps it *)
  prune : bool;  (** coverage only *)
}

type request = Submit of submit | Health | Shutdown

(** A verdict's status is [Diag.status], re-exported with its
    constructors; [Diag.exit_code] maps it to [rader submit]'s exit code. *)
type status = Rader_core.Diag.status =
  | Clean  (** analysis complete, no races — CLI exit 0 *)
  | Races  (** races (or lint findings) — CLI exit 1 *)
  | Partial  (** contained failure / budget blowout — CLI exit 3 *)

type verdict = {
  status : status;
  cached : bool;  (** served from the verdict cache *)
  v_result : int option;  (** program result, when the run finished *)
  n_run : int;  (** specs attempted (coverage); 1 for check/lint *)
  n_specs : int;  (** spec family size (coverage); 1 otherwise *)
  races : string list;  (** rendered race reports / lint findings *)
  failures : (string * string) list;
      (** (failure class, rendered diagnostic) for every contained
          failure; non-empty iff [status = Partial] *)
}

type response =
  | Verdict of verdict
  | Retry_after of int  (** shed: retry after this many milliseconds *)
  | Internal_fault of string  (** worker poisoned while serving this *)
  | Health_report of string  (** JSON *)
  | Proto_error of err
  | Bye

val encode_request : id:int -> request -> string
val encode_response : id:int -> response -> string
val decode_request : string -> (int * request, err) result
val decode_response : string -> (int * response, err) result

(** [send fd body] writes the length prefix and [body] fully.
    @raise Invalid_argument if [body] exceeds {!max_frame}; [Unix_error]
    surfaces I/O failures. *)
val send : Unix.file_descr -> string -> unit

(** [recv fd] reads one frame body. [`Eof] is a clean close at a frame
    boundary; [`Err] covers oversized/zero length prefixes and mid-frame
    disconnects. Never raises on malformed input (only on [Unix_error]). *)
val recv : Unix.file_descr -> (string, [ `Eof | `Err of err ]) result
