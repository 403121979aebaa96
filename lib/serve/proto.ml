(* Length-prefixed binary wire protocol for the rader serve daemon.

   Frame: u32 big-endian body length (<= max_frame), then the body.
   Body:  u8 version | u8 tag | u32 request id | tag-specific fields.

   The decoder is total: every malformed body — unknown version or tag,
   truncated field, trailing bytes, a string length pointing past the end
   — yields a structured [err], never an exception. The framing layer is
   equally defensive: an oversized or negative length prefix is an error
   before any allocation happens, so a hostile client cannot make the
   server allocate a giant buffer. *)

let version = 1
let max_frame = 1 lsl 20

type err = { code : int; msg : string }

(* error codes — stable, documented in README *)
let err_bad_length = 1
let err_bad_version = 2
let err_bad_tag = 3
let err_truncated = 4
let err_trailing = 5
let err_bad_field = 6
let err_unknown_program = 10
let err_bad_spec = 11
let err_draining = 12

type check_kind = Check | Coverage | Lint | Verify

type submit = {
  kind : check_kind;
  program : string;
  scale : float;
  seed : int;
  spec : string;  (** steal spec, [Steal_spec.parse] syntax; check only *)
  density : float;
  max_events : int option;  (** per-run event budget; server caps it *)
  deadline_s : float option;  (** relative budget in s; server caps it *)
  prune : bool;  (** coverage only *)
}

type request = Submit of submit | Health | Shutdown

type status = Rader_core.Diag.status = Clean | Races | Partial

type verdict = {
  status : status;
  cached : bool;
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

(* ---------- encoding ---------- *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_opt b put = function
  | None -> put_u8 b 0
  | Some v ->
      put_u8 b 1;
      put v

let put_bool b v = put_u8 b (if v then 1 else 0)

let kind_code = function Check -> 0 | Coverage -> 1 | Lint -> 2 | Verify -> 3
let status_code = function Clean -> 0 | Races -> 1 | Partial -> 3

let header b ~tag ~id =
  put_u8 b version;
  put_u8 b tag;
  put_u32 b id

let encode_request ~id req =
  let b = Buffer.create 64 in
  (match req with
  | Submit s ->
      header b ~tag:1 ~id;
      put_u8 b (kind_code s.kind);
      put_str b s.program;
      put_f64 b s.scale;
      put_u32 b s.seed;
      put_str b s.spec;
      put_f64 b s.density;
      put_opt b (fun v -> put_u32 b v) s.max_events;
      put_opt b (fun v -> put_f64 b v) s.deadline_s;
      put_bool b s.prune
  | Health -> header b ~tag:2 ~id
  | Shutdown -> header b ~tag:3 ~id);
  Buffer.contents b

let encode_response ~id resp =
  let b = Buffer.create 64 in
  (match resp with
  | Verdict v ->
      header b ~tag:129 ~id;
      put_u8 b (status_code v.status);
      put_bool b v.cached;
      put_opt b (fun r -> Buffer.add_int64_be b (Int64.of_int r)) v.v_result;
      put_u32 b v.n_run;
      put_u32 b v.n_specs;
      put_u32 b (List.length v.races);
      List.iter (put_str b) v.races;
      put_u32 b (List.length v.failures);
      List.iter
        (fun (cls, msg) ->
          put_str b cls;
          put_str b msg)
        v.failures
  | Retry_after ms ->
      header b ~tag:130 ~id;
      put_u32 b ms
  | Internal_fault msg ->
      header b ~tag:131 ~id;
      put_str b msg
  | Health_report json ->
      header b ~tag:132 ~id;
      put_str b json
  | Proto_error e ->
      header b ~tag:133 ~id;
      put_u32 b e.code;
      put_str b e.msg
  | Bye -> header b ~tag:134 ~id);
  Buffer.contents b

(* ---------- decoding ---------- *)

exception Bad of err

let bad code msg = raise (Bad { code; msg })

type cursor = { body : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.body then
    bad err_truncated
      (Printf.sprintf "truncated body: need %d byte(s) at offset %d of %d" n
         c.pos (String.length c.body))

let get_u8 c =
  need c 1;
  let v = Char.code c.body.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  need c 4;
  let v =
    (Char.code c.body.[c.pos] lsl 24)
    lor (Char.code c.body.[c.pos + 1] lsl 16)
    lor (Char.code c.body.[c.pos + 2] lsl 8)
    lor Char.code c.body.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let get_i64 c =
  need c 8;
  let v = String.get_int64_be c.body c.pos in
  c.pos <- c.pos + 8;
  v

let get_f64 c = Int64.float_of_bits (get_i64 c)

let get_str c =
  let n = get_u32 c in
  if n > max_frame then bad err_bad_field (Printf.sprintf "string length %d" n);
  need c n;
  let s = String.sub c.body c.pos n in
  c.pos <- c.pos + n;
  s

let get_opt c get =
  match get_u8 c with
  | 0 -> None
  | 1 -> Some (get c)
  | v -> bad err_bad_field (Printf.sprintf "option discriminant %d" v)

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | v -> bad err_bad_field (Printf.sprintf "bool %d" v)

let get_kind c =
  match get_u8 c with
  | 0 -> Check
  | 1 -> Coverage
  | 2 -> Lint
  | 3 -> Verify
  | v -> bad err_bad_field (Printf.sprintf "check kind %d" v)

let get_status c =
  match get_u8 c with
  | 0 -> Clean
  | 1 -> Races
  | 3 -> Partial
  | v -> bad err_bad_field (Printf.sprintf "status %d" v)

let get_list c get =
  let n = get_u32 c in
  (* each element takes at least one byte, so a count beyond the body is
     a lie about the remainder, not a big allocation to attempt *)
  if n > String.length c.body - c.pos then
    bad err_bad_field (Printf.sprintf "list length %d" n);
  List.init n (fun _ -> get c)

let decode header_of body =
  let c = { body; pos = 0 } in
  match
    let v = get_u8 c in
    if v <> version then bad err_bad_version (Printf.sprintf "version %d" v);
    let tag = get_u8 c in
    let id = get_u32 c in
    let payload = header_of c tag in
    if c.pos <> String.length body then
      bad err_trailing
        (Printf.sprintf "%d trailing byte(s)" (String.length body - c.pos));
    (id, payload)
  with
  | r -> Ok r
  | exception Bad e -> Error e

let decode_request body =
  decode
    (fun c -> function
      | 1 ->
          let kind = get_kind c in
          let program = get_str c in
          let scale = get_f64 c in
          let seed = get_u32 c in
          let spec = get_str c in
          let density = get_f64 c in
          let max_events = get_opt c get_u32 in
          let deadline_s = get_opt c get_f64 in
          let prune = get_bool c in
          Submit
            {
              kind;
              program;
              scale;
              seed;
              spec;
              density;
              max_events;
              deadline_s;
              prune;
            }
      | 2 -> Health
      | 3 -> Shutdown
      | tag -> bad err_bad_tag (Printf.sprintf "request tag %d" tag))
    body

let decode_response body =
  decode
    (fun c -> function
      | 129 ->
          let status = get_status c in
          let cached = get_bool c in
          let v_result = get_opt c (fun c -> Int64.to_int (get_i64 c)) in
          let n_run = get_u32 c in
          let n_specs = get_u32 c in
          let races = get_list c get_str in
          let failures =
            get_list c (fun c ->
                let cls = get_str c in
                let msg = get_str c in
                (cls, msg))
          in
          Verdict { status; cached; v_result; n_run; n_specs; races; failures }
      | 130 -> Retry_after (get_u32 c)
      | 131 -> Internal_fault (get_str c)
      | 132 -> Health_report (get_str c)
      | 133 ->
          let code = get_u32 c in
          let msg = get_str c in
          Proto_error { code; msg }
      | 134 -> Bye
      | tag -> bad err_bad_tag (Printf.sprintf "response tag %d" tag))
    body

(* ---------- framing over a file descriptor ---------- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

let send fd body =
  let n = String.length body in
  if n > max_frame then
    invalid_arg (Printf.sprintf "Proto.send: body of %d bytes" n);
  let b = Buffer.create (n + 4) in
  put_u32 b n;
  Buffer.add_string b body;
  write_all fd (Buffer.contents b)

(* [read_exact fd n] is [Some bytes] or [None] on EOF at offset 0;
   EOF mid-buffer is a truncation error. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < n do
    let r = Unix.read fd buf !got (n - !got) in
    if r = 0 then eof := true else got := !got + r
  done;
  if !got = n then Ok (Some (Bytes.unsafe_to_string buf))
  else if !got = 0 then Ok None
  else
    Error
      {
        code = err_truncated;
        msg = Printf.sprintf "connection closed %d byte(s) into a read" !got;
      }

let recv fd =
  match read_exact fd 4 with
  | Error e -> Error (`Err e)
  | Ok None -> Error `Eof
  | Ok (Some hdr) ->
      let n =
        (Char.code hdr.[0] lsl 24)
        lor (Char.code hdr.[1] lsl 16)
        lor (Char.code hdr.[2] lsl 8)
        lor Char.code hdr.[3]
      in
      if n > max_frame then
        Error
          (`Err
            {
              code = err_bad_length;
              msg = Printf.sprintf "frame length %d exceeds %d" n max_frame;
            })
      else if n = 0 then
        Error (`Err { code = err_bad_length; msg = "empty frame" })
      else (
        match read_exact fd n with
        | Error e -> Error (`Err e)
        | Ok None ->
            Error
              (`Err
                {
                  code = err_truncated;
                  msg = "connection closed after length prefix";
                })
        | Ok (Some body) -> Ok body)
