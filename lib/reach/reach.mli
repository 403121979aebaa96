(** Pluggable precedence ("reachability") backends for the detectors.

    Both SP+ (paper §5–6) and Peer-Set (§3) reduce race checking to one
    oracle question, always anchored at the current strand: {e is the
    recorded access logically in series with the point of execution the
    replay is at right now?} — plus, for SP+, {e which reducer view does
    the recorded access belong to today?} The seed answers with S/P bags
    over a disjoint-set forest: O(α(v,v)) amortized per query, and the
    α-term (path compression) is the detector's hot path (S6 counters).

    This module exposes that oracle behind two interchangeable backends:

    - {!Dset} — the original bag/disjoint-set machinery, moved here
      verbatim (same operations in the same order, so Obs counters and
      verdicts are byte-identical to the seed);
    - {!Depa} — DePa-style fingerprint order maintenance (Westrick, Wang
      & Acar, 2022). A frame's {e fork-path fingerprint} is the γ-coded
      sequence of child ordinals from the root, packed MSB-first into
      62-bit words with a code-start mask per word. The current path is
      one buffer, pushed on enter and popped on return; a frame's
      fingerprint is copied out when the frame is first recorded. A
      precedence query finds the first differing word, locates the
      diverging level with one XOR, popcount and decode, and reads the
      answer from the lowest common live ancestor's O(1) per-block state
      — worst case O(⌈depth/w⌉) with {e no} amortized rebalancing, no
      path compression, and no mutation at query time (see DESIGN.md
      §12). The P-bag vid discipline is re-expressed as {e view epochs}:
      every P-bag instance (frame entry, steal push, post-sync refresh)
      gets a fresh epoch; a frame records, per returned child, the top
      epoch its subtree merged into; reduce pops the top epoch, so a
      recorded epoch's surviving view is the largest still-live epoch
      below it (one short binary search over the outstanding-steal
      stack).

    Verdict equivalence between the backends is enforced by the golden
    fingerprints, the generated-program cross-checks and a dedicated
    QCheck agreement property over raw event sequences. *)

type backend = Dset | Depa

val all : backend list
val show : backend -> string
val parse : string -> (backend, string) result

(** Cmdliner-friendly doc string: ["dset|depa"]. *)
val doc_alts : string

(** {2 SP+ precedence core}

    Owns the per-frame S/P classification state of the SP+ detector: the
    caller ([Rader_core.Sp_plus]) keeps shadow spaces, frame kinds and
    report collection, and forwards the engine's frame/sync/steal/reduce
    events verbatim. Queries are anchored at the current (top) frame. *)
module Sp : sig
  type t

  (** Verdict for a recorded frame against the current point:
      [Serial], or [Parallel vid] where [vid] is the view id of the P bag
      holding the recorded frame {e today} (region id of the steal that
      opened it, or the enclosing frame's entry view). *)
  type cls = Serial | Parallel of int

  (** Per-frame work is deferred until {!note}: inserting the frame into
      its own S set ([Dset]), copying its fingerprint ([Depa]). Callers
      must {!note} every frame id they later pass to {!classify} while
      that frame is the current one; a frame never noted classifies
      [Serial]. The SP+ core only classifies shadow-recorded frames, so
      spawn-heavy programs that never touch instrumented memory do no
      per-frame precedence work at all. *)
  val create : backend -> t

  val backend : t -> backend

  (** Empty every arena but keep grown storage — pairs with
      [Engine.reset] for spec-sweep reuse. *)
  val reset : t -> unit

  val on_frame_enter : t -> frame:int -> unit

  (** [parallel] is [spawned || kind = Reduce_fn]: whether the returning
      frame's subtree joins the parent's top P bag (stays parallel until
      the enclosing sync) or the parent's S bag.

      [on_frame_return], [on_sync] and [on_reduce] return [true] exactly
      when the dset bag the event unions from is non-empty (empty-source
      unions are pure no-ops), under both backends; [false] guarantees
      that no noted frame's classification changed. Callers memoizing
      [classify] results need to invalidate exactly when one of these
      returns [true] — see [Sp_plus]'s generation counter. *)
  val on_frame_return : t -> frame:int -> parallel:bool -> bool

  val on_sync : t -> frame:int -> bool
  val on_steal : t -> frame:int -> region:int -> unit
  val on_reduce : t -> frame:int -> bool

  (** [classify t u] classifies recorded frame [u] against the current
      point. Never-entered frames classify [Serial] (callers guard
      [Shadow.absent] themselves, as the seed did). *)
  val classify : t -> int -> cls

  (** Record that the current (top) frame's id is about to be stored in
      a shadow space: inserts it into its own S set ([Dset]) or copies
      its fingerprint ([Depa]). Idempotent. *)
  val note : t -> frame:int -> unit

  (** View id of the current strand (the top P bag of the top frame). *)
  val cur_view : t -> int
end

(** {2 Peer-Set precedence core}

    Owns Peer-Set's SS/SP/P bags and spawn counts (Fig. 3). User-function
    frames only — the caller filters, and keeps its reader shadows and
    reports. *)
module Peer : sig
  type t

  (** Frames enter their own SS sets ([Dset]) only at their first
      {!note_read}: only shadow-recorded reader frames are ever queried
      by {!parallel_read}. *)
  val create : backend -> t

  val backend : t -> backend
  val reset : t -> unit
  val on_frame_enter : t -> frame:int -> spawned:bool -> unit
  val on_frame_return : t -> frame:int -> spawned:bool -> unit
  val on_sync : t -> frame:int -> unit

  (** [anc + ls] of the current frame: the spawn count Peer-Set stores
      with each reducer-read. *)
  val spawn_count : t -> int

  (** Record that the current frame performed a reducer-read of
      [reducer]; must be called after {!parallel_read} of the previous
      read, mirroring Fig. 3's order. *)
  val note_read : t -> reducer:int -> frame:int -> unit

  (** [parallel_read t ~reducer ~frame] — is the previously recorded read
      [frame] of [reducer] in a P bag (different peer set regardless of
      spawn counts)? *)
  val parallel_read : t -> reducer:int -> frame:int -> bool
end
