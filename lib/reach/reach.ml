module Dynarr = Rader_support.Dynarr
module Obs = Rader_obs.Obs

type backend = Dset | Depa

let all = [ Dset; Depa ]

let show = function Dset -> "dset" | Depa -> "depa"

let parse = function
  | "dset" -> Ok Dset
  | "depa" -> Ok Depa
  | s -> Error (Printf.sprintf "unknown reachability backend %S (expected dset|depa)" s)

(* ---------------------------------------------------------------------- *)
(* Fork-path fingerprints (the depa [Sp] backend).

   A frame's fingerprint is the sequence of child ordinals along its path
   from the root, each ordinal [i] encoded as the Elias-gamma code of
   [i+1] and packed MSB-first into 62-bit words. Gamma codes are
   prefix-free, so one fingerprint's bit string is a prefix of another's
   iff its path is an ancestor path — and the first differing bit sits
   inside the gamma code of the first diverging child.

   Codes never straddle words: a code that does not fit the current
   word's remaining bits starts at bit 0 of a fresh word (the tail of the
   old word is zero padding). A fingerprint is an int slice [a.(o) ..]:

   - [a.(o)]: header — path depth (number of codes) [lsl 32], number of
     words [lsl 8], bits used in the last word;
   - per word [j], three ints: the packed codes at [a.(o+1+3j)], a
     code-start mask (the bit where each code begins) at [a.(o+2+3j)],
     and the level of the word's first code at [a.(o+3+3j)].

   The start mask and first level make any word self-describing, so
   [divergence] needs no scan: the MSB of the XOR of the first differing
   words locates the first differing bit, a popcount of the start bits
   up to it gives the diverging level, and one decode recovers the
   ordinal there. *)

let word_bits = 62

(* A 31-bit field: gamma codes are at most [word_bits] long, so ordinals
   stay below 2^31, and [divergence] packs [(level lsl 31) lor ordinal]. *)
let ord_bits = 31
let ord_mask = (1 lsl ord_bits) - 1

let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56

(* [x] with every bit below its highest set bit set too, for [x < 2^62]. *)
let smear x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  x lor (x lsr 32)

(* Index of the highest set bit of [x], for [0 < x < 2^62]. *)
let msb x = popcount (smear x) - 1

let fp_ncodes h = h lsr 32
let fp_nwords h = (h lsr 8) land 0xFF_FFFF
let fp_len h = 1 + (3 * fp_nwords h)

(* Append ordinal [ord]'s code to the fingerprint at [a.(0)]; [a] must
   have room for one more word. *)
let fp_push a ~ord =
  let v = ord + 1 in
  let clen = (2 * msb v) + 1 in
  if clen > word_bits then invalid_arg "Reach: child ordinal out of range";
  let h = a.(0) in
  let nc = fp_ncodes h and nw = fp_nwords h and used = h land 0xFF in
  if nw > 0 && used + clen <= word_bits then begin
    let w = (3 * nw) - 2 and sh = word_bits - used - clen in
    a.(w) <- a.(w) lor (v lsl sh);
    a.(w + 1) <- a.(w + 1) lor (1 lsl (sh + clen - 1));
    a.(0) <- ((nc + 1) lsl 32) lor (nw lsl 8) lor (used + clen)
  end
  else begin
    let w = (3 * nw) + 1 in
    a.(w) <- v lsl (word_bits - clen);
    a.(w + 1) <- 1 lsl (word_bits - 1);
    a.(w + 2) <- nc;
    a.(0) <- ((nc + 1) lsl 32) lor ((nw + 1) lsl 8) lor clen
  end

(* Cut the fingerprint at [a.(0)] back to its one-code-shorter prefix
   with header [h], zeroing the dropped code's bits so the next [fp_push]
   can OR into a clean tail. *)
let fp_pop a h =
  a.(0) <- h;
  let nw = fp_nwords h in
  if nw > 0 then begin
    let w = (3 * nw) - 2 in
    let keep = lnot ((1 lsl (word_bits - (h land 0xFF))) - 1) in
    a.(w) <- a.(w) land keep;
    a.(w + 1) <- a.(w + 1) land keep
  end

(* Ordinal of the code starting at the single set bit [s] of word [w]:
   the code is [z] zeros then the [z+1]-bit value, so its last bit sits
   as far below the leading 1 as the leading 1 sits below [s]. *)
let decode w s =
  let t = w land ((s lsl 1) - 1) in
  let k = msb t in
  (t lsr ((2 * k) - popcount (s - 1))) - 1

(* [divergence a oa b ob] relates path [a] (the slice at [a.(oa)]) to
   path [b]: [-1] iff [a]'s codes are a prefix of [b]'s (ancestor-or-
   self), else [(level lsl ord_bits) lor ord] for the first level where
   the paths differ and [a]'s child ordinal there. Where they differ,
   [a]'s ordinal must be the smaller — [a] lies in an earlier sibling
   subtree, the only case [Sp] asks about — so [a]'s code there is no
   longer than [b]'s and starts in the same word. Counts one query and
   the words compared. *)
let divergence a oa b ob =
  let ha = a.(oa) and hb = b.(ob) in
  let na = fp_nwords ha and nb = fp_nwords hb in
  let n = if na < nb then na else nb in
  let j = ref 0 in
  while !j < n && a.(oa + 1 + (3 * !j)) = b.(ob + 1 + (3 * !j)) do
    incr j
  done;
  let j = !j in
  if Obs.enabled () then
    Obs.bump_reach_query ~words:(if j < n then j + 1 else max 1 j);
  if j = n then
    let cb = fp_ncodes hb in
    if fp_ncodes ha <= cb then -1
    else
      (* [b] is a strict prefix of [a], and equal words mean [a]'s next
         code did not fit [b]'s last word: it opens word [n] *)
      (cb lsl ord_bits) lor decode a.(oa + 1 + (3 * n)) (1 lsl (word_bits - 1))
  else begin
    let p = oa + 1 + (3 * j) in
    let wa = a.(p) in
    (* start bits at or before the first differing bit: codes before it
       are common, so at most the last one belongs to one path only *)
    let upto = lnot (smear (wa lxor b.(ob + 1 + (3 * j))) lsr 1) in
    let starts = (a.(p + 1) lor b.(ob + 2 + (3 * j))) land upto in
    let level = a.(p + 2) + popcount starts - 1 in
    if level >= fp_ncodes ha then -1 (* [a] ended where [b] went on *)
    else begin
      let s = starts land (- starts) in
      assert (a.(p + 1) land s <> 0);
      (level lsl ord_bits) lor decode wa s
    end
  end

(* Flat union-find arena shared by the [dset] backends below.

   The seed's record-based bags allocated one record per bag plus
   Dynarr-backed slots per element — three heap allocations per frame
   enter on a path fib-grained programs hit tens of millions of times.
   This arena keeps the identical set algebra in raw int arrays:

   - union-find over [parent]/[rank] indexed by frame id, with
     [parent.(x) = -1] marking "never inserted";
   - bag payloads (kind + view id) stored at roots in [pk]/[pv] and
     rewritten to the {e destination}'s payload on every union (a
     union keeps the dst payload);
   - a bag is just a root index ([-1] when empty) held by its owning
     frame slot, so unions need no [find] at all — both roots are known.

   Set membership (and hence classification) is independent of union-find
   tree shape, and payloads are maintained explicitly at roots, so
   verdicts are byte-identical to the record-based machinery. *)
module Uf = struct
  (* One interleaved arena, 4 slots per node — parent, rank, payload kind,
     payload view — so a find/union touches one cache line per node
     instead of four. parent = -1 marks "never inserted"; self at root.
     Payload slots are valid at roots only. *)
  type t = {
    mutable a : int array;
    mutable hi : int; (* high-water mark of inserted ids, for reset *)
  }

  let stride = 4

  let create () =
    let a = Array.make (1024 * stride) 0 in
    let i = ref 0 in
    while !i < Array.length a do
      a.(!i) <- -1;
      i := !i + stride
    done;
    { a; hi = 0 }

  let grow a fill n =
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let mem t x = x >= 0 && stride * x < Array.length t.a && t.a.(stride * x) >= 0

  (* Insert [x] as a fresh singleton root (payload set by the caller). *)
  let insert t x =
    let cap = Array.length t.a in
    if stride * x >= cap then begin
      let b = Array.make (max (stride * (x + 1)) (2 * cap)) 0 in
      Array.blit t.a 0 b 0 cap;
      let i = ref cap in
      while !i < Array.length b do
        b.(!i) <- -1;
        i := !i + stride
      done;
      t.a <- b
    end;
    t.a.(stride * x) <- x;
    t.a.((stride * x) + 1) <- 0;
    if x >= t.hi then t.hi <- x + 1;
    if Obs.enabled () then Obs.bump_dset_add ()

  (* Parent slots of inserted nodes always hold inserted node ids (the
     forest is closed under parent edges), so the unchecked reads stay
     within the arena for any [x] the caller has proved [mem]. *)
  let find t x =
    let x = ref x and steps = ref 0 in
    let a = t.a in
    while Array.unsafe_get a (stride * !x) <> !x do
      let gp =
        Array.unsafe_get a (stride * Array.unsafe_get a (stride * !x))
      in
      Array.unsafe_set a (stride * !x) gp; (* path halving *)
      x := gp;
      incr steps
    done;
    if Obs.enabled () then Obs.bump_dset_find ~compress_steps:!steps;
    !x

  (* Union the set rooted at [src] into the one rooted at [dst]; the
     merged root takes the destination payload [dkind]/[dvid]. Either
     root may be [-1] (empty set). Returns the merged root. *)
  let union_into t ~src ~dst ~dkind ~dvid =
    if Obs.enabled () then Obs.bump_bag_union ();
    if src < 0 then dst
    else begin
      let a = t.a in
      let r =
        if dst < 0 then src
        else begin
          if Obs.enabled () then Obs.bump_dset_union ();
          let rs = a.((stride * src) + 1) and rd = a.((stride * dst) + 1) in
          if rs > rd then begin
            a.(stride * dst) <- src;
            src
          end
          else begin
            a.(stride * src) <- dst;
            if rs = rd then a.((stride * dst) + 1) <- rd + 1;
            dst
          end
        end
      in
      a.((stride * r) + 2) <- dkind;
      a.((stride * r) + 3) <- dvid;
      r
    end

  (* Root payload accessors (valid at roots, like the former pk/pv). *)
  let kind_at t r = t.a.((stride * r) + 2)
  let view_at t r = t.a.((stride * r) + 3)

  let reset t =
    let i = ref 0 in
    while !i < stride * t.hi do
      t.a.(!i) <- -1;
      i := !i + stride
    done;
    t.hi <- 0
end

let grow_stack = Uf.grow

module Sp = struct
  type cls = Serial | Parallel of int

  (* -------- dset backend: the seed's S/P bags over the flat arena --------

     The per-frame S bag and P-bag stack are flattened into parallel int
     stacks: [ffid]/[fvid]/[fsroot]/[fpbase] per live frame, plus one
     global [proot]/[pvid] stack holding every live frame's open P bags
     (innermost frame's on top; [fpbase] records where each frame's
     segment starts).

     A frame enters its own S set only the first time its id is actually
     recorded in a shadow space ([note]). Un-noted frames are never
     classified (only shadow contents are), and a frame is only noted
     while live — when its S set can only have absorbed other sets, never
     moved — so a noted frame joins exactly the set it would have joined
     had it been inserted at entry, while spawn-heavy programs whose
     frames never touch instrumented memory (fib, knapsack skeletons) do
     no disjoint-set work at all. *)

  let ks = 0
  let kp = 1

  type dstate = {
    uf : Uf.t;
    (* live-frame stack *)
    mutable ffid : int array;
    mutable fvid : int array; (* entry view id = the S bag's payload vid *)
    mutable fsroot : int array; (* root of the S set, -1 when empty *)
    mutable fpbase : int array; (* index of the frame's first P bag *)
    mutable depth : int;
    (* open P bags of all live frames *)
    mutable proot : int array; (* -1 when empty *)
    mutable pvid : int array;
    mutable np : int;
  }

  let d_create () =
    {
      uf = Uf.create ();
      ffid = Array.make 64 0;
      fvid = Array.make 64 0;
      fsroot = Array.make 64 0;
      fpbase = Array.make 64 0;
      depth = 0;
      proot = Array.make 64 0;
      pvid = Array.make 64 0;
      np = 0;
    }

  let d_top_vid st = st.pvid.(st.np - 1)

  let d_enter st ~frame =
    let vid = if st.depth = 0 then 0 else st.pvid.(st.np - 1) in
    if st.depth >= Array.length st.ffid then begin
      let n = st.depth + 1 in
      st.ffid <- grow_stack st.ffid 0 n;
      st.fvid <- grow_stack st.fvid 0 n;
      st.fsroot <- grow_stack st.fsroot 0 n;
      st.fpbase <- grow_stack st.fpbase 0 n
    end;
    let i = st.depth in
    st.depth <- i + 1;
    st.ffid.(i) <- frame;
    st.fvid.(i) <- vid;
    st.fpbase.(i) <- st.np;
    st.fsroot.(i) <- -1;
    if st.np >= Array.length st.proot then begin
      st.proot <- grow_stack st.proot 0 (st.np + 1);
      st.pvid <- grow_stack st.pvid 0 (st.np + 1)
    end;
    st.proot.(st.np) <- -1;
    st.pvid.(st.np) <- vid;
    st.np <- st.np + 1;
    if Obs.enabled () then begin
      Obs.bump_bag_make ();
      Obs.bump_bag_make ()
    end

  (* First shadow recording of the (live, top) frame: insert it into its
     own S set now. No root payload changes, so no other frame's
     classification is affected; a second call is a no-op because the id
     is already present. *)
  let d_note st ~frame =
    if not (Uf.mem st.uf frame) then begin
      let i = st.depth - 1 in
      assert (st.ffid.(i) = frame);
      Uf.insert st.uf frame;
      st.fsroot.(i) <-
        Uf.union_into st.uf ~src:frame ~dst:st.fsroot.(i) ~dkind:ks
          ~dvid:st.fvid.(i)
    end

  let d_return st ~frame ~parallel =
    let i = st.depth - 1 in
    st.depth <- i;
    assert (st.ffid.(i) = frame);
    let gs = st.fsroot.(i) in
    (* drop G's P bags, as the seed dropped its dpstack (post-sync they
       are empty; elements already merged keep their sets either way) *)
    st.np <- st.fpbase.(i);
    if i > 0 then begin
      if parallel then begin
        let j = st.np - 1 in
        st.proot.(j) <-
          Uf.union_into st.uf ~src:gs ~dst:st.proot.(j) ~dkind:kp
            ~dvid:st.pvid.(j)
      end
      else
        st.fsroot.(i - 1) <-
          Uf.union_into st.uf ~src:gs ~dst:st.fsroot.(i - 1) ~dkind:ks
            ~dvid:st.fvid.(i - 1)
    end;
    (* A root payload was rewritten only if the returning frame's S set
       was non-empty (an empty [src] makes [union_into] a pure no-op). *)
    i > 0 && gs >= 0

  let d_sync st ~frame =
    let i = st.depth - 1 in
    assert (st.ffid.(i) = frame);
    assert (st.np = st.fpbase.(i) + 1);
    let j = st.np - 1 in
    let src = st.proot.(j) in
    st.fsroot.(i) <-
      Uf.union_into st.uf ~src ~dst:st.fsroot.(i) ~dkind:ks ~dvid:st.fvid.(i);
    (* refresh the single P bag: fresh and empty, carrying the S bag's
       vid (the frame's entry vid — unions keep the destination payload) *)
    st.proot.(j) <- -1;
    st.pvid.(j) <- st.fvid.(i);
    if Obs.enabled () then Obs.bump_bag_make ();
    src >= 0

  let d_steal st ~frame ~region =
    assert (st.ffid.(st.depth - 1) = frame);
    if st.np >= Array.length st.proot then begin
      st.proot <- grow_stack st.proot 0 (st.np + 1);
      st.pvid <- grow_stack st.pvid 0 (st.np + 1)
    end;
    st.proot.(st.np) <- -1;
    st.pvid.(st.np) <- region;
    st.np <- st.np + 1;
    if Obs.enabled () then Obs.bump_bag_make ()

  let d_reduce st ~frame =
    assert (st.ffid.(st.depth - 1) = frame);
    let j = st.np - 1 in
    st.np <- j;
    let src = st.proot.(j) in
    st.proot.(j - 1) <-
      Uf.union_into st.uf ~src ~dst:st.proot.(j - 1) ~dkind:kp
        ~dvid:st.pvid.(j - 1);
    src >= 0

  let d_classify st u =
    if Obs.enabled () then Obs.bump_bag_find ();
    if not (Uf.mem st.uf u) then Serial
    else begin
      let r = Uf.find st.uf u in
      if Uf.kind_at st.uf r = kp then Parallel (Uf.view_at st.uf r) else Serial
    end

  (* -------- depa backend: fingerprints + view epochs --------

     A recorded frame is classified from its fingerprint and the live
     stack alone: the divergence of its path from the current path names
     the lowest common live ancestor [a] and the recorded frame's child
     ordinal there; [a]'s per-block records say whether that child joined
     [a] serially (called, or returned before [a]'s last sync) or is still
     parallel, and in which view epoch. The P-bag vid discipline becomes
     {e view epochs}: every P-bag instance (frame entry, steal, post-sync
     refresh) gets a fresh epoch, a parallel child records the top epoch
     it returned into, and reduce pops the top epoch, so a recorded
     epoch's surviving view is the largest still-live epoch below it.

     Everything is flat int stacks, like the dset arm's: per live frame
     [zfid]/[zvid]/[znext]/[zbase]/[zhdr]/[zbit] plus the start of its
     segment in two global stacks — [cep] (one entry per child returned
     since the last sync: the epoch it returned into, -1 if called) and
     [ep]/[evid]/[ebit] (the frame's live view epochs, increasing bottom
     to top, with their view ids). The current path is one fingerprint
     buffer, pushed on enter and popped on return; a frame's fingerprint
     is copied into [arena] only when it is noted, which is also when it
     becomes classifiable.

     Change reporting is exact, mirroring the dset arm's emptiness
     algebra: [zbit] is set when the frame's S set would be non-empty (a
     noted frame of its subtree joined it), [ebit] when an epoch's P bag
     would be. A return can only move the noted frames of the returning
     subtree, a sync only those of its block's parallel children (the
     ones in its single epoch), and a reduce only those whose survivor
     is the popped epoch — so each reports exactly that bit, and events
     between noted frames leave [Sp_plus]'s memo alone. *)

  type zstate = {
    mutable next_epoch : int;
    (* live-frame stack *)
    mutable zfid : int array;
    mutable zvid : int array; (* entry view id *)
    mutable znext : int array; (* next child ordinal *)
    mutable zbase : int array; (* [znext] at the last sync *)
    mutable zhdr : int array; (* fingerprint header of the frame's path *)
    mutable zbit : int array; (* 1 iff a noted frame joined the S set *)
    mutable zcb : int array; (* start of the frame's [cep] segment *)
    mutable zeb : int array; (* start of the frame's epoch segment *)
    mutable zdepth : int;
    (* children returned since their frame's last sync, all live frames *)
    mutable cep : int array;
    mutable nc : int;
    (* view epochs of all live frames *)
    mutable ep : int array;
    mutable evid : int array;
    mutable ebit : int array; (* 1 iff a noted frame joined the P bag *)
    mutable ne : int;
    mutable path : int array; (* current path: fingerprint slice at 0 *)
    (* frame id -> offset of its fingerprint in [arena], -1 if un-noted *)
    mutable ftab : int array;
    mutable fhi : int; (* high-water mark of noted ids, for reset *)
    mutable arena : int array;
    mutable na : int;
  }

  let z_create () =
    {
      next_epoch = 0;
      zfid = Array.make 64 0;
      zvid = Array.make 64 0;
      znext = Array.make 64 0;
      zbase = Array.make 64 0;
      zhdr = Array.make 64 0;
      zbit = Array.make 64 0;
      zcb = Array.make 64 0;
      zeb = Array.make 64 0;
      zdepth = 0;
      cep = Array.make 64 0;
      nc = 0;
      ep = Array.make 64 0;
      evid = Array.make 64 0;
      ebit = Array.make 64 0;
      ne = 0;
      path = Array.make 64 0;
      ftab = Array.make 1024 (-1);
      fhi = 0;
      arena = Array.make 1024 0;
      na = 0;
    }

  let z_push_epoch st ~vid =
    if st.ne >= Array.length st.ep then begin
      let n = st.ne + 1 in
      st.ep <- grow_stack st.ep 0 n;
      st.evid <- grow_stack st.evid 0 n;
      st.ebit <- grow_stack st.ebit 0 n
    end;
    st.ep.(st.ne) <- st.next_epoch;
    st.evid.(st.ne) <- vid;
    st.ebit.(st.ne) <- 0;
    st.next_epoch <- st.next_epoch + 1;
    st.ne <- st.ne + 1

  (* Copy the current path into the arena as the top frame's fingerprint. *)
  let z_note_top st ~frame =
    let len = fp_len st.path.(0) in
    if st.na + len > Array.length st.arena then
      st.arena <- grow_stack st.arena 0 (st.na + len);
    Array.blit st.path 0 st.arena st.na len;
    if frame >= Array.length st.ftab then
      st.ftab <- grow_stack st.ftab (-1) (frame + 1);
    st.ftab.(frame) <- st.na;
    if frame >= st.fhi then st.fhi <- frame + 1;
    st.na <- st.na + len;
    st.zbit.(st.zdepth - 1) <- 1

  let z_enter st ~frame =
    let i = st.zdepth in
    if i >= Array.length st.zfid then begin
      let n = i + 1 in
      st.zfid <- grow_stack st.zfid 0 n;
      st.zvid <- grow_stack st.zvid 0 n;
      st.znext <- grow_stack st.znext 0 n;
      st.zbase <- grow_stack st.zbase 0 n;
      st.zhdr <- grow_stack st.zhdr 0 n;
      st.zbit <- grow_stack st.zbit 0 n;
      st.zcb <- grow_stack st.zcb 0 n;
      st.zeb <- grow_stack st.zeb 0 n
    end;
    let vid =
      if i = 0 then begin
        st.path.(0) <- 0;
        0
      end
      else begin
        let ord = st.znext.(i - 1) in
        st.znext.(i - 1) <- ord + 1;
        let len = fp_len st.path.(0) + 3 in
        if len > Array.length st.path then st.path <- grow_stack st.path 0 len;
        fp_push st.path ~ord;
        st.evid.(st.ne - 1)
      end
    in
    st.zdepth <- i + 1;
    st.zfid.(i) <- frame;
    st.zvid.(i) <- vid;
    st.znext.(i) <- 0;
    st.zbase.(i) <- 0;
    st.zhdr.(i) <- st.path.(0);
    st.zbit.(i) <- 0;
    st.zcb.(i) <- st.nc;
    st.zeb.(i) <- st.ne;
    z_push_epoch st ~vid

  (* First shadow recording of the (live, top) frame; idempotent. *)
  let z_note st ~frame =
    if frame >= Array.length st.ftab || st.ftab.(frame) < 0 then begin
      assert (st.zfid.(st.zdepth - 1) = frame);
      z_note_top st ~frame
    end

  let z_return st ~frame ~parallel =
    let i = st.zdepth - 1 in
    assert (st.zfid.(i) = frame);
    st.zdepth <- i;
    st.ne <- st.zeb.(i);
    st.nc <- st.zcb.(i);
    let bit = st.zbit.(i) in
    if i > 0 then begin
      fp_pop st.path st.zhdr.(i - 1);
      (* Children run one at a time and in ordinal order, so this child's
         record lands exactly at the end of the parent's segment. *)
      assert (st.znext.(i - 1) - 1 - st.zbase.(i - 1) = st.nc - st.zcb.(i - 1));
      if st.nc >= Array.length st.cep then
        st.cep <- grow_stack st.cep 0 (st.nc + 1);
      if parallel then begin
        let top = st.ne - 1 in
        st.cep.(st.nc) <- st.ep.(top);
        st.ebit.(top) <- st.ebit.(top) lor bit
      end
      else begin
        st.cep.(st.nc) <- -1;
        st.zbit.(i - 1) <- st.zbit.(i - 1) lor bit
      end;
      st.nc <- st.nc + 1;
      if Obs.enabled () then Obs.bump_reach_epoch ~steps:1
    end;
    i > 0 && bit = 1

  let z_sync st ~frame =
    let i = st.zdepth - 1 in
    assert (st.zfid.(i) = frame);
    let k = st.zeb.(i) in
    assert (st.ne = k + 1);
    let bit = st.ebit.(k) in
    st.zbit.(i) <- st.zbit.(i) lor bit;
    st.zbase.(i) <- st.znext.(i);
    st.nc <- st.zcb.(i);
    (* like the seed's post-sync refresh: a fresh epoch carrying the
       frame's entry vid (union keeps the destination payload) *)
    st.ne <- k;
    z_push_epoch st ~vid:st.zvid.(i);
    if Obs.enabled () then Obs.bump_reach_epoch ~steps:1;
    bit = 1

  let z_steal st ~frame ~region =
    assert (st.zfid.(st.zdepth - 1) = frame);
    z_push_epoch st ~vid:region;
    if Obs.enabled () then Obs.bump_reach_epoch ~steps:1

  let z_reduce st ~frame =
    assert (st.zfid.(st.zdepth - 1) = frame);
    let k = st.ne - 1 in
    assert (k > st.zeb.(st.zdepth - 1));
    st.ne <- k;
    let bit = st.ebit.(k) in
    st.ebit.(k - 1) <- st.ebit.(k - 1) lor bit;
    if Obs.enabled () then Obs.bump_reach_epoch ~steps:1;
    bit = 1

  (* View id surviving for recorded epoch [e] of live frame [a]: the
     largest still-live epoch <= e (reduce pops epochs from the top, so
     the view a popped epoch's members merged into is the one below). *)
  let z_survivor st a e =
    let lo = ref st.zeb.(a)
    and hi = ref ((if a + 1 < st.zdepth then st.zeb.(a + 1) else st.ne) - 1)
    and steps = ref 1 in
    while !lo < !hi do
      incr steps;
      let mid = (!lo + !hi + 1) / 2 in
      if st.ep.(mid) <= e then lo := mid else hi := mid - 1
    done;
    if Obs.enabled () then Obs.bump_reach_epoch ~steps:!steps;
    st.evid.(!lo)

  let z_classify st u =
    if u >= Array.length st.ftab || st.ftab.(u) < 0 then Serial
    else
      let d = divergence st.arena st.ftab.(u) st.path 0 in
      if d < 0 then Serial (* ancestor-or-self of the current frame *)
      else begin
        (* the diverging level is the live depth of [a], the lowest
           common ancestor of [u] and the current point *)
        let a = d lsr ord_bits in
        let idx = (d land ord_mask) - st.zbase.(a) in
        if idx < 0 then Serial (* joined before [a]'s last sync *)
        else begin
          (* the diverging child cannot be [a]'s running child (that one
             is on the current path), so its return is recorded *)
          assert (
            let seg_end = if a + 1 < st.zdepth then st.zcb.(a + 1) else st.nc in
            st.zcb.(a) + idx < seg_end);
          match st.cep.(st.zcb.(a) + idx) with
          | -1 -> Serial (* called child: its subtree joined a.S *)
          | e -> Parallel (z_survivor st a e)
        end
      end

  (* -------- dispatch -------- *)

  type t = Sp_dset of dstate | Sp_depa of zstate

  let create = function
    | Dset -> Sp_dset (d_create ())
    | Depa -> Sp_depa (z_create ())

  let backend = function Sp_dset _ -> Dset | Sp_depa _ -> Depa

  let reset = function
    | Sp_dset st ->
        Uf.reset st.uf;
        st.depth <- 0;
        st.np <- 0
    | Sp_depa st ->
        Array.fill st.ftab 0 st.fhi (-1);
        st.fhi <- 0;
        st.na <- 0;
        st.next_epoch <- 0;
        st.zdepth <- 0;
        st.nc <- 0;
        st.ne <- 0

  let on_frame_enter t ~frame =
    match t with Sp_dset st -> d_enter st ~frame | Sp_depa st -> z_enter st ~frame

  let on_frame_return t ~frame ~parallel =
    match t with
    | Sp_dset st -> d_return st ~frame ~parallel
    | Sp_depa st -> z_return st ~frame ~parallel

  let on_sync t ~frame =
    match t with Sp_dset st -> d_sync st ~frame | Sp_depa st -> z_sync st ~frame

  let on_steal t ~frame ~region =
    match t with
    | Sp_dset st -> d_steal st ~frame ~region
    | Sp_depa st -> z_steal st ~frame ~region

  let on_reduce t ~frame =
    match t with Sp_dset st -> d_reduce st ~frame | Sp_depa st -> z_reduce st ~frame

  let classify t u =
    match t with Sp_dset st -> d_classify st u | Sp_depa st -> z_classify st u

  let note t ~frame =
    match t with Sp_dset st -> d_note st ~frame | Sp_depa st -> z_note st ~frame

  let cur_view = function
    | Sp_dset st -> d_top_vid st
    | Sp_depa st -> st.evid.(st.ne - 1)
end

(* ---------------------------------------------------------------------- *)

module Peer = struct
  (* -------- dset backend: the seed's three bags over the flat arena --------

     Same flattening as [Sp]: each live frame's SS/SP/P bags are root
     indices in parallel int stacks, and a frame enters its own SS set
     only at its first recorded reducer-read ([note_read]) — only
     shadow-recorded reader frames are ever queried by [parallel_read],
     and a live frame's SS set only absorbs others, so verdicts are
     unchanged. *)

  let kss = 0
  let ksp = 1
  let kp = 2

  type dstate = {
    uf : Uf.t;
    mutable pfid : int array;
    mutable panc : int array;
    mutable pls : int array;
    mutable pss : int array; (* SS/SP/P set roots, -1 when empty *)
    mutable psp : int array;
    mutable pp : int array;
    mutable depth : int;
  }

  let d_create () =
    {
      uf = Uf.create ();
      pfid = Array.make 64 0;
      panc = Array.make 64 0;
      pls = Array.make 64 0;
      pss = Array.make 64 0;
      psp = Array.make 64 0;
      pp = Array.make 64 0;
      depth = 0;
    }

  let d_enter st ~frame ~spawned =
    let anc =
      if st.depth = 0 then 0
      else begin
        let i = st.depth - 1 in
        if spawned then begin
          st.pls.(i) <- st.pls.(i) + 1;
          (* SP retires into P; SP becomes fresh and empty *)
          st.pp.(i) <-
            Uf.union_into st.uf ~src:st.psp.(i) ~dst:st.pp.(i) ~dkind:kp ~dvid:0;
          st.psp.(i) <- -1
        end;
        st.panc.(i) + st.pls.(i)
      end
    in
    if st.depth >= Array.length st.pfid then begin
      let n = st.depth + 1 in
      st.pfid <- grow_stack st.pfid 0 n;
      st.panc <- grow_stack st.panc 0 n;
      st.pls <- grow_stack st.pls 0 n;
      st.pss <- grow_stack st.pss 0 n;
      st.psp <- grow_stack st.psp 0 n;
      st.pp <- grow_stack st.pp 0 n
    end;
    let i = st.depth in
    st.depth <- i + 1;
    st.pfid.(i) <- frame;
    st.panc.(i) <- anc;
    st.pls.(i) <- 0;
    st.pss.(i) <- -1;
    st.psp.(i) <- -1;
    st.pp.(i) <- -1;
    if Obs.enabled () then begin
      Obs.bump_bag_make ();
      Obs.bump_bag_make ();
      Obs.bump_bag_make ()
    end

  let d_return st ~frame ~spawned =
    let i = st.depth - 1 in
    st.depth <- i;
    assert (st.pfid.(i) = frame);
    if i > 0 then begin
      let j = i - 1 in
      st.pp.(j) <-
        Uf.union_into st.uf ~src:st.pp.(i) ~dst:st.pp.(j) ~dkind:kp ~dvid:0;
      if spawned then
        st.pp.(j) <-
          Uf.union_into st.uf ~src:st.pss.(i) ~dst:st.pp.(j) ~dkind:kp ~dvid:0
      else if st.pls.(j) = 0 then
        st.pss.(j) <-
          Uf.union_into st.uf ~src:st.pss.(i) ~dst:st.pss.(j) ~dkind:kss ~dvid:0
      else
        st.psp.(j) <-
          Uf.union_into st.uf ~src:st.pss.(i) ~dst:st.psp.(j) ~dkind:ksp ~dvid:0
    end

  let d_sync st ~frame =
    let i = st.depth - 1 in
    assert (st.pfid.(i) = frame);
    st.pls.(i) <- 0;
    st.pp.(i) <-
      Uf.union_into st.uf ~src:st.psp.(i) ~dst:st.pp.(i) ~dkind:kp ~dvid:0;
    st.psp.(i) <- -1

  (* First-read insertion (a no-op when the frame is already present). *)
  let d_note st ~frame =
    if not (Uf.mem st.uf frame) then begin
      let i = st.depth - 1 in
      assert (st.pfid.(i) = frame);
      Uf.insert st.uf frame;
      st.pss.(i) <-
        Uf.union_into st.uf ~src:frame ~dst:st.pss.(i) ~dkind:kss ~dvid:0
    end

  let d_parallel st ~frame =
    if Obs.enabled () then Obs.bump_bag_find ();
    assert (Uf.mem st.uf frame);
    Uf.kind_at st.uf (Uf.find st.uf frame) = kp

  (* -------- depa backend: no bags at all --------

     Replay is depth-first, so a frame's [ls] and its SP generation are
     frozen for the whole lifetime of any one child: whether a returning
     child's SS folds into the parent's SS (pure: called with ls = 0), SP
     (called with ls > 0) or P (spawned) is already determined at the
     child's entry. Each frame therefore knows, at entry, the top [root]
     of its maximal pure chain; a recorded read is

     - KSS while that root is still on the live stack,
     - KP as soon as a spawned root has returned (its SS went straight to
       the grandparent's P),
     - KSP while a called-impure root is dead but its parent Q is live and
       has not retired its SP bag since — which we detect with a per-frame
       SP-generation counter [spe], bumped exactly when the seed unions
       SP into P (every spawned-child entry and every sync),
     - KP otherwise (Q retired SP, or Q itself returned — the implicit
       pre-return sync retires it). *)

  type pframe = {
    mutable pfid : int;
    mutable panc : int;
    mutable pls : int;
    mutable pspawned : bool;
    mutable root_id : int; (* top of this frame's maximal pure chain *)
    mutable root_depth : int;
    mutable par_spe : int; (* parent's [spe] at entry *)
    mutable spe : int; (* SP-bag generation *)
  }

  type pread = {
    mutable read_frame : int;
    mutable r_id : int; (* pure-chain root of the reading frame *)
    mutable r_depth : int;
    mutable r_spawned : bool;
    mutable q_id : int; (* the root's parent, -1 at the root frame *)
    mutable q_spe : int; (* Q's SP generation at the root's entry *)
  }

  type pstate = {
    pstack : pframe Dynarr.t;
    ppool : pframe Dynarr.t;
    rtab : pread option Dynarr.t; (* reducer id -> last-read classification *)
  }

  let p_alloc st =
    if Dynarr.is_empty st.ppool then
      {
        pfid = -1;
        panc = 0;
        pls = 0;
        pspawned = false;
        root_id = -1;
        root_depth = 0;
        par_spe = 0;
        spe = 0;
      }
    else Dynarr.pop st.ppool

  let p_enter st ~frame ~spawned =
    let depth = Dynarr.length st.pstack in
    let anc, root_id, root_depth, par_spe =
      if depth = 0 then (0, frame, 0, 0)
      else begin
        let f = Dynarr.top st.pstack in
        if spawned then begin
          f.pls <- f.pls + 1;
          f.spe <- f.spe + 1 (* seed: SP retires into P here *)
        end;
        let pure = (not spawned) && f.pls = 0 in
        ( f.panc + f.pls,
          (if pure then f.root_id else frame),
          (if pure then f.root_depth else depth),
          f.spe )
      end
    in
    let g = p_alloc st in
    g.pfid <- frame;
    g.panc <- anc;
    g.pls <- 0;
    g.pspawned <- spawned;
    g.root_id <- root_id;
    g.root_depth <- root_depth;
    g.par_spe <- par_spe;
    g.spe <- 0;
    Dynarr.push st.pstack g

  let p_return st ~frame ~spawned:_ =
    let g = Dynarr.pop st.pstack in
    assert (g.pfid = frame);
    Dynarr.push st.ppool g

  let p_sync st ~frame =
    let f = Dynarr.top st.pstack in
    assert (f.pfid = frame);
    f.pls <- 0;
    f.spe <- f.spe + 1

  let p_note_read st ~reducer ~frame =
    let u = Dynarr.top st.pstack in
    assert (u.pfid = frame);
    Dynarr.ensure st.rtab (reducer + 1) None;
    let r =
      match Dynarr.get st.rtab reducer with
      | Some r -> r
      | None ->
          let r =
            {
              read_frame = -1;
              r_id = -1;
              r_depth = 0;
              r_spawned = false;
              q_id = -1;
              q_spe = 0;
            }
          in
          Dynarr.set st.rtab reducer (Some r);
          r
    in
    let root = Dynarr.get st.pstack u.root_depth in
    assert (root.pfid = u.root_id);
    r.read_frame <- frame;
    r.r_id <- u.root_id;
    r.r_depth <- u.root_depth;
    r.r_spawned <- root.pspawned;
    r.q_id <-
      (if u.root_depth > 0 then (Dynarr.get st.pstack (u.root_depth - 1)).pfid else -1);
    r.q_spe <- root.par_spe;
    if Obs.enabled () then Obs.bump_reach_epoch ~steps:1

  let p_parallel st ~reducer ~frame =
    let r =
      match
        (if reducer < Dynarr.length st.rtab then Dynarr.get st.rtab reducer else None)
      with
      | Some r -> r
      | None -> assert false
    in
    assert (r.read_frame = frame);
    if Obs.enabled () then Obs.bump_reach_query ~words:1;
    let n = Dynarr.length st.pstack in
    if r.r_depth < n && (Dynarr.get st.pstack r.r_depth).pfid = r.r_id then
      false (* root still live: the read is in a live SS chain *)
    else if r.r_spawned then true (* spawned root returned: SS went to P *)
    else begin
      (* called-impure root returned into Q's SP bag: parallel once Q has
         retired that SP generation (spawn or sync) or returned itself *)
      let qd = r.r_depth - 1 in
      not
        (qd >= 0 && qd < n
        &&
        let q = Dynarr.get st.pstack qd in
        q.pfid = r.q_id && q.spe = r.q_spe)
    end

  (* -------- dispatch -------- *)

  type t = Peer_dset of dstate | Peer_depa of pstate

  let create = function
    | Dset -> Peer_dset (d_create ())
    | Depa ->
        Peer_depa
          { pstack = Dynarr.create (); ppool = Dynarr.create (); rtab = Dynarr.create () }

  let backend = function Peer_dset _ -> Dset | Peer_depa _ -> Depa

  let reset = function
    | Peer_dset st ->
        Uf.reset st.uf;
        st.depth <- 0
    | Peer_depa st ->
        Dynarr.iter (fun g -> Dynarr.push st.ppool g) st.pstack;
        Dynarr.clear st.pstack;
        Dynarr.clear st.rtab

  let on_frame_enter t ~frame ~spawned =
    match t with
    | Peer_dset st -> d_enter st ~frame ~spawned
    | Peer_depa st -> p_enter st ~frame ~spawned

  let on_frame_return t ~frame ~spawned =
    match t with
    | Peer_dset st -> d_return st ~frame ~spawned
    | Peer_depa st -> p_return st ~frame ~spawned

  let on_sync t ~frame =
    match t with Peer_dset st -> d_sync st ~frame | Peer_depa st -> p_sync st ~frame

  let spawn_count = function
    | Peer_dset st ->
        let i = st.depth - 1 in
        st.panc.(i) + st.pls.(i)
    | Peer_depa st ->
        let f = Dynarr.top st.pstack in
        f.panc + f.pls

  let note_read t ~reducer ~frame =
    match t with
    | Peer_dset st ->
        ignore reducer;
        d_note st ~frame
    | Peer_depa st -> p_note_read st ~reducer ~frame

  let parallel_read t ~reducer ~frame =
    match t with
    | Peer_dset st ->
        ignore reducer;
        d_parallel st ~frame
    | Peer_depa st -> p_parallel st ~reducer ~frame
end
