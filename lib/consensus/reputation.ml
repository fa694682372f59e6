module Wire = Shoalpp_codec.Wire
module Varint = Shoalpp_support.Varint

type t = {
  n : int;
  window : int;
  staleness : int;
  enabled : bool;
  scores : int array; (* segments supported within the window *)
  last_round : int array; (* highest ordered node round per author; -1 = never *)
  last_support : int array; (* highest anchor round the author supported *)
  (* The window: each recent segment's distinct in-range supporters,
     ascending, held as the bytes a snapshot writes for it (a
     count-prefixed LEB128 list, as [Wire.Writer.list] would write it) in
     a ring of [window + 1] slots of [stride] bytes, oldest at [head];
     [lens] holds each slot's used length. A segment is encoded straight
     into its slot when observed and its bytes are walked once when it
     leaves the window: neither allocates. *)
  stride : int;
  ring : Bytes.t;
  lens : int array;
  mutable head : int;
  mutable len : int;
  miss_threshold : int;
  miss : int array; (* consecutive skipped-anchor streak per author *)
  marked : Bytes.t; (* n-slot scratch deduping one segment's supporters; all zero between calls *)
  mutable highest_anchor_round : int;
}

let create ~n ?(window = 64) ?(staleness = 8) ?(miss_threshold = 2) ~enabled () =
  let stride = Varint.encoded_size n + (n * Varint.encoded_size (max 0 (n - 1))) in
  {
    n;
    window;
    staleness;
    enabled;
    scores = Array.make n 0;
    last_round = Array.make n (-1);
    last_support = Array.make n (-1);
    stride;
    ring = Bytes.create ((window + 1) * stride);
    lens = Array.make (window + 1) 0;
    head = 0;
    len = 0;
    miss_threshold;
    miss = Array.make n 0;
    marked = Bytes.make n '\000';
    highest_anchor_round = -1;
  }

(* Ring slot of the window's [k]-th segment, oldest first. *)
let slot_at t k = (t.head + k) mod (t.window + 1)

(* Apply [f] to a slot's supporters, ascending. *)
let iter_slot t s f =
  let base = s * t.stride in
  let count = Varint.get t.ring base in
  let pos = ref (base + Varint.encoded_size count) in
  for _ = 1 to count do
    let a = Varint.get t.ring !pos in
    pos := !pos + Varint.encoded_size a;
    f a
  done

let supporters_of t s =
  let acc = ref [] in
  iter_slot t s (fun a -> acc := a :: !acc);
  List.rev !acc

(* Supporting a committed anchor — being its author or one of its strong
   parents — is the signal that a replica is currently fast and well
   connected. Stragglers' nodes are swept into histories late via weak
   edges, which must NOT earn anchor candidacy, or the skip cascade of
   §5.2 fires on them (and indirect resolution can wedge on them). *)
let observe_segment t ~anchor_round ~supporters ~node_positions =
  if anchor_round > t.highest_anchor_round then t.highest_anchor_round <- anchor_round;
  List.iter
    (fun (round, author) ->
      if author >= 0 && author < t.n && round > t.last_round.(author) then
        t.last_round.(author) <- round)
    node_positions;
  (* Dedupe in the scratch, then walk it: the distinct in-range supporters
     come out in ascending order, encoded into the tail slot. *)
  let count = ref 0 in
  List.iter
    (fun a ->
      if a >= 0 && a < t.n && Bytes.get t.marked a = '\000' then begin
        Bytes.set t.marked a '\001';
        incr count
      end)
    supporters;
  let s = slot_at t t.len in
  let base = s * t.stride in
  let pos = ref (Varint.put t.ring base !count) in
  for a = 0 to t.n - 1 do
    if Bytes.get t.marked a <> '\000' then begin
      Bytes.set t.marked a '\000';
      t.scores.(a) <- t.scores.(a) + 1;
      t.miss.(a) <- 0;
      if anchor_round > t.last_support.(a) then t.last_support.(a) <- anchor_round;
      pos := Varint.put t.ring !pos a
    end
  done;
  t.lens.(s) <- !pos - base;
  t.len <- t.len + 1;
  if t.len > t.window then begin
    iter_slot t t.head (fun a -> t.scores.(a) <- t.scores.(a) - 1);
    t.head <- slot_at t 1;
    t.len <- t.len - 1
  end

(* A skipped anchor is part of the committed prefix (the Skip_to decision is
   final and agreed), so penalizing it keeps the scheme a deterministic
   function of that prefix. Streaks reset on the next supported segment. *)
let observe_skip t ~round:_ ~author =
  if author >= 0 && author < t.n then t.miss.(author) <- t.miss.(author) + 1

let miss_streak t a = t.miss.(a)
let score t a = t.scores.(a)

let is_active t ~round a =
  t.miss.(a) < t.miss_threshold
  && (t.highest_anchor_round < 0 (* cold start: everyone active *)
     || t.last_support.(a) >= round - t.staleness)

(* Checkpoint support: the whole state is a bounded window over the
   committed prefix, so it serializes into a few int arrays plus the
   window's supporter lists. Fields that can be -1 are shifted by one
   (varints are unsigned). *)
type dump = {
  d_scores : int list;
  d_last_round : int list;
  d_last_support : int list;
  d_miss : int list;
  d_recent : int list list;
  d_highest_anchor_round : int;
}

let dump t =
  {
    d_scores = Array.to_list t.scores;
    d_last_round = Array.to_list t.last_round;
    d_last_support = Array.to_list t.last_support;
    d_miss = Array.to_list t.miss;
    d_recent = List.init t.len (fun k -> supporters_of t (slot_at t k));
    d_highest_anchor_round = t.highest_anchor_round;
  }

let wint w v = Wire.Writer.uint w (v + 1)
let rint rd = Wire.Reader.uint rd - 1

let copy t =
  {
    t with
    scores = Array.copy t.scores;
    last_round = Array.copy t.last_round;
    last_support = Array.copy t.last_support;
    ring = Bytes.copy t.ring;
    lens = Array.copy t.lens;
    miss = Array.copy t.miss;
  }

let write t w =
  let ints arr =
    Wire.Writer.uint w (Array.length arr);
    Array.iter (wint w) arr
  in
  ints t.scores;
  ints t.last_round;
  ints t.last_support;
  ints t.miss;
  Wire.Writer.uint w t.len;
  for k = 0 to t.len - 1 do
    let s = slot_at t k in
    Wire.Writer.raw_sub w t.ring ~pos:(s * t.stride) ~len:t.lens.(s)
  done;
  wint w t.highest_anchor_round

let read t rd =
  let fill arr =
    List.iteri (fun i v -> if i < Array.length arr then arr.(i) <- v) (Wire.Reader.list rd rint)
  in
  fill t.scores;
  fill t.last_round;
  fill t.last_support;
  fill t.miss;
  let recent = Wire.Reader.list rd (fun rd -> Wire.Reader.list rd Wire.Reader.uint) in
  if List.length recent > t.window then raise (Wire.Reader.Malformed "reputation window overflow");
  List.iter
    (fun sup ->
      ignore
        (List.fold_left
           (fun prev a ->
             if a <= prev || a >= t.n then
               raise (Wire.Reader.Malformed "reputation supporters not ascending in range");
             a)
           (-1) sup))
    recent;
  List.iteri
    (fun s sup ->
      let base = s * t.stride in
      let stop = List.fold_left (Varint.put t.ring) (Varint.put t.ring base (List.length sup)) sup in
      t.lens.(s) <- stop - base)
    recent;
  t.head <- 0;
  t.len <- List.length recent;
  t.highest_anchor_round <- rint rd

let rotate slot l =
  match l with
  | [] -> []
  | _ ->
    let len = List.length l in
    let k = ((slot mod len) + len) mod len in
    let arr = Array.of_list l in
    List.init len (fun i -> arr.((i + k) mod len))

let eligible t ~round ~slot =
  let all = List.init t.n Fun.id in
  if not t.enabled then rotate slot all
  else begin
    let active = List.filter (fun a -> is_active t ~round a) all in
    let pool = if active = [] then all else active in
    (* Score-descending; equal scores rotate by slot for fairness. *)
    let rot a = ((a + slot) mod t.n) + (if (a + slot) mod t.n < 0 then t.n else 0) in
    List.stable_sort
      (fun a b ->
        let c = Int.compare t.scores.(b) t.scores.(a) in
        if c <> 0 then c else Int.compare (rot a) (rot b))
      pool
  end
