module Wire = Shoalpp_codec.Wire

type t = {
  n : int;
  window : int;
  staleness : int;
  enabled : bool;
  scores : int array; (* segments supported within the window *)
  last_round : int array; (* highest ordered node round per author; -1 = never *)
  last_support : int array; (* highest anchor round the author supported *)
  recent : string Queue.t;
      (* per-segment supporter lists, oldest first, each held as the bytes
         a snapshot writes for it (count-prefixed varints, as
         [Wire.Writer.list] would): encoded once when the segment is
         observed, decoded once when it leaves the window. *)
  miss_threshold : int;
  miss : int array; (* consecutive skipped-anchor streak per author *)
  mutable highest_anchor_round : int;
}

let create ~n ?(window = 64) ?(staleness = 8) ?(miss_threshold = 2) ~enabled () =
  {
    n;
    window;
    staleness;
    enabled;
    scores = Array.make n 0;
    last_round = Array.make n (-1);
    last_support = Array.make n (-1);
    recent = Queue.create ();
    miss_threshold;
    miss = Array.make n 0;
    highest_anchor_round = -1;
  }

let encode_supporters sup =
  let w = Wire.Writer.create ~initial:16 () in
  Wire.Writer.list w (Wire.Writer.uint w) sup;
  Wire.Writer.contents w

let decode_supporters bytes =
  Wire.Reader.list (Wire.Reader.of_string bytes) Wire.Reader.uint

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
  let supporters =
    List.sort_uniq Int.compare (List.filter (fun a -> a >= 0 && a < t.n) supporters)
  in
  List.iter
    (fun a ->
      t.scores.(a) <- t.scores.(a) + 1;
      t.miss.(a) <- 0;
      if anchor_round > t.last_support.(a) then t.last_support.(a) <- anchor_round)
    supporters;
  Queue.push (encode_supporters supporters) t.recent;
  if Queue.length t.recent > t.window then begin
    let evicted = decode_supporters (Queue.pop t.recent) in
    List.iter (fun a -> t.scores.(a) <- t.scores.(a) - 1) evicted
  end

(* A skipped anchor is part of the committed prefix (the Skip_to decision is
   final and agreed), so penalizing it keeps the scheme a deterministic
   function of that prefix. Streaks reset on the next supported segment. *)
let observe_skip t ~round:_ ~author =
  if author >= 0 && author < t.n then t.miss.(author) <- t.miss.(author) + 1

let miss_streak t a = t.miss.(a)
let score t a = t.scores.(a)
let last_ordered_round t a = t.last_round.(a)

let is_active t ~round a =
  t.miss.(a) < t.miss_threshold
  && (t.highest_anchor_round < 0 (* cold start: everyone active *)
     || t.last_support.(a) >= round - t.staleness)

(* Checkpoint support: the whole state is a bounded window over the
   committed prefix, so it serializes into a few int arrays plus the
   window's pre-encoded supporter lists. Fields that can be -1 are shifted
   by one (varints are unsigned). *)
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
    d_recent = List.of_seq (Seq.map decode_supporters (Queue.to_seq t.recent));
    d_highest_anchor_round = t.highest_anchor_round;
  }

let wint w v = Wire.Writer.uint w (v + 1)
let rint rd = Wire.Reader.uint rd - 1

let write t w =
  let ints arr =
    Wire.Writer.uint w (Array.length arr);
    Array.iter (wint w) arr
  in
  ints t.scores;
  ints t.last_round;
  ints t.last_support;
  ints t.miss;
  Wire.Writer.uint w (Queue.length t.recent);
  Queue.iter (Wire.Writer.raw w) t.recent;
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
  Queue.clear t.recent;
  List.iter (fun sup -> Queue.push (encode_supporters sup) t.recent) recent;
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
