module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Committee = Shoalpp_dag.Committee
module Obs = Shoalpp_sim.Obs
module Trace = Shoalpp_sim.Trace
module Wire = Shoalpp_codec.Wire
module Bitset = Shoalpp_support.Bitset

type kind = Fast | Direct | Indirect

type segment = {
  dag_id : int;
  anchor : Types.node_ref;
  kind : kind;
  nodes : Types.certified_node list;
  committed_at : float;
  closes : bool;
      (* The anchor round's candidate vector is exhausted after this
         segment. The vector is a function of the committed prefix, so
         every replica sets the same flag. *)
  resume : string Lazy.t option;
      (* Checkpoint snapshot of the driver's post-segment state, attached to
         the segment that closes a round r with (r + 1) mod
         [snapshot_rounds] = 0. A pure function of the committed prefix (no
         clocks, no local DAG progress), so replicas with equal prefixes
         attach byte-equal blobs — which is what lets the checkpoint digest
         cover it. The state is copied at emission and encoded only when
         forced: a seam is voted only if every lane closed its round. *)
}

type config = {
  committee : Committee.t;
  dag_id : int;
  mode : Anchors.mode;
  fast_commit : bool;
  direct_threshold : int;
  reputation_enabled : bool;
  reputation_window : int;
  staleness : int;
  gc_depth : int;
  snapshot_rounds : int;
      (** attach a resume blob where a round r with (r + 1) mod this = 0
          closes; 0 = never. Set to [checkpoint_interval / num_dags], so
          blobs land on the checkpoint seams of the merged stream. *)
}

let default_config ~committee =
  {
    committee;
    dag_id = 0;
    mode = Anchors.All_eligible;
    fast_commit = true;
    direct_threshold = Committee.weak_quorum committee;
    reputation_enabled = true;
    reputation_window = 64;
    staleness = 8;
    gc_depth = 12;
    snapshot_rounds = 0;
  }

type hooks = {
  now : unit -> float;
  cert_ref : round:int -> author:int -> Types.node_ref option;
  request_fetch : Types.node_ref -> unit;
  on_segment : segment -> unit;
  request_gc : round:int -> unit;
  direct_guard : (round:int -> author:int -> bool) option;
}

type stats = {
  fast_commits : int;
  direct_commits : int;
  indirect_commits : int;
  skipped_anchors : int;
  segments : int;
  nodes_ordered : int;
}

(* Ordered-position set: one author bitset per round, in a ring of [cap]
   rows (a power of two) covering rounds [lo, hi]; round r's row is
   [rows.(r land (cap - 1))]. Rows outside [lo, hi] are empty. The hot
   skip test during causal traversal is an index and a bit test;
   snapshots and prunes walk rounds, never a hash table, and [size] is
   kept as bits flip. *)
type positions = {
  n : int;
  mutable rows : Bitset.t array;
  mutable lo : int;
  mutable hi : int; (* empty when lo > hi *)
  mutable size : int;
}

let positions_create n =
  { n; rows = Array.init 16 (fun _ -> Bitset.create n); lo = max_int; hi = min_int; size = 0 }

let row p round = p.rows.(round land (Array.length p.rows - 1))

let positions_mem p ~round ~author =
  round >= p.lo && round <= p.hi && Bitset.mem (row p round) author

let positions_add p ~round ~author =
  let lo, hi = if p.lo > p.hi then (round, round) else (min p.lo round, max p.hi round) in
  if hi - lo + 1 > Array.length p.rows then begin
    (* Grow the ring; live rows move to their slots under the new mask. *)
    let cap = ref (Array.length p.rows) in
    while hi - lo + 1 > !cap do
      cap := 2 * !cap
    done;
    let rows = Array.init !cap (fun _ -> Bitset.create p.n) in
    for round = p.lo to p.hi do
      rows.(round land (!cap - 1)) <- row p round
    done;
    p.rows <- rows
  end;
  p.lo <- lo;
  p.hi <- hi;
  let r = row p round in
  if not (Bitset.mem r author) then begin
    Bitset.set r author;
    p.size <- p.size + 1
  end

(* Drop rounds below [below]; returns the positions dropped. *)
let positions_prune p ~below =
  let dropped = ref 0 in
  for round = p.lo to min p.hi (below - 1) do
    dropped := !dropped + Bitset.count (row p round);
    p.rows.(round land (Array.length p.rows - 1)) <- Bitset.create p.n
  done;
  if below > p.lo then p.lo <- below;
  p.size <- p.size - !dropped;
  !dropped

(* The rows of every position at or above [from], copied: the first
   row is round [from]. *)
let positions_window p ~from =
  let from = max from p.lo in
  (from, Array.init (max 0 (p.hi - from + 1)) (fun i -> Bitset.copy (row p (from + i))))

(* Append a window's packed keys [round * n + author], count-prefixed and
   ascending: the bytes [Wire.Writer.list] would write for the sorted key
   list. *)
let window_write ~n (from, rows) w =
  Wire.Writer.uint w (Array.fold_left (fun acc r -> acc + Bitset.count r) 0 rows);
  Array.iteri
    (fun i r -> Bitset.iter (fun author -> Wire.Writer.uint w (((from + i) * n) + author)) r)
    rows

type t = {
  cfg : config;
  hooks : hooks;
  store : Store.t;
  rep : Reputation.t;
  obs : Obs.t;
  c_fast : Shoalpp_support.Telemetry.counter option;
  c_cert_direct : Shoalpp_support.Telemetry.counter option;
  c_indirect : Shoalpp_support.Telemetry.counter option;
  c_skipped : Shoalpp_support.Telemetry.counter option;
  c_segments : Shoalpp_support.Telemetry.counter option;
  mutable ordered : positions;
  (* Memoized last complete [Store.causal_history] answer. A complete
     history is a pure function of (root, ordered set, store's retained
     floor): the first two are captured here and the entry is dropped
     whenever [ordered] grows, the third is revalidated on lookup. This
     collapses the resolve-then-output double walk over the same anchor. *)
  mutable history_cache :
    (Types.node_ref * int (* lowest_retained *) * Types.certified_node list) option;
  mutable cur_round : int; (* round whose candidate vector is being resolved *)
  mutable pending : int list; (* remaining candidate authors for cur_round *)
  mutable in_notify : bool;
  mutable fast_commits : int;
  mutable direct_commits : int;
  mutable indirect_commits : int;
  mutable skipped_anchors : int;
  mutable segments : int;
  mutable nodes_ordered : int;
}

let create ?(obs = Obs.none) cfg hooks ~store =
  let obs = Obs.with_instance obs ~instance:cfg.dag_id in
  {
    cfg;
    hooks;
    store;
    rep =
      Reputation.create ~n:cfg.committee.Committee.n ~window:cfg.reputation_window
        ~staleness:cfg.staleness ~enabled:cfg.reputation_enabled ();
    obs;
    c_fast = Obs.counter obs Anchors.(counter_name Fast_direct);
    c_cert_direct = Obs.counter obs Anchors.(counter_name Certified_direct);
    c_indirect = Obs.counter obs Anchors.(counter_name Indirect_rule);
    c_skipped = Obs.counter obs Anchors.(counter_name Skipped);
    c_segments = Obs.counter obs "dag.segments";
    ordered = positions_create cfg.committee.Committee.n;
    history_cache = None;
    cur_round = 0;
    pending = [];
    in_notify = false;
    fast_commits = 0;
    direct_commits = 0;
    indirect_commits = 0;
    skipped_anchors = 0;
    segments = 0;
    nodes_ordered = 0;
  }

let anchors_of_round t round = Anchors.candidates t.cfg.mode t.rep ~round
let current_anchor_round t = t.cur_round
let is_ordered t ~round ~author = positions_mem t.ordered ~round ~author

let stats t =
  {
    fast_commits = t.fast_commits;
    direct_commits = t.direct_commits;
    indirect_commits = t.indirect_commits;
    skipped_anchors = t.skipped_anchors;
    segments = t.segments;
    nodes_ordered = t.nodes_ordered;
  }

let reputation t = t.rep

let fast_quorum t = Committee.fast_quorum t.cfg.committee

let fetch_position t ~round ~author =
  (* We know the position must be certified (its children reference it) but
     never received the certificate: fetch by position (zero digest). *)
  t.hooks.request_fetch
    { Types.ref_round = round; ref_author = author; ref_digest = Shoalpp_crypto.Digest32.zero }

(* A position is direct-committable when f+1 certified children reference
   it, or (fast rule) 2f+1 round r+1 proposals reference it and its own
   certificate is known. *)
let direct_kind t ~round ~author =
  let guard_ok =
    match t.hooks.direct_guard with None -> true | Some g -> g ~round ~author
  in
  if not guard_ok then None
  else if t.cfg.fast_commit && Store.weak_votes t.store ~round ~author >= fast_quorum t then begin
    if Option.is_some (t.hooks.cert_ref ~round ~author) then Some Fast
    else begin
      (* 2f+1 proposals reference the position, so it is certified somewhere
         — we just never received the certificate. Recover it. *)
      fetch_position t ~round ~author;
      if Store.certified_refs t.store ~round ~author >= t.cfg.direct_threshold then Some Direct
      else None
    end
  end
  else if Store.certified_refs t.store ~round ~author >= t.cfg.direct_threshold then Some Direct
  else None

type resolution =
  | Commit_self of kind
  | Skip_to of { anchor_round : int; anchor_author : int }
  | Undecided

(* Check that [anchor_ref]'s (unordered) causal history is fully present
   locally; request fetches otherwise. Completeness makes the subsequent
   position_ancestor queries give the same answers at every replica. *)
let history_complete t anchor_ref =
  match t.history_cache with
  | Some (root, floor, nodes)
    when Types.ref_equal root anchor_ref && floor = Store.lowest_retained t.store ->
    Some nodes
  | _ -> (
    match
      Store.causal_history t.store anchor_ref ~skip:(fun (r : Types.node_ref) ->
          positions_mem t.ordered ~round:r.Types.ref_round ~author:r.Types.ref_author)
    with
    | Ok nodes ->
      t.history_cache <- Some (anchor_ref, Store.lowest_retained t.store, nodes);
      Some nodes
    | Error missing ->
      List.iter t.hooks.request_fetch missing;
      None)

(* One-shot Bullshark instance above candidate (r, a): instance anchors at
   rounds r+2, r+4, ...; find the first evaluation round whose anchor
   direct-commits, walk back to the earliest committed instance anchor, and
   resolve the candidate against its causal history. *)
let resolve_indirect t ~round ~author =
  let horizon = Store.highest_round t.store in
  let rec scan q =
    if q > horizon then Undecided
    else begin
      let b = Anchors.instance_anchor t.rep ~round:q in
      match direct_kind t ~round:q ~author:b with
      | None -> scan (q + 2)
      | Some _ -> (
        match t.hooks.cert_ref ~round:q ~author:b with
        | None ->
          fetch_position t ~round:q ~author:b;
          Undecided (* certificate metadata not yet local *)
        | Some b_ref -> (
          match history_complete t b_ref with
          | None -> Undecided (* waiting on fetches *)
          | Some _ ->
            (* Backward walk: earliest committed instance anchor. *)
            let lowest = ref b_ref in
            let lowest_round = ref q in
            let q' = ref (q - 2) in
            while !q' >= round + 2 do
              let c = Anchors.instance_anchor t.rep ~round:!q' in
              if Store.position_ancestor t.store ~round:!q' ~author:c ~of_:!lowest then begin
                match
                  Store.get t.store ~round:!q' ~author:c
                with
                | Some cn ->
                  lowest := Types.ref_of_node cn.Types.cn_node;
                  lowest_round := !q'
                | None -> () (* complete history + ancestor => present; defensive *)
              end;
              q' := !q' - 2
            done;
            if Store.position_ancestor t.store ~round ~author ~of_:!lowest then Commit_self Indirect
            else begin
              let anchor_author = (!lowest).Types.ref_author in
              Skip_to { anchor_round = !lowest_round; anchor_author }
            end))
    end
  in
  scan (round + 2)

let resolve_candidate t ~round ~author =
  match direct_kind t ~round ~author with
  | Some kind -> Commit_self kind
  | None -> resolve_indirect t ~round ~author

(* ------------------------------------------------------------------ *)
(* Checkpoint snapshot blob.

   Everything the driver needs to resume ordering mid-history: the current
   candidate round and its remaining vector, the per-lane segment count,
   the ordered-position window at or above the store's retained floor, and
   the full reputation state. All of it is a deterministic function of the
   committed prefix.

   Varints are unsigned; fields that can be -1 are shifted by one. *)

(* Copy the state a snapshot encodes, and defer the encoding: only a voted
   seam's snapshot is ever forced. The copies make the blob the same
   whenever (and on whichever domain) it is forced. *)
let capture t =
  let cur_round = t.cur_round and pending = t.pending and segments = t.segments in
  let skipped = t.skipped_anchors and floor = Store.lowest_retained t.store in
  let window = positions_window t.ordered ~from:floor and rep = Reputation.copy t.rep in
  let n = t.ordered.n in
  lazy
    (let w = Wire.Writer.create ~initial:256 () in
     Wire.Writer.uint w cur_round;
     Wire.Writer.list w (fun a -> Wire.Writer.uint w a) pending;
     Wire.Writer.uint w segments;
     Wire.Writer.uint w skipped;
     Wire.Writer.uint w floor;
     (* The round walk yields keys ascending: no table order reaches the
        (digested) blob. *)
     window_write ~n window w;
     Reputation.write rep w;
     Wire.Writer.contents w)

let snapshot t = Lazy.force (capture t)

let restore t blob =
  let rd = Wire.Reader.of_string blob in
  t.cur_round <- Wire.Reader.uint rd;
  t.pending <- Wire.Reader.list rd Wire.Reader.uint;
  t.segments <- Wire.Reader.uint rd;
  t.skipped_anchors <- Wire.Reader.uint rd;
  let floor = Wire.Reader.uint rd in
  let positions = Wire.Reader.list rd Wire.Reader.uint in
  let n = t.cfg.committee.Committee.n in
  t.ordered <- positions_create n;
  List.iter (fun k -> positions_add t.ordered ~round:(k / n) ~author:(k mod n)) positions;
  Reputation.read t.rep rd;
  Wire.Reader.expect_end rd;
  t.history_cache <- None;
  floor

let snapshot_floor blob =
  let rd = Wire.Reader.of_string blob in
  ignore (Wire.Reader.uint rd) (* cur_round *);
  ignore (Wire.Reader.list rd Wire.Reader.uint) (* pending *);
  ignore (Wire.Reader.uint rd) (* segments *);
  ignore (Wire.Reader.uint rd) (* skipped_anchors *);
  Wire.Reader.uint rd

let prune_ordered t ~below =
  let dropped = positions_prune t.ordered ~below in
  if dropped > 0 then t.history_cache <- None;
  dropped

let ordered_size t = t.ordered.size

(* Emit the segment for a committed anchor position. Returns false when node
   data is still missing (fetches have been requested; [finish] does not
   run). On success [finish] runs after the ordered/reputation updates and
   {e before} the segment is handed to [on_segment] — it applies the
   caller's post-segment scheduling state (pending vector, skip accounting,
   round advance), so a snapshot taken here captures exactly the state a
   restored replica must resume from. [finish] returns a deferred closure
   that is run {e after} [on_segment]/[request_gc]: trace emission for the
   skip set stays in its pre-refactor position so event streams (and the
   golden digests over them) are unchanged. *)
let output_segment t ~round ~author ~kind ~finish =
  match t.hooks.cert_ref ~round ~author with
  | None ->
    fetch_position t ~round ~author;
    false
  | Some anchor_ref -> (
    match history_complete t anchor_ref with
    | None -> false
    | Some nodes ->
      List.iter
        (fun (cn : Types.certified_node) ->
          let node = cn.Types.cn_node in
          positions_add t.ordered ~round:node.Types.round ~author:node.Types.author)
        nodes;
      (* The ordered set grew: any memoized history is now stale. *)
      t.history_cache <- None;
      let positions =
        List.map
          (fun (cn : Types.certified_node) ->
            (cn.Types.cn_node.Types.round, cn.Types.cn_node.Types.author))
          nodes
      in
      (* Reputation credit goes to the anchor and its strong parents — the
         replicas whose timely references committed it. *)
      let supporters =
        match Store.get t.store ~round ~author with
        | Some anchor_cn ->
          author
          :: List.map
               (fun (p : Types.node_ref) -> p.Types.ref_author)
               anchor_cn.Types.cn_node.Types.parents
        | None -> [ author ]
      in
      Reputation.observe_segment t.rep ~anchor_round:round ~supporters ~node_positions:positions;
      (match kind with
      | Fast ->
        t.fast_commits <- t.fast_commits + 1;
        Obs.incr_c t.c_fast
      | Direct ->
        t.direct_commits <- t.direct_commits + 1;
        Obs.incr_c t.c_cert_direct
      | Indirect ->
        t.indirect_commits <- t.indirect_commits + 1;
        Obs.incr_c t.c_indirect);
      t.segments <- t.segments + 1;
      Obs.incr_c t.c_segments;
      let count = List.length nodes in
      t.nodes_ordered <- t.nodes_ordered + count;
      (* Trace payloads are built only when a trace is attached. *)
      if Obs.tracing t.obs then begin
        let time = t.hooks.now () in
        Obs.event t.obs ~time
          (match kind with
          | Fast -> Trace.Anchor_direct_fast { round; anchor = author }
          | Direct -> Trace.Anchor_direct_certified { round; anchor = author }
          | Indirect -> Trace.Anchor_indirect { round; anchor = author });
        Obs.event t.obs ~time (Trace.Segment_committed { round; anchor = author; nodes = count })
      end;
      let deferred = finish () in
      let closes = t.pending = [] in
      let resume =
        if closes && t.cfg.snapshot_rounds > 0 && (round + 1) mod t.cfg.snapshot_rounds = 0 then
          Some (capture t)
        else None
      in
      t.hooks.on_segment
        {
          dag_id = t.cfg.dag_id;
          anchor = anchor_ref;
          kind;
          nodes;
          committed_at = t.hooks.now ();
          closes;
          resume;
        };
      if round - t.cfg.gc_depth > 0 then t.hooks.request_gc ~round:(round - t.cfg.gc_depth);
      deferred ();
      true)

let notify t =
  if not t.in_notify then begin
    t.in_notify <- true;
    let progress = ref true in
    while !progress do
      progress := false;
      (* Refill the candidate vector; anchors only make sense for rounds the
         local DAG has reached. *)
      while t.pending = [] && t.cur_round < Store.highest_round t.store do
        t.cur_round <- t.cur_round + 1;
        t.pending <- anchors_of_round t t.cur_round
      done;
      match t.pending with
      | [] -> ()
      | author :: rest -> (
        match resolve_candidate t ~round:t.cur_round ~author with
        | Undecided -> ()
        | Commit_self kind ->
          if
            output_segment t ~round:t.cur_round ~author ~kind ~finish:(fun () ->
                t.pending <- rest;
                ignore)
          then progress := true
        | Skip_to { anchor_round; anchor_author } ->
          let finish () =
            (* §5.2 SKIP_TO: committing the target anchor elides every
               candidate that precedes it in the deterministic schedule —
               the rest of the current round's vector AND the prefix of
               [anchor_round]'s own vector up to and including the target.
               The skip set is agreed (it is implied by the committed
               Skip_to target and the deterministic vectors), so feeding it
               to reputation keeps the eligible vectors identical at every
               correct replica: repeatedly skipped (silent/withheld)
               anchors drop out. State updates happen now (pre-snapshot);
               trace emission is deferred to keep the event stream order. *)
            let skipped = ref [] in
            let skip ~round author =
              t.skipped_anchors <- t.skipped_anchors + 1;
              Obs.incr_c t.c_skipped;
              skipped := (round, author) :: !skipped;
              Reputation.observe_skip t.rep ~round ~author
            in
            List.iter (skip ~round:t.cur_round) (author :: rest);
            (* Note: the vector is recomputed *after* the segment and skips
               above fed reputation, so the committed anchor need not sit at
               its head — elide (and count) exactly the prefix before it.
               If the target is absent from the schedule entirely (possible
               under Every_other_round, whose slots differ from the
               instance-anchor slots), no candidate of the round precedes
               it and the whole vector remains pending. *)
            let rec split_after acc = function
              | [] -> None
              | a :: tl when a = anchor_author -> Some (List.rev acc, tl)
              | a :: tl -> split_after (a :: acc) tl
            in
            let vector = anchors_of_round t anchor_round in
            (match split_after [] vector with
            | Some (prefix, suffix) ->
              List.iter (skip ~round:anchor_round) prefix;
              t.pending <- suffix
            | None -> t.pending <- vector);
            t.cur_round <- anchor_round;
            let skipped = List.rev !skipped in
            fun () ->
              let time = t.hooks.now () in
              List.iter
                (fun (round, author) ->
                  Obs.event t.obs ~time (Trace.Anchor_skipped { round; anchor = author }))
                skipped
          in
          if output_segment t ~round:anchor_round ~author:anchor_author ~kind:Indirect ~finish
          then progress := true)
    done;
    t.in_notify <- false
  end
