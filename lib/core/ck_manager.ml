module Types = Shoalpp_dag.Types
module Committee = Shoalpp_dag.Committee
module Validation = Shoalpp_dag.Validation
module Driver = Shoalpp_consensus.Driver
module Checkpoint = Shoalpp_storage.Checkpoint
module Wal = Shoalpp_storage.Wal
module Obs = Shoalpp_sim.Obs
module Trace = Shoalpp_sim.Trace
module Telemetry = Shoalpp_support.Telemetry
module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Int_map = Map.Make (Int)

(* How far (in global sequence numbers) ahead of local progress a
   checkpoint vote may be and still be buffered rather than dropped. *)
let vote_horizon = 4096

type effects = {
  now : unit -> float;
  broadcast_vote : Types.message -> unit;
  on_lane : int -> (Obs.t -> unit) -> unit;
  set_gate : int -> round:int -> unit;
  wal : int -> Wal.t;
  rewind : seq:int -> Checkpoint.lane list -> unit;
}

type t = {
  committee : Committee.t;
  id : int;
  interval : int; (* effective interval: > 0, multiple of num_dags *)
  obs : Obs.t;
  (* Registered at creation, so a run shows them even at 0. *)
  c_boundaries : Telemetry.counter option; (* voted seams *)
  c_superseded : Telemetry.counter option; (* own candidates replaced uncertified *)
  c_certified : Telemetry.counter option;
  fx : effects;
  wal : Wal.t; (* certified checkpoint blobs, keyed by seq: the newest durable one *)
  mutable state : Digest32.t; (* running commit-stream digest *)
  lane_latest : (int * string Lazy.t) option array; (* per lane: anchor round, resume *)
  mutable candidate : Checkpoint.candidate option; (* ours, pending quorum *)
  mutable votes : (int * Digest32.t * Signer.signature) list Int_map.t; (* by seq *)
  mutable latest : Checkpoint.t option; (* newest certified checkpoint *)
  served : string option Atomic.t; (* [latest], encoded: read by lane domains *)
}

let create ~config ~replica_id ~obs ~device fx =
  let interval = Config.effective_checkpoint_interval config in
  if interval = 0 then None
  else
    Some
      {
        committee = config.Config.committee;
        id = replica_id;
        interval;
        obs;
        c_boundaries = Obs.counter obs "ck.boundaries";
        c_superseded = Obs.counter obs "ck.superseded";
        c_certified = Obs.counter obs "ck.certified";
        fx;
        wal = device;
        state = Digest32.zero;
        lane_latest = Array.make config.Config.num_dags None;
        candidate = None;
        votes = Int_map.empty;
        latest = None;
        served = Atomic.make None;
      }

(* The one reset of vote and fold state: forget the candidate and every
   vote buffered at or below [upto]; with [fold], also restart the running
   digest over the log from it and forget each lane's resume blob. *)
let reset ?fold m ~upto =
  m.candidate <- None;
  m.votes <- (let _, _, above = Int_map.split upto m.votes in above);
  match fold with
  | Some state ->
    m.state <- state;
    Array.fill m.lane_latest 0 (Array.length m.lane_latest) None
  | None -> ()

(* The one trust check: a checkpoint is used only if its certificate
   verifies against the committee; a blob must also decode. *)
let verified m ck =
  Checkpoint.verify ~keys:m.committee.Committee.keys ~quorum:(Committee.quorum m.committee) ck

let of_blob m blob =
  match Checkpoint.decode ~n:m.committee.Committee.n blob with
  | ck -> if verified m ck then Some ck else None
  | exception Shoalpp_codec.Wire.Reader.Malformed _ -> None

(* Persist [ck]'s blob on the checkpoint device, keyed by its seq. Once it
   is durable, {!newest_local} restores at least [ck], so the sync callback
   drops every older blob from the device, and, as [ck]'s rewind resumes
   each lane above its seam round, no replay needs a protocol WAL entry of
   lane d below that round: each lane is truncated there. A lane's WAL
   device belongs to its owner's domain, so its truncation runs there. *)
let persist m ck blob =
  let seq = Checkpoint.seq ck in
  Wal.append m.wal ~entry:{ Wal.lane = 0; round = seq; payload = (fun () -> blob) } (fun () ->
      ignore (Wal.truncate_below m.wal ~lane:0 ~round:seq);
      List.iter
        (fun (l : Checkpoint.lane) ->
          let d = l.Checkpoint.dag_id in
          if d < Array.length m.lane_latest then
            m.fx.on_lane d (fun obs ->
                let dropped = Wal.truncate_below (m.fx.wal d) ~lane:d ~round:l.Checkpoint.round in
                if dropped > 0 then Obs.incr ~by:dropped obs "ck.wal_truncated_entries"))
        (Checkpoint.lanes ck))

(* Checkpoint-anchored physical pruning: raise each lane's retain gate to
   [ck]'s per-lane resume floor, releasing the rounds whose deletion the
   previous gate deferred. Ordering is untouched — the logical GC floor
   advances with commit progress exactly as without checkpointing — but
   physical deletion waits for certification, so a peer restoring from a
   served checkpoint can always bridge from its floor to the live rounds. *)
let apply_gates m ck =
  List.iter
    (fun (l : Checkpoint.lane) ->
      let d = l.Checkpoint.dag_id in
      if d < Array.length m.lane_latest then
        match Driver.snapshot_floor l.Checkpoint.resume with
        | floor when floor > 0 -> m.fx.on_lane d (fun _ -> m.fx.set_gate d ~round:floor)
        | _ -> ()
        | exception Shoalpp_codec.Wire.Reader.Malformed _ -> ())
    (Checkpoint.lanes ck)

(* The one writer of [latest]. Its encoding is published with it as one
   immutable value, so a lane domain serving [Get_checkpoint] reads that
   value instead of encoding merge-domain state; the blob is returned for
   the checkpoint device. *)
let set_latest m ck =
  m.latest <- ck;
  let blob = Option.map Checkpoint.encode ck in
  Atomic.set m.served blob;
  blob

let install m ck =
  (* Gates advance to the {e superseded} checkpoint's floors: retention
     always covers the last two certified checkpoints, so a peer that just
     adopted the previous one can still pull every round it needs while we
     certify the next. *)
  Option.iter (apply_gates m) m.latest;
  let blob = Option.get (set_latest m (Some ck)) in
  let seq = Checkpoint.seq ck in
  reset m ~upto:seq;
  persist m ck blob;
  Obs.incr_c m.c_certified;
  Obs.set m.obs "ck.latest_seq" (float_of_int seq);
  Obs.event m.obs ~time:(m.fx.now ())
    (Trace.Checkpoint_certified { seq; signers = Multisig.num_signers (Checkpoint.cert ck) })

let try_certify m ~seq =
  match (m.candidate, Int_map.find_opt seq m.votes) with
  | Some cand, Some votes when cand.Checkpoint.seq = seq ->
    let digest = Checkpoint.digest cand in
    let matching = List.filter (fun (_, d, _) -> Digest32.equal d digest) votes in
    if List.length matching >= Committee.quorum m.committee then begin
      let sigs =
        List.sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (List.map (fun (v, _, s) -> (v, s)) matching)
      in
      let ck = Checkpoint.certify ~n:m.committee.Committee.n cand sigs in
      (* Refuse to prune on anything but a verified certificate. *)
      if verified m ck then install m ck else Obs.incr m.obs "ck.cert_rejected"
    end
  | _ -> ()

let on_vote m ~global_seq vote =
  match vote with
  | Types.Checkpoint_vote { ck_seq; ck_digest; ck_voter; ck_signature } ->
    let stale = match m.latest with Some ck -> ck_seq <= Checkpoint.seq ck | None -> false in
    (* Buffer votes for boundaries up to a fixed horizon ahead of whichever
       is further along: our own merge position or the last certified
       checkpoint. Anchoring the horizon to [latest] matters under real
       time: replicas drift by more than a few intervals of merge progress,
       and a vote dropped here is never re-sent — a horizon relative only
       to [global_seq] would let certification stall cluster-wide (and with
       it checkpoint-anchored pruning). The buffer stays bounded at
       [horizon / interval] boundaries of at most [n] votes each. *)
    let horizon =
      (match m.latest with
      | Some ck -> max global_seq (Checkpoint.seq ck + 1)
      | None -> global_seq)
      + vote_horizon + (4 * m.interval)
    in
    if (not stale) && ck_seq < horizon && Committee.valid_replica m.committee ck_voter then begin
      if Validation.signatures_ok ~committee:m.committee vote then begin
        let votes = Option.value (Int_map.find_opt ck_seq m.votes) ~default:[] in
        if not (List.exists (fun (v, _, _) -> Int.equal v ck_voter) votes) then begin
          m.votes <- Int_map.add ck_seq ((ck_voter, ck_digest, ck_signature) :: votes) m.votes;
          try_certify m ~seq:ck_seq
        end
      end
      else Obs.incr m.obs "ck.votes_rejected"
    end
  | _ -> ()

(* A seam is the merge finishing a round r in which every lane's segment
   closing r carried a driver snapshot. The drivers attach one where they
   close a round r with (r + 1) mod R = 0 (snapshot_rounds = R =
   interval / num_dags); a lane that left r only by committing a higher
   round has none there, and the seam is not voted. Both facts read the
   ordered log alone, so every replica votes the same seams, one per R
   merged rounds at most: the round rate, not the segment rate. *)
let round_merged m ~replaying ~seq ~round =
  let closed = function Some (r, _) -> r = round | None -> false in
  if Array.for_all closed m.lane_latest then begin
    let lanes =
      List.mapi
        (fun dag_id latest ->
          let round, resume = Option.get latest in
          { Checkpoint.dag_id; round; resume = Lazy.force resume })
        (Array.to_list m.lane_latest)
    in
    let cand = Checkpoint.candidate ~seq ~lanes ~state:m.state in
    if Option.is_some m.candidate then Obs.incr_c m.c_superseded;
    m.candidate <- Some cand;
    Obs.incr_c m.c_boundaries;
    if not replaying then
      m.fx.broadcast_vote
        (Types.Checkpoint_vote
           {
             ck_seq = seq;
             ck_digest = Checkpoint.digest cand;
             ck_voter = m.id;
             ck_signature = Checkpoint.sign (Committee.keypair m.committee m.id) cand;
           });
    (* faster peers' votes may already be buffered *)
    try_certify m ~seq
  end

let observe m (segment : Driver.segment) =
  let anchor = segment.Driver.anchor in
  m.state <-
    Checkpoint.fold_segment m.state ~dag_id:segment.Driver.dag_id ~round:anchor.Types.ref_round
      ~author:anchor.Types.ref_author;
  match segment.Driver.resume with
  | Some blob -> m.lane_latest.(segment.Driver.dag_id) <- Some (anchor.Types.ref_round, blob)
  | None -> ()

(* Rewind to a certified checkpoint: the fold over the log restarts from
   its state, the replica rewinds the merge (to the round after the seam)
   and every lane, and everything below the restored floors is vouched for
   by the certificate, so physical retention restarts there. *)
let restore m ck =
  let blob = Option.get (set_latest m (Some ck)) in
  reset m ~upto:max_int ~fold:(Checkpoint.state ck);
  m.fx.rewind ~seq:(Checkpoint.seq ck) (Checkpoint.lanes ck);
  apply_gates m ck;
  blob

(* Newest locally durable checkpoint that still verifies: anything
   malformed or under-signed in the device is skipped, never trusted. *)
let newest_local m =
  List.fold_left
    (fun acc (_, blob) ->
      match (of_blob m blob, acc) with
      | Some ck, Some prev when Checkpoint.seq ck <= Checkpoint.seq prev -> acc
      | Some ck, _ -> Some ck
      | None, _ -> acc)
    None (Wal.entries m.wal)

let recover m ~wipe =
  if wipe then begin
    Wal.clear m.wal;
    ignore (set_latest m None)
  end;
  (* Vote state never survives a restart; the fold over the log restarts
     from genesis (or from the restored checkpoint). *)
  reset m ~upto:max_int ~fold:Digest32.zero;
  if not wipe then Option.iter (fun ck -> ignore (restore m ck)) (newest_local m)

(* A peer's answer to the restart's checkpoint request. Peers prune
   history below their own certified checkpoints, so an outage longer than
   the retained window can only be bridged from an adopted frontier at
   least as new as the serving peer's floor. Only a blob that verifies
   against the committee is used (true), and it is adopted only when
   strictly newer than the merge position: a frontier at or below our own
   adds nothing, and local state's WAL coverage is contiguous with it. *)
let adopt m ~global_seq blob =
  match Option.map (of_blob m) blob with
  | None -> false
  | Some None ->
    Obs.incr m.obs "ck.adopt_rejected";
    false
  | Some (Some ck) ->
    if Checkpoint.seq ck + 1 > global_seq then persist m ck (restore m ck);
    true

let latest m = m.latest
let served_blob m = Atomic.get m.served
