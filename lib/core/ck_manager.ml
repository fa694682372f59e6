module Types = Shoalpp_dag.Types
module Committee = Shoalpp_dag.Committee
module Validation = Shoalpp_dag.Validation
module Driver = Shoalpp_consensus.Driver
module Checkpoint = Shoalpp_storage.Checkpoint
module Wal = Shoalpp_storage.Wal
module Obs = Shoalpp_sim.Obs
module Trace = Shoalpp_sim.Trace
module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Int_map = Map.Make (Int)

(* How far (in global sequence numbers) ahead of local progress a
   checkpoint vote may be and still be buffered rather than dropped. *)
let vote_horizon = 4096

(* Silence from a probed peer for this long moves the probe on. *)
let probe_retry_ms = 400.0

type effects = {
  now : unit -> float;
  broadcast_vote : Types.message -> unit;
  send_probe : dst:int -> unit;
  schedule : after:float -> (unit -> unit) -> unit;
  on_lane : int -> (Obs.t -> unit) -> unit;
  set_gate : int -> round:int -> unit;
  wal : int -> Wal.t;
  rewind : seq:int -> Checkpoint.lane list -> unit;
}

(* The certified-checkpoint log is a {e separate} WAL device: interleaving
   its writes into the protocol WAL would perturb the group-commit timing
   every vote/proposal persist depends on. *)
type t = {
  committee : Committee.t;
  id : int;
  interval : int; (* effective interval: > 0, multiple of num_dags *)
  obs : Obs.t;
  fx : effects;
  wal : Wal.t; (* certified checkpoints only; always retains *)
  marks : int list array; (* per protocol WAL device: segments opened at checkpoints, newest first *)
  mutable state : Digest32.t; (* running commit-stream digest *)
  lane_latest : (int * string) option array; (* (anchor round, resume) per lane *)
  mutable candidate : Checkpoint.candidate option; (* ours, pending quorum *)
  mutable votes : (int * Digest32.t * Signer.signature) list Int_map.t; (* by seq *)
  mutable latest : Checkpoint.t option; (* newest certified checkpoint *)
  served : string option Atomic.t; (* [latest], encoded: read by lane domains *)
  mutable probe_attempt : int; (* peer rotation of the adoption probe; -1 = idle *)
  mutable probe_gen : int; (* bumped by each [probe]: a retry armed by an older probe is void *)
  mutable on_probed : unit -> unit;
}

let create ~config ~replica_id ~obs ~timers ~wal_devices fx =
  let interval = Config.effective_checkpoint_interval config in
  if interval = 0 then None
  else
    Some
      {
        committee = config.Config.committee;
        id = replica_id;
        interval;
        obs;
        fx;
        wal = Wal.create ~timers ~sync_latency_ms:config.Config.wal_sync_ms ~retain:true ();
        marks = Array.make wal_devices [];
        state = Digest32.zero;
        lane_latest = Array.make config.Config.num_dags None;
        candidate = None;
        votes = Int_map.empty;
        latest = None;
        served = Atomic.make None;
        probe_attempt = -1;
        probe_gen = 0;
        on_probed = ignore;
      }

(* The one reset of vote and fold state: forget the candidate and every
   vote buffered at or below [upto]; with [fold], also restart the running
   digest from it and forget each lane's resume blob. *)
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

(* Rotate every protocol WAL device and truncate below its previous mark.
   Two marks bound retention to the last two checkpoint windows: replay
   starts from the latest checkpoint, and the window before it still
   covers any round that was in flight when the boundary committed. A
   device belongs to its owner's domain, so the rotation runs there. *)
let truncate m =
  Array.iteri
    (fun d _ ->
      let wal = m.fx.wal d in
      m.fx.on_lane d (fun obs ->
          let seg = Wal.rotate wal in
          m.marks.(d) <-
            (match seg :: m.marks.(d) with
            | cur :: prev :: _ ->
              let dropped = Wal.truncate_below wal ~seg:prev in
              if dropped > 0 then Obs.incr ~by:dropped obs "ck.wal_truncated_entries";
              [ cur; prev ]
            | l -> l)))
    m.marks

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
  Wal.append m.wal ~size:(String.length blob) ~payload:(fun () -> blob) ignore;
  Obs.incr m.obs "ck.certified";
  Obs.set m.obs "ck.latest_seq" (float_of_int seq);
  Obs.event m.obs ~time:(m.fx.now ())
    (Trace.Checkpoint_certified { seq; signers = Multisig.num_signers (Checkpoint.cert ck) });
  truncate m

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

let boundary m ~replaying ~seq =
  (* The interval is a multiple of the lane count, so by the time the merge
     reaches a boundary every lane's last segment of the window carried a
     driver snapshot (snapshot_every = interval / num_dags). *)
  if Array.for_all Option.is_some m.lane_latest then begin
    let lanes =
      List.mapi
        (fun dag_id latest ->
          let round, resume = Option.get latest in
          { Checkpoint.dag_id; round; resume })
        (Array.to_list m.lane_latest)
    in
    let cand = Checkpoint.candidate ~seq ~lanes ~state:m.state in
    m.candidate <- Some cand;
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

let observe m ~replaying ~seq (segment : Driver.segment) =
  let anchor = segment.Driver.anchor in
  m.state <-
    Checkpoint.fold_segment m.state ~dag_id:segment.Driver.dag_id ~round:anchor.Types.ref_round
      ~author:anchor.Types.ref_author;
  (match segment.Driver.resume with
  | Some blob -> m.lane_latest.(segment.Driver.dag_id) <- Some (anchor.Types.ref_round, blob)
  | None -> ());
  if (seq + 1) mod m.interval = 0 then boundary m ~replaying ~seq

(* Rewind to a certified checkpoint: the running digest restarts from its
   state, the replica rewinds the merge and every lane, and everything
   below the restored floors is vouched for by the certificate, so
   physical retention restarts there. *)
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
    (fun acc blob ->
      match (of_blob m blob, acc) with
      | Some ck, Some prev when Checkpoint.seq ck <= Checkpoint.seq prev -> acc
      | Some ck, _ -> Some ck
      | None, _ -> acc)
    None (Wal.entries m.wal)

let recover m ~wipe =
  if wipe then begin
    Wal.clear m.wal;
    ignore (set_latest m None);
    Array.fill m.marks 0 (Array.length m.marks) []
  end;
  (* Vote state never survives a restart; the running digest restarts
     from zero (or from the restored checkpoint's state). *)
  reset m ~upto:max_int ~fold:Digest32.zero;
  if not wipe then Option.iter (fun ck -> ignore (restore m ck)) (newest_local m)

(* Peer-checkpoint probe, run on every checkpoint-aware restart (not just
   total disk loss): peers prune history below their own certified
   checkpoints, so an outage longer than the retained window can only be
   bridged by first adopting a frontier at least as new as the serving
   peer's floor. Peers are asked in deterministic rotation with a retry on
   silence; only a blob that verifies against the committee is adopted, and
   only when strictly newer than local durable state. If every peer answers
   [None] (the cluster never certified one), the probe resolves without. *)
let rec request m =
  let n = m.committee.Committee.n in
  if m.probe_attempt >= 2 * n then begin
    m.probe_attempt <- -1;
    m.on_probed ()
  end
  else begin
    let dst =
      let p = (m.id + 1 + m.probe_attempt) mod n in
      if p = m.id then (p + 1) mod n else p
    in
    let attempt = m.probe_attempt and gen = m.probe_gen in
    m.fx.send_probe ~dst;
    m.fx.schedule ~after:probe_retry_ms (fun () ->
        if m.probe_gen = gen && m.probe_attempt = attempt then next_peer m)
  end

and next_peer m =
  m.probe_attempt <- m.probe_attempt + 1;
  request m

let probe m ~on_done =
  m.on_probed <- on_done;
  m.probe_gen <- m.probe_gen + 1;
  m.probe_attempt <- 0;
  request m

let probing m = m.probe_attempt >= 0

let on_blob m ~global_seq blob =
  match Option.map (of_blob m) blob with
  | None -> next_peer m
  | Some None ->
    (* Unverifiable blob: never adopt — rotate to the next peer. *)
    Obs.incr m.obs "ck.adopt_rejected";
    next_peer m
  | Some (Some ck) ->
    m.probe_attempt <- -1;
    (* A peer frontier at or below our own adds nothing — keep local
       state (its WAL coverage is contiguous with it) and move on. *)
    if Checkpoint.seq ck + 1 > global_seq then begin
      let blob = restore m ck in
      Wal.append m.wal ~size:(String.length blob) ~payload:(fun () -> blob) ignore
    end;
    m.on_probed ()

let latest m = m.latest
let served_blob m = Atomic.get m.served
