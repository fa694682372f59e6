(** The bounded-memory checkpoint lifecycle of one Shoal++ replica: vote,
    certify, install, truncate, gate, restore and peer adoption.

    The replica hands the manager every segment it merges ({!observe},
    Alg. 3's global sequence), and the manager folds them into a running
    digest. The merge runs one anchor round at a time ({!round_merged}
    marks the end of each round). The lanes' drivers attach a snapshot to
    the segment that closes every R-th round (R = [interval / num_dags]),
    and a merged round is a voted seam if every lane's segment closing it
    carried one (no lane closed it only implicitly): there
    the manager forms a candidate from the lanes' snapshots, votes on its
    digest over the control plane, and certifies it on a quorum of
    matching votes. Seams come at the round rate, so a vote round trip
    fits between two of them even though multi-anchor rounds commit
    several segments per round. A certified checkpoint is persisted to a
    dedicated WAL device; once that write is durable, the device drops
    every older blob, and each lane's protocol WAL entries below the
    checkpoint's seam round for that lane are truncated. Install also
    raises each lane's retain gate. After a crash the manager restores the
    newest verified local checkpoint, and {!adopt} takes a newer one from
    a peer's answer to the restart's catch-up loop
    ({!Shoalpp_sync.Sync.Client}, which asks the peers).

    The manager runs on the merge domain. It never touches a lane: every
    effect on the replica — the vote broadcast, lane gates, WAL devices
    and the rewind of the merge and the lanes — is one of the {!effects}
    closures. It sends no request and arms no timer of its own.

    Invariants:
    - with checkpointing on, the replica's commit sequence is
      byte-identical to a run with checkpointing off: votes travel the
      out-of-band control plane, which draws no RNG and perturbs no
      protocol queue, and every checkpoint input is a deterministic
      function of the committed prefix;
    - which seams are voted is a function of the ordered log alone (the
      merged round and each lane's explicit close of it), so every
      replica votes the same seams, a restored or adopting one included:
      its merge resumes at the round after the checkpoint's seam;
    - pruning (WAL truncation, the lanes' retain gates) happens only under
      a certificate that passed {!Shoalpp_storage.Checkpoint.verify} —
      never on local state alone; a blob read back from the local device
      or received from a peer is adopted only after the same check;
    - at most one candidate is pending: a voted seam replaces it (counted
      in [ck.superseded] if it was not certified), a seam that is not
      voted leaves it alone;
    - buffered votes are bounded: stale ones (at or below the latest
      certified seq), duplicates per voter, votes beyond the horizon and
      votes failing their signature check are refused;
    - a lane's protocol WAL is truncated only below that lane's seam round
      in a checkpoint whose blob is durable on the checkpoint device, so a
      restart restores that checkpoint or a newer one and replays every
      retained round above its seams, whatever the lanes' phase;
    - the checkpoint device holds at most one durable blob once a write
      has synced: the newest, which {!recover} restores;
    - {!served_blob} is the encoding of {!latest} at every moment the
      merge domain is between calls: the two are set together. *)

type effects = {
  now : unit -> float;  (** the replica's clock (trace timestamps) *)
  broadcast_vote : Shoalpp_dag.Types.message -> unit;
      (** broadcast our own [Checkpoint_vote] on the control plane *)
  on_lane : int -> (Shoalpp_sim.Obs.t -> unit) -> unit;
      (** run on the domain that owns lane [i] (and WAL device [i]), with
          that domain's observability sink: a direct call in single-domain
          mode, so no event is added *)
  set_gate : int -> round:int -> unit;
      (** raise lane [i]'s retain gate; called only from [on_lane i] *)
  wal : int -> Shoalpp_storage.Wal.t;
      (** the protocol WAL device holding lane [i]'s entries: the one
          shared WAL in single-domain mode, lane [i]'s own under multicore
          placement *)
  rewind : seq:int -> Shoalpp_storage.Checkpoint.lane list -> unit;
      (** rewind the merge to [seq + 1], its cursor to lane 0 of the
          round after the lanes' seam round, and each listed lane's driver
          and instance to its resume blob *)
}

type t

val create :
  config:Config.t ->
  replica_id:int ->
  obs:Shoalpp_sim.Obs.t ->
  device:Shoalpp_storage.Wal.t ->
  effects ->
  t option
(** [None] when [config]'s effective checkpoint interval is 0. [device] is
    the checkpoint device: a retaining WAL of its own, as interleaving
    blob writes into the protocol WAL would perturb the group-commit
    timing every vote and proposal persist depends on. *)

val observe : t -> Shoalpp_consensus.Driver.segment -> unit
(** The next merged segment: fold it into the running digest and keep
    its driver snapshot, if it carries one. *)

val round_merged : t -> replaying:bool -> seq:int -> round:int -> unit
(** The merge has finished anchor round [round]; [seq] is the global
    sequence of the last merged segment. At a voted seam, form the
    candidate (counted in [ck.boundaries]), vote on it unless
    [replaying], and try to certify. *)

val on_vote : t -> global_seq:int -> Shoalpp_dag.Types.message -> unit
(** An inbound control-plane [Checkpoint_vote] (anything else is ignored);
    [global_seq] is the replica's merge position, which anchors the
    horizon. *)

val recover : t -> wipe:bool -> unit
(** After a crash: forget votes and the running digest; with [wipe], also
    the checkpoint device. Otherwise restore the newest local checkpoint
    that verifies, if any (rewinding the merge and the lanes to it). A
    peer's newer one comes later, through {!adopt}. *)

val adopt : t -> global_seq:int -> string option -> bool
(** A peer's answer to a [Get_checkpoint] request. True iff it is a blob
    that verifies: then, if it is newer than the merge position
    [global_seq], it is restored (the merge and the lanes rewind to it) and
    persisted. False for [None] or an unverifiable blob (counted in
    [ck.adopt_rejected]), on which the caller asks the next peer. *)

val latest : t -> Shoalpp_storage.Checkpoint.t option
(** Newest certified (or restored) checkpoint. *)

val served_blob : t -> string option
(** {!latest}, wire-encoded, as {!Shoalpp_sync.Sync.Server} serves it:
    encoded once wherever {!latest} changes and published through an
    [Atomic], so any domain may read it. *)
