(** The bounded-memory checkpoint lifecycle of one Shoal++ replica: vote,
    certify, install, truncate, gate, restore and peer adoption.

    Every [interval] merged segments (Alg. 3's global sequence) the
    replica hands the manager the segments it merged ({!observe}); the
    manager folds them into a running digest, forms a candidate from each
    lane's latest driver snapshot, votes on its digest over the control
    plane, and certifies it on a quorum of matching votes. A certified
    checkpoint is persisted to a dedicated always-retaining WAL device,
    rotates and truncates the protocol WAL devices, and raises each lane's
    retain gate. After a crash the manager restores the newest verified
    local checkpoint and can probe peers for a newer one.

    The manager runs on the merge domain. It never touches a lane: every
    effect on the replica — sends, timers, lane gates, WAL devices and the
    rewind of the merge and the lanes — is one of the {!effects} closures.

    Invariants:
    - with checkpointing on, the replica's commit sequence is
      byte-identical to a run with checkpointing off: votes travel the
      out-of-band control plane, which draws no RNG and perturbs no
      protocol queue, and every checkpoint input is a deterministic
      function of the committed prefix;
    - pruning (WAL truncation, the lanes' retain gates) happens only under
      a certificate that passed {!Shoalpp_storage.Checkpoint.verify} —
      never on local state alone; a blob read back from the local device
      or received from a peer is adopted only after the same check;
    - at most one candidate is pending: a boundary overwrites it;
    - buffered votes are bounded: stale ones (at or below the latest
      certified seq), duplicates per voter, votes beyond the horizon and
      votes failing their signature check are refused;
    - each WAL device keeps at most two rotation marks, so replay covers
      the last two checkpoint windows;
    - {!served_blob} is the encoding of {!latest} at every moment the
      merge domain is between calls: the two are set together. *)

type effects = {
  now : unit -> float;  (** the replica's clock (trace timestamps) *)
  broadcast_vote : Shoalpp_dag.Types.message -> unit;
      (** broadcast our own [Checkpoint_vote] on the control plane *)
  send_probe : dst:int -> unit;  (** send a [Get_checkpoint] request to [dst] *)
  schedule : after:float -> (unit -> unit) -> unit;
      (** run later on the merge domain; dropped if the replica crashed
          in the meantime *)
  on_lane : int -> (Shoalpp_sim.Obs.t -> unit) -> unit;
      (** run on the domain that owns lane [i] (and WAL device [i]), with
          that domain's observability sink: a direct call in single-domain
          mode, so no event is added *)
  set_gate : int -> round:int -> unit;
      (** raise lane [i]'s retain gate; called only from [on_lane i] *)
  wal : int -> Shoalpp_storage.Wal.t;  (** protocol WAL device [i] *)
  rewind : seq:int -> Shoalpp_storage.Checkpoint.lane list -> unit;
      (** rewind the merge to [seq + 1] and each listed lane's driver and
          instance to its resume blob *)
}

type t

val create :
  config:Config.t ->
  replica_id:int ->
  obs:Shoalpp_sim.Obs.t ->
  timers:Shoalpp_backend.Backend.Timers.t ->
  wal_devices:int ->
  effects ->
  t option
(** [None] when [config]'s effective checkpoint interval is 0. The
    protocol WAL devices are [0 .. wal_devices - 1]: the one shared WAL in
    single-domain mode, one per lane under multicore placement. *)

val observe : t -> replaying:bool -> seq:int -> Shoalpp_consensus.Driver.segment -> unit
(** The segment merged at global sequence [seq]. At a boundary, form the
    candidate, vote on it unless [replaying], and try to certify. *)

val on_vote : t -> global_seq:int -> Shoalpp_dag.Types.message -> unit
(** An inbound control-plane [Checkpoint_vote] (anything else is ignored);
    [global_seq] is the replica's merge position, which anchors the
    horizon. *)

val recover : t -> wipe:bool -> unit
(** After a crash: forget votes and the running digest; with [wipe], also
    the checkpoint device and the rotation marks. Otherwise restore the
    newest local checkpoint that verifies, if any. *)

val probe : t -> on_done:(unit -> unit) -> unit
(** Ask peers in rotation (400 ms retry on silence, up to two passes) for
    their newest certified checkpoint; adopt one that verifies and is
    newer than the merge position, then call [on_done]. *)

val probing : t -> bool
(** True while a {!probe} is unresolved. *)

val on_blob : t -> global_seq:int -> string option -> unit
(** A peer's answer to the probe; call only while {!probing}. *)

val latest : t -> Shoalpp_storage.Checkpoint.t option
(** Newest certified (or restored) checkpoint. *)

val served_blob : t -> string option
(** {!latest}, wire-encoded, as {!Shoalpp_sync.Sync.Server} serves it:
    encoded once wherever {!latest} changes and published through an
    [Atomic], so any domain may read it. *)
