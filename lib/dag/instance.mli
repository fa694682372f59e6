(** One replica's driver for one certified DAG instance.

    Implements the reliable-broadcast certification pipeline of §3.1:

    + broadcast a signed proposal for the current round;
    + vote (once per (round, author)) on first valid proposals received;
    + aggregate n-f votes into a certificate and broadcast it;
    + insert certified nodes into the local {!Store};

    plus round advancement with the configurable waiting policies that
    distinguish Bullshark / Shoal / Shoal++ (§5.2 "Round Timeouts"), and
    asynchronous off-critical-path fetching of missing node data (§7
    "Efficient fetching").

    The instance is transport-agnostic: it emits messages and consumes
    events through the [callbacks] record, so unit tests can drive it
    synchronously and the runtime wires it to the simulated network.

    Invariants:
    - at most one vote per (round, author) ever leaves this replica, and a
      certificate is formed only from n-f distinct signers;
    - the current round only advances (monotone), and only when the round's
      waiting policy is satisfied;
    - garbage collection never drops state at or above the collection
      round, and re-delivered messages for collected rounds are ignored. *)

(** What, beyond an n-f certificate quorum, a replica waits for before
    advancing its round. The timeout always runs from the round's start. *)
type wait_policy =
  | Quorum_only
      (** advance the instant n-f round certificates are known. *)
  | Anchors_or_timeout of float
      (** also wait (up to the timeout) for the round's anchor candidates —
          Bullshark's liveness timeout, also used for Shoal. *)
  | All_or_timeout of float
      (** also wait (up to the timeout) for {e all} n nodes — Shoal++'s
          lockstep rule, letting every node be a viable anchor. *)

type config = {
  committee : Committee.t;
  replica : int;
  dag_id : int;
  batch_cap : int;  (** max transactions pulled into one proposal (paper: 500) *)
  wait_policy : wait_policy;
  all_to_all_votes : bool;
      (** §5.4: broadcast votes to everyone and let each replica aggregate
          certificates locally, instead of the linear star pattern (votes to
          the proposer, who broadcasts the certificate). Saves one message
          delay per round at quadratic message cost. Default false. *)
  verify_signatures : bool;
  fetch_delay_ms : float;
      (** grace period before fetching a certificate's missing node data *)
  seed : int;
}

val default_config : committee:Committee.t -> replica:int -> config
(** Shoal++ defaults: [All_or_timeout 600.], batch cap 500, signature
    verification on, 20 ms fetch delay, dag_id 0. *)

type callbacks = {
  broadcast : Types.message -> unit;
  send : dst:int -> Types.message -> unit;
  now : unit -> float;
  schedule : after:float -> (unit -> unit) -> Shoalpp_backend.Backend.timer;
  pull_batch : max:int -> Shoalpp_workload.Transaction.t list;
  anchors_of_round : int -> int list;
      (** anchor candidates the wait policy may hold the round open for *)
  persist : Types.message -> (unit -> unit) -> unit;
      (** durable write of the message (the callee derives size, and may
          retain the encoded payload for crash-recovery replay); the vote
          on a proposal is withheld until its persist callback fires
          (crash-safety of the vote) *)
  on_proposal_noted : Types.node -> unit;  (** weak-vote counters changed *)
  on_certified : Types.certified_node -> unit;  (** store gained a node *)
  on_cert_meta : Types.node_ref -> unit;
      (** a certificate became known (node data possibly still missing) *)
}

type t

val create : ?obs:Shoalpp_sim.Obs.t -> config -> callbacks -> store:Store.t -> t
(** [obs] (default {!Shoalpp_sim.Obs.none}) receives typed trace events and
    [dag.*] telemetry counters; its replica/instance ids are overridden with
    this instance's [replica]/[dag_id]. *)

val start : t -> unit
(** Propose round 0 and begin advancing. *)

val resume : t -> unit
(** Post-recovery start: propose strictly above every round the replayed
    WAL reconstructed (own votes, certificates, certified nodes), so a
    restarted replica re-joins without double-proposing. Equivalent to
    {!start} on an empty log. *)

val timeout_backoff : t -> float
(** Current adaptive multiplier on the round timeout: 1.0 while rounds make
    progress, doubling (capped at 8.0) each time the round timer fires
    without any advancement — e.g. on the minority side of a partition or
    under repeated anchor misses. Reset by the next successful proposal. *)

val handle_message : t -> src:int -> Types.message -> unit

val crash : t -> unit
(** Stop all activity (timers become no-ops); used by fault injection. *)

val proposed_round : t -> int
(** Highest round this replica has proposed in; -1 before [start]. *)

val cert_known : t -> round:int -> author:int -> bool
val cert_ref_at : t -> round:int -> author:int -> Types.node_ref option

val fetch_missing : t -> Types.node_ref -> unit
(** Recover a certified node known only by reference: poll random peers
    (with retry) until its certificate and data arrive. Used by the
    consensus driver when a causal history has holes (§7 "Efficient
    fetching" — always off the commit critical path of other anchors). *)

val certs_known_at : t -> round:int -> int

val gc_upto : t -> round:int -> unit
(** Drop instance and store state below [round] — including the
    proposal-data KV — walking only the rounds between the previous floor
    (or the lowest round a late entry landed in since) and [round], and
    publish [gc.pruned_vertices] / [gc.pruned_data]
    counters and [gc.floor] / [gc.retained_rounds] gauges. With a retain
    gate installed ({!set_retain_gate}) the store and KV delete only below
    the gate; ordering still ignores everything below the logical floor. *)

val set_retain_gate : t -> round:int -> unit
(** Checkpoint-anchored physical pruning: monotonically raise the store's
    retain gate to [round] (the latest certified checkpoint's resume floor)
    and sweep store rounds plus proposal data whose deletion the previous
    gate deferred. Installing a gate of 0 at startup defers all physical
    deletion until a first checkpoint certifies. *)

val awaiting_data : t -> int
(** Certificates whose node data is still being fetched. An entry is
    dropped once GC passes its round; fetching for it stops then. *)

val lowest_round : t -> int
(** Current GC floor: rounds below it are pruned and their messages
    ignored. *)

val ingest_certified : t -> Types.certified_node -> unit
(** Validate and insert a certified node obtained out of band (the catch-up
    sync protocol). Identical to receiving a [Fetch_response]: full
    structural + signature validation, store insertion, delivery of any
    certificate that was awaiting the data. No-op on a crashed instance. *)

(** Introspection counters for tests and reports. *)

val proposals_made : t -> int
val votes_cast : t -> int
val certs_formed : t -> int
val fetches_sent : t -> int
val invalid_dropped : t -> int
