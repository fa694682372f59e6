(** Point-to-point message network over the simulation engine.

    Models, per message: sender egress serialization (a shared egress pipe of
    configurable bandwidth — this is what saturates first in the paper's
    throughput experiments), propagation delay from the topology, lognormal
    jitter, receiver CPU sequencing (a per-replica processing queue with
    fixed + per-byte costs), probabilistic egress drops, and crash faults.

    The payload type is a parameter so each protocol keeps its own typed
    messages; the declared [size] in bytes is what bandwidth and CPU are
    charged for, and message modules compute it from their wire encodings.

    Invariants:
    - all randomness (jitter, drops, slow epochs) comes from the network's
      own seeded stream, and fault checks (crash, partition) are evaluated
      {e after} the stream draws — injecting or healing a fault never
      perturbs the delays of unaffected messages;
    - per-replica delivery order is the engine's deterministic event order;
      a message is either delivered exactly once or counted in exactly one
      of the drop counters ({!messages_dropped}, {!messages_partitioned});
    - out-of-band control traffic ({!send_oob}/{!broadcast_oob}) draws no
      randomness and mutates no egress/CPU cursor — enabling it leaves the
      data plane's delivery schedule byte-identical. *)

type 'msg t

type send_order =
  | Fixed_order  (** ascending replica id — the naive pattern §7 warns about *)
  | Farthest_first  (** distance-based priority broadcast (§7) *)

type config = {
  bandwidth_bytes_per_ms : float;  (** egress pipe per replica; e.g. 1 Gbps = 125_000. *)
  jitter_ms : float;  (** lognormal jitter scale added to propagation; 0 disables. *)
  epoch_ms : float;
      (** duration of slow-epoch periods. Real WANs are non-stationary: which
          replicas are "slow" changes on a seconds timescale (the paper
          leans on this in §5.2). Each replica gets an extra egress delay,
          resampled each epoch. 0 disables. *)
  epoch_extra_mean_ms : float;  (** mean of the per-epoch extra delay (exponential). *)
  cpu_fixed_ms : float;  (** receiver cost per message. *)
  cpu_per_byte_ms : float;  (** receiver cost per payload byte. *)
  loopback_ms : float;  (** self-delivery latency. *)
  send_order : send_order;
}

val default_config : config
(** 1 Gbps egress, 2 ms jitter scale (typical WAN), 2 s slow epochs with
    8 ms mean extra delay, 2 µs + 0.4 ns/byte CPU, farthest-first sends. *)

val extra_delay_ms : _ t -> src:int -> time:float -> float
(** The slow-epoch extra delay in force for [src] at [time] (for tests). *)

val create :
  engine:Engine.t ->
  topology:Topology.t ->
  assignment:int array ->
  fault:Faults.timeline ->
  config:config ->
  seed:int ->
  unit ->
  'msg t

val n : _ t -> int
val engine : _ t -> Engine.t
val region_of : _ t -> int -> int

val set_handler : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** Install the receive callback for a replica. Messages arriving for a
    replica with no handler are counted and discarded. *)

val fault : _ t -> Faults.timeline
(** The fault timeline fixed at {!create}; nothing changes it later. *)

val send : 'msg t -> src:int -> dst:int -> size:int -> 'msg -> unit
(** Queue one message. Crashed senders send nothing; messages to crashed
    (at delivery time) replicas vanish; messages crossing an active
    partition are blocked (and counted in {!messages_partitioned}) without
    perturbing the jitter/drop random streams. *)

val broadcast : 'msg t -> src:int -> size:int -> ?include_self:bool -> 'msg -> unit
(** Send to every replica in the configured send order. [include_self]
    (default true) delivers a loopback copy without consuming egress.

    Internally the fan-out is batched: surviving deliveries are grouped by
    destination region, each group driven by one chained engine timer drawn
    from a pooled envelope, so a broadcast keeps [regions] timers pending
    rather than n. Per-destination egress serialization, jitter/drop draws,
    and delivery times are computed eagerly in send order and are exactly
    those of n independent {!send}s. *)

val base_delay_ms : 'msg t -> src:int -> dst:int -> float
(** Propagation-only delay (no jitter/bandwidth), for distance ordering and
    latency probes. *)

val send_oob : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Out-of-band control-plane delivery (checkpoint votes, catch-up sync):
    propagation delay plus a fixed pad, no egress serialization, no jitter
    or drop draws, no receiver CPU queueing — so control traffic cannot
    perturb the data plane's random streams or timing. Crash faults are
    honored at send and delivery time; partitions block (counted in
    {!oob_blocked}). *)

val broadcast_oob : 'msg t -> src:int -> ?include_self:bool -> 'msg -> unit
(** {!send_oob} to every replica in id order ([include_self] default true). *)

(** Counters for reporting. *)

val messages_sent : _ t -> int
val messages_dropped : _ t -> int

val messages_partitioned : _ t -> int
(** Messages blocked by an active partition (distinct from random drops). *)

val bytes_sent : _ t -> float

val oob_sent : _ t -> int
(** Control-plane messages delivered out of band. *)

val oob_blocked : _ t -> int
(** Control-plane messages blocked by an active partition. *)
