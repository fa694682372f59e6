(** Protocol configuration and the presets compared in the paper.

    A single parameterized replica implements the whole certified-DAG family;
    the presets differ in anchor schedule, commit rules, reputation, round
    wait policy, and the number of parallel DAGs:

    - {!bullshark}: anchors every other round, direct commit only, no
      reputation, liveness timeout on the round's anchor, k=1.
    - {!shoal}: anchors every round, reputation, k=1.
    - {!shoalpp}: all three Shoal++ augmentations — fast direct commit,
      all-eligible anchors with lockstep timeout, k=3 DAGs kept in phase.
    - [with_dags]: the paper's "Bullshark/Shoal More DAGs" variants.

    Invariants:
    - presets are immutable values: constructing or running one config never
      mutates another, and no global state is involved;
    - a config plus a seed fully determines replica behaviour — every knob
      that affects the protocol is in this record;
    - [k >= 1] and anchor schedules stay within the configured DAG count. *)

type t = {
  committee : Shoalpp_dag.Committee.t;
  name : string;
  num_dags : int;
      (** k, the DAG lanes. They start together; their phase (§5.3: k DAGs
          about a round/k apart) is kept by {!Replica}'s phase gate. *)
  batch_cap : int;
  wait_policy : Shoalpp_dag.Instance.wait_policy;
  all_to_all_votes : bool;  (** §5.4 variant: quadratic vote broadcast, saves 1 md *)
  mode : Shoalpp_consensus.Anchors.mode;
  fast_commit : bool;
  reputation : bool;
  verify_signatures : bool;
  wal_sync_ms : float;
  fetch_delay_ms : float;
  gc_depth : int;
  checkpoint_interval : int;
      (** C, the checkpoint cadence (0 = checkpointing and
          pruning-to-checkpoint off). Rounded up to a multiple of
          [num_dags] = k — see {!effective_checkpoint_interval}. One seam
          per R = C/k merged rounds: the Alg. 3 merge finishing every
          R-th anchor round is a seam, carrying each lane's driver
          snapshot taken where the lane closed that round, and it is voted
          if every lane closed the round explicitly. So one
          commit-certified checkpoint is voted per R merged rounds. *)
  seed : int;
}

val shoalpp : committee:Shoalpp_dag.Committee.t -> t
val shoal : committee:Shoalpp_dag.Committee.t -> t
val bullshark : committee:Shoalpp_dag.Committee.t -> t

val with_all_to_all : t -> t
(** The §5.4 all-to-all certification variant of the given protocol
    (replicas aggregate certificates locally from broadcast votes; one
    message delay less per round, quadratic vote traffic). *)

val with_dags : t -> int -> t
(** Run [k] staggered DAG instances of the given protocol ("More DAGs"). *)

val without_signature_checks : t -> t
(** For large benchmark sweeps; tests keep verification on. *)

val round_timeout : t -> float -> t
(** Replace the wait-policy timeout, keeping the policy's shape. *)

val with_checkpoint_interval : t -> int -> t
(** Enable checkpointing at cadence [interval] (0 disables): one seam per
    [interval / num_dags] merged rounds. *)

val effective_checkpoint_interval : t -> int
(** The configured interval rounded up to a multiple of [num_dags];
    divided by [num_dags] it is R, the merged anchor rounds per checkpoint
    seam. 0 when disabled. *)

val instance_config : t -> replica:int -> dag_id:int -> Shoalpp_dag.Instance.config
val driver_config : t -> dag_id:int -> Shoalpp_consensus.Driver.config
