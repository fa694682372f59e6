(** The embedded-consensus ordering driver for one DAG instance.

    An incremental, event-driven realization of NEXT_ORDERED_NODES (Alg. 2
    of the paper): it walks a deterministic sequence of anchor candidates
    and resolves each by the first applicable rule —

    - {e Fast Direct Commit} (Shoal++, §5.1): 2f+1 weak votes (round r+1
      {e proposals}) reference the anchor, whose certificate is known;
    - {e Direct Commit} (Bullshark): f+1 {e certified} round r+1 nodes
      reference the anchor;
    - {e Indirect}: a one-shot Bullshark instance with anchors every other
      round above the candidate; the candidate commits iff it is in the
      causal history of the instance's first committed anchor, and is
      skipped otherwise — in which case all tentative candidates below that
      anchor's round are skipped too (SKIP_TO, §5.2).

    Every resolved anchor emits a log {!segment}: its not-yet-ordered causal
    history in the deterministic (round, author) order. Segments also feed
    the reputation state, keeping anchor vectors identical at all correct
    replicas.

    The driver never blocks: when a candidate is unresolvable or ordering
    needs node data that has not arrived, it records what it is waiting for
    (requesting fetches for missing ancestors) and returns; [notify] is
    called again as the DAG grows.

    Invariants:
    - anchor candidates resolve strictly in schedule order; a segment is
      emitted at most once per anchor, and each node is ordered in at most
      one segment (the not-yet-ordered filter);
    - resolution is a deterministic function of the local DAG contents:
      replicas with the same DAG emit identical segment sequences;
    - reputation observes exactly the emitted segment / skip sequence, in
      order, so eligible vectors stay identical at all correct replicas. *)

type kind = Fast | Direct | Indirect

type segment = {
  dag_id : int;
  anchor : Shoalpp_dag.Types.node_ref;
  kind : kind;
  nodes : Shoalpp_dag.Types.certified_node list;
  committed_at : float;
  resume : string option;
      (** Opaque driver snapshot, present on every [snapshot_every]-th
          segment (checkpointing enabled). A deterministic function of the
          committed prefix: byte-identical at every correct replica emitting
          the same segment, and accepted by {!restore}. *)
}

type config = {
  committee : Shoalpp_dag.Committee.t;
  dag_id : int;
  mode : Anchors.mode;
  fast_commit : bool;
  direct_threshold : int;
      (** certified references required by the Direct Commit rule: f+1 for
          certified DAGs (Bullshark); 2f+1 when the "certified" nodes are
          uncertified best-effort blocks (the Mysticeti baseline reuses this
          driver with that threshold). *)
  reputation_enabled : bool;
  reputation_window : int;
  staleness : int;
  gc_depth : int;  (** rounds of history kept below the committed anchor *)
  snapshot_every : int;
      (** emit a {!segment.resume} snapshot every this many segments
          (0 = never; checkpointing off). *)
}

val default_config : committee:Shoalpp_dag.Committee.t -> config
(** Shoal++ preset: all-eligible anchors, fast commit, reputation on. *)

val bullshark_config : committee:Shoalpp_dag.Committee.t -> config
val shoal_config : committee:Shoalpp_dag.Committee.t -> config

type hooks = {
  now : unit -> float;
  cert_ref : round:int -> author:int -> Shoalpp_dag.Types.node_ref option;
      (** certificate metadata from the DAG instance (data may be missing) *)
  request_fetch : Shoalpp_dag.Types.node_ref -> unit;
      (** ask the instance to fetch a missing ancestor *)
  on_segment : segment -> unit;
  request_gc : round:int -> unit;
  direct_guard : (round:int -> author:int -> bool) option;
      (** extra condition ANDed into the Direct Commit rule. [None] for the
          certified family; the Mysticeti baseline uses it to require the
          round r+2 "certificate pattern" of Cordial Miners (commit only
          once a quorum of r+2 blocks is visible, making the commit path
          3 best-effort rounds). *)
}

type t

val create : ?obs:Shoalpp_sim.Obs.t -> config -> hooks -> store:Shoalpp_dag.Store.t -> t
(** [obs] (default {!Shoalpp_sim.Obs.none}) receives the anchor-resolution
    trace events ([Anchor_direct_fast] / [Anchor_direct_certified] /
    [Anchor_indirect] / [Anchor_skipped] / [Segment_committed]) and the
    [commit.*] rule counters (see {!Anchors.counter_name}); its instance id
    is overridden with [cfg.dag_id]. *)

val notify : t -> unit
(** Re-evaluate after any DAG change (new proposal noted, new certified
    node, new certificate). Emits zero or more segments. *)

val anchors_of_round : t -> int -> int list
(** Current anchor-candidate vector (for the instance's wait policy). *)

val current_anchor_round : t -> int
val is_ordered : t -> round:int -> author:int -> bool

type stats = {
  fast_commits : int;
  direct_commits : int;
  indirect_commits : int;
  skipped_anchors : int;
  segments : int;
  nodes_ordered : int;
}

val stats : t -> stats
val reputation : t -> Reputation.t

(** {2 Checkpoint lifecycle}

    Invariants:
    - [restore (create cfg hooks ~store) blob] with a blob produced by a
      driver with the same config reproduces the snapshotted ordering
      state exactly: subsequent segments are identical to those a replica
      that replayed the whole prefix would emit;
    - [prune_ordered] only forgets ordered-set entries strictly below the
      floor; membership queries at or above it are unaffected;
    - [restore] then [snapshot], over a store whose retained floor is the
      floor [restore] returned, gives back the restored blob byte for byte;
    - the ordered set is one author bitset per round: [snapshot] and
      [prune_ordered] cost the rounds they cover (popcounts, then the set
      bits), [ordered_size] is O(1), and a restored driver's bounds come
      from its blob, not from round 0;
    - [snapshot] writes the reputation window from bytes encoded once per
      observed segment, so a snapshot costs O(n + window) appends. *)

val snapshot : t -> string
(** The {!segment.resume} blob for the driver's current state. Its
    ordered-position window lists, ascending, every ordered position at or
    above the store's retained floor; building it walks only the rounds the
    ordered set spans. *)

val restore : t -> string -> int
(** Load a {!segment.resume} snapshot into a freshly created driver.
    Returns the store floor recorded in the snapshot: the caller must GC
    its DAG instance to (at least) that round before resuming, since the
    snapshot's ordered set only covers positions at or above it.
    @raise Shoalpp_codec.Wire.Reader.Malformed on a corrupt blob. *)

val snapshot_floor : string -> int
(** The store floor recorded in a {!segment.resume} snapshot — the lowest
    round a replica restoring from it can rebuild without peer help.
    Replicas gate their own store pruning at the latest certified
    checkpoint's floor so an adopter can always bridge from it to the live
    rounds.
    @raise Shoalpp_codec.Wire.Reader.Malformed on a corrupt blob. *)

val prune_ordered : t -> below:int -> int
(** Drop ordered-set entries for rounds below [below] (they can never be
    re-ordered: GC already ignores those rounds). Returns entries dropped. *)

val ordered_size : t -> int
(** Live entries in the ordered set (memory-ceiling telemetry). *)
