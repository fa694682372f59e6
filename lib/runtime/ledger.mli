(** The latency ledger: the one place an ordered transaction's latency is
    recorded, for every system (Shoal++ and its DAG variants, Jolteon,
    Mysticeti).

    Latency is measured exactly as in the paper (§8): the time between a
    transaction's arrival at its local replica and the moment that replica
    appends a segment (or block) containing it to its global log. Every
    system hands its ordered units to the commit sink of {!Harness} (shared
    by {!Cluster} and {!Node}), the one caller of {!record}: once per
    transaction, at its origin replica, with five pipeline timestamps
    (submit, batch, DAG inclusion, anchor commit, global order).
    Everything else is derived here:
    - a bounded ring of raw entries backing the admin endpoint's [/ledger]
      JSON tail;
    - stage deltas keyed [ledger.dag<k>.<rule_tag>.<stage>], so a fast-path
      commit's pipeline can be compared against an indirect one's;
    - the aggregate [stage.submit_to_batch | stage.batch_to_proposal |
      stage.proposal_to_commit | stage.commit_to_order] and [latency.e2e]
      histograms, and per DAG lane the [dag<k>.latency] histogram and
      [dag<k>.txns] counter;
    - the warmup-cut latency summary ({!latency}, {!committed},
      {!committed_tps}) and the dense per-second series
      ({!throughput_series}, {!latency_series}).

    Invariants:
    - recording is effect-free beyond this value and the attached telemetry
      registry: no trace events, no scheduled timers, no I/O — a ledger on
      the simulated cluster leaves golden trace digests, event counts and
      exported trace bytes byte-identical;
    - each origin transaction is recorded at most once (the call site
      records only [origin = replica_id] commits outside WAL replay and catch-up),
      so [recorded] counts unique origin commits; each aggregate
      histogram, the keyed histograms of one stage summed over lanes and
      rules, and the [dag<k>.latency] histograms and [dag<k>.txns]
      counters summed over lanes all hold exactly [recorded] samples;
    - the warmup rule is single and uniform: an entry enters the summary
      and the series iff [le_ordered >= warmup_ms] — judged on order time,
      never on submission — so {!committed} and the sum of
      {!throughput_series} agree exactly;
    - both series are dense over the observed span: a window in which
      nothing was ordered (a crash, a partition) appears as an explicit
      zero row, so fault stalls stay visible;
    - the ring keeps the newest {!capacity} entries; {!dropped} = total
      recorded - retained, never negative;
    - {!breakdown} rows are deterministically ordered (DAG id, then rule,
      then pipeline stage) regardless of snapshot hash order. *)

type entry = {
  le_tx : int;  (** transaction id *)
  le_origin : int;  (** origin replica (= the recording replica) *)
  le_dag : int;  (** DAG lane that carried the transaction *)
  le_rule : Shoalpp_consensus.Anchors.rule;  (** rule that committed its anchor *)
  le_seq : int;  (** global sequence of the ordered segment *)
  le_submitted : float;  (** ms: client submit *)
  le_batched : float;  (** ms: batch sealed *)
  le_included : float;  (** ms: DAG node (proposal) created *)
  le_committed : float;  (** ms: anchor commit decision *)
  le_ordered : float;  (** ms: segment interleaved into the global log *)
}

val stage_names : string list
(** The keyed pipeline stages in order ([submit_to_batch],
    [batch_to_inclusion], [inclusion_to_commit], [commit_to_order]) plus
    [e2e]. They aggregate, in the same order, into [stage.submit_to_batch],
    [stage.batch_to_proposal], [stage.proposal_to_commit],
    [stage.commit_to_order] and [latency.e2e]. *)

val aggregate_names : string list
(** Those five aggregate histogram names, in the same order. *)

val rule_of_kind : Shoalpp_consensus.Driver.kind -> Shoalpp_consensus.Anchors.rule
(** Committed segments map [Fast -> Fast_direct], [Direct ->
    Certified_direct], [Indirect -> Indirect_rule]; [Skipped] anchors never
    produce a segment, so no entry carries it. *)

val metric_name :
  dag:int -> rule:Shoalpp_consensus.Anchors.rule -> string -> string
(** ["ledger.dag<k>.<rule_tag>.<stage>"] — the telemetry histogram a stage
    delta is aggregated into. *)

type t

val capacity : int
(** 4096: the raw-entry ring's size. Histograms, the summary and the series
    aggregate every entry regardless. *)

val create :
  ?telemetry:Shoalpp_support.Telemetry.t -> ?warmup_ms:float -> ?num_dags:int -> unit -> t
(** Entries ordered before [warmup_ms] (default 0) are left out of the
    summary and the series. With a [telemetry] registry, the aggregate
    histograms and the [dag<k>.*] instruments of lanes [0 .. num_dags - 1]
    (default 1) are registered at once, so a lane that never commits still
    exports an explicit zero; a higher lane is registered on its first
    entry. *)

val record : t -> entry -> unit

val recorded : t -> int

val dropped : t -> int
(** Entries evicted from the ring (aggregates still include them). *)

(** {2 Warmup-cut latency and throughput} *)

val latency : t -> Shoalpp_support.Stats.Summary.t
(** End-to-end latency ([le_ordered - le_submitted], ms) of every entry
    ordered at or after the warmup. *)

val committed : t -> int
(** Entries ordered at or after the warmup: unique transactions committed
    at their origin. *)

val committed_tps : t -> duration_ms:float -> float
(** {!committed} per second of the post-warmup part of [duration_ms]. *)

val throughput_series : t -> (float * float) list
(** (window start ms, tx/s) over 1 s windows — Fig 8's series. *)

val latency_series : t -> (float * float) list
(** (window start ms, mean latency ms in that window). *)

val tail : ?limit:int -> t -> entry list
(** Retained entries oldest-first; [limit] keeps only the newest that
    many. *)

val json_tail : ?limit:int -> t -> string
(** JSON object [{recorded, dropped, entries: [...]}] — the [/ledger]
    admin endpoint body. *)

(** {2 Stage x rule x DAG breakdown} *)

type row = {
  br_dag : int;
  br_rule : Shoalpp_consensus.Anchors.rule;
  br_stage : string;
  br_stats : Shoalpp_support.Telemetry.histogram_stats;
}

val breakdown : Shoalpp_support.Telemetry.snapshot -> row list
(** All [ledger.*] histograms of a snapshot, parsed and sorted by
    (DAG, rule, pipeline stage). *)

val breakdown_table : Shoalpp_support.Telemetry.snapshot -> string
(** Human table (via {!Shoalpp_support.Tablefmt}) of {!breakdown}:
    percentiles per stage x rule x DAG. Empty runs render a header-only
    table. *)
