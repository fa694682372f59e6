(** Named counters, gauges and HDR-style histograms.

    The measurement substrate of the observability layer: protocol code
    records into handles obtained by name (get-or-create), and reporting
    code takes an immutable {!snapshot} at the end of a run. One registry
    is typically shared by every replica of a simulated cluster, so
    counters aggregate cluster-wide totals directly.

    Naming convention used across the repo (dot-separated namespaces):
    - [commit.fast_direct | commit.certified_direct | commit.indirect |
      commit.skipped] — anchor commit-rule outcomes;
    - [stage.submit_to_batch | stage.batch_to_proposal |
      stage.proposal_to_commit | stage.commit_to_order] — per-transaction
      latency decomposition histograms (ms), and [latency.e2e] — the
      end-to-end latency histogram (ms);
    - [dag.proposals | dag.certs_formed | dag.timeouts | dag.fetches] —
      DAG-instance activity;
    - [dag<k>.txns | dag<k>.segments | dag<k>.latency] — per-parallel-DAG
      attribution;
    - [ledger.dag<k>.<rule>.<stage>] — stage latency keyed by lane and
      commit rule.

    The [stage.*], [latency.e2e], [dag<k>.txns], [dag<k>.latency] and
    [ledger.*] instruments are recorded by the runtime's latency ledger
    for every system (Shoal++ and its variants, Jolteon, Mysticeti), so all
    of them export one latency namespace.

    Invariants:
    - handles are get-or-create by name: re-requesting a name returns the
      same live instrument, never resets it;
    - {!snapshot} lists counters, gauges and histograms sorted by name
      (sorted-key traversal, not hash order), so exported metrics are
      byte-stable across OCaml versions;
    - [merge] only adds: the destination's snapshot afterwards is
      independent of the order in which sources were merged;
    - histogram bucket views are cumulative and monotone: in
      [hs_buckets] the upper bounds strictly increase and the cumulative
      counts end at [hs_count], so a Prometheus rendering of a snapshot
      is valid by construction. *)

type counter
type gauge

module Histogram : sig
  type t

  val create : string -> t

  val observe : t -> float -> unit
  (** O(1), allocation-free; geometric buckets with ~7% relative error. *)

  val bucket_of : float -> int
  (** The bucket a value falls in: one [log]. *)

  val observe_in : t -> bucket:int -> float -> unit
  (** [observe_in h ~bucket:(bucket_of v) v] is [observe h v]: a value
      recorded into several histograms computes its bucket once. *)

  val name : t -> string
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  val min : t -> float
  val max : t -> float

  val quantile : t -> float -> float
  (** [quantile t 0.5] = median estimate; [nan] when empty. *)

  val cumulative_buckets : t -> (float * int) list
  (** Sparse cumulative bucket view: [(upper_bound, cumulative_count)] for
      each non-empty bucket, with bounds strictly increasing, cumulative
      counts non-decreasing, and the final count equal to {!count} (the
      unbounded last bucket surfaces as [infinity]). Empty when no value
      was observed. This is the shape a Prometheus histogram exposition
      requires. *)

  val merge_into : src:t -> dst:t -> unit
end

type t

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-create; the handle can be cached for hot paths. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val counter_name : counter -> string

val gauge : t -> string -> gauge
val set : gauge -> float -> unit

val histogram : t -> string -> Histogram.t
val observe : Histogram.t -> float -> unit

val incr_named : ?by:int -> t -> string -> unit
val observe_named : t -> string -> float -> unit
val set_named : t -> string -> float -> unit
(** By-name conveniences (one hash lookup per call) for cold paths. *)

val get_counter : t -> string -> int
(** 0 when the counter does not exist. *)

val get_histogram : t -> string -> Histogram.t option

(** {2 Snapshots} *)

type histogram_stats = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_mean : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
  hs_buckets : (float * int) list;
      (** sparse cumulative buckets, see {!Histogram.cumulative_buckets} *)
}

type snapshot = {
  snap_counters : (string * int) list;  (** sorted by name *)
  snap_gauges : (string * float) list;
  snap_histograms : histogram_stats list;
}

val snapshot : t -> snapshot
val empty_snapshot : snapshot

val snap_counter : snapshot -> string -> int
(** 0 when absent. *)

val snap_histogram : snapshot -> string -> histogram_stats option

val merge : src:t -> dst:t -> unit
(** Accumulate [src] into [dst] (counters add, gauges overwrite,
    histograms merge bucket-wise). *)
