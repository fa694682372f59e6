(** Uniform result record for all systems (Shoal++ family and baselines), so
    figure harnesses can tabulate them side by side.

    Invariants:
    - every field is system-agnostic: baselines without a DAG leave the
      commit-rule counts at 0 rather than omitting them;
    - rendering handles empty runs — zero commits print explicit zero rows
      (stage table, per-DAG attribution), never NaNs or missing lines. *)

type t = {
  name : string;
  n : int;
  load_tps : float;
  duration_ms : float;
  submitted : int;
  committed : int;
  committed_tps : float;
  latency_p25 : float;
  latency_p50 : float;
  latency_p75 : float;
  latency_mean : float;
  fast_commits : int;
  direct_commits : int;
  indirect_commits : int;
  skipped_anchors : int;
  messages_sent : int;
  messages_dropped : int;
  bytes_sent : float;
  telemetry : Shoalpp_support.Telemetry.snapshot;
      (** {!Shoalpp_support.Telemetry.empty_snapshot} for runs without a
          registry *)
  trace_dropped : int;
      (** events evicted from the run's trace ring (0 when untraced);
          {!pp_extended} warns visibly when positive *)
}

val make :
  name:string ->
  n:int ->
  load_tps:float ->
  duration_ms:float ->
  submitted:int ->
  ledger:Ledger.t ->
  ?fast_commits:int ->
  ?direct_commits:int ->
  ?indirect_commits:int ->
  ?skipped_anchors:int ->
  messages_sent:int ->
  messages_dropped:int ->
  bytes_sent:float ->
  ?telemetry:Shoalpp_support.Telemetry.snapshot ->
  ?trace_dropped:int ->
  unit ->
  t
(** [committed], [committed_tps] and the latency fields are read from
    [ledger]'s warmup-cut summary. *)

val rule_mix : t -> (Shoalpp_consensus.Anchors.rule * float) list
(** Fractions of anchor resolutions per commit rule (fast-direct /
    certified-direct / indirect / skipped). *)

val pp : Format.formatter -> t -> unit
val pp_rule_mix : Format.formatter -> t -> unit

val pp_extended : Format.formatter -> t -> unit
(** {!pp} plus the commit-rule mix, and — when the run carried a telemetry
    registry — the per-stage latency breakdown and per-DAG tps/latency. *)

val table_header : string list
val table_row : t -> string list
(** For {!Shoalpp_support.Tablefmt}. *)
