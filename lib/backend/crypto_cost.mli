(** Modeled signature-verification service time.

    The repository's cryptography is a seeded model whose real CPU cost is
    a few microseconds per check — orders of magnitude below the ed25519 /
    BLS operations it stands in for. [pay ~us] charges the modeled cost as
    an explicit service time at the verification seam, following the same
    idiom as [wal_sync_ms] and [fetch_delay_ms]: a cost the deployment
    would pay, expressed as a parameter rather than burned silently.

    The realtime node charges it identically at every [--domains] value —
    inline on the event loop in single-domain mode, inside the
    {!Verify_pool} job in multicore mode — so a 1-vs-N comparison varies
    only {e where} the cost is paid, never how much. Service-time
    modeling is what lets the pool's concurrency show up even when
    hardware parallelism is absent; see docs/CONCURRENCY.md.

    Invariants:
    - [pay] performs no I/O and touches no shared state — it only blocks
      the calling domain, so calls from any domain are safe and
      independent;
    - a zero (or negative) charge is exactly free: the default
      configuration pays nothing and behaves as if this module did not
      exist;
    - the charge is wall-clock time, never simulated time — the
      deterministic simulator must not (and does not) call it. *)

val pay : us:float -> unit
(** Block the calling domain for [us] microseconds ([us <= 0] is free). *)
