(* Checked-in lint policy: which files each rule applies to, and the
   documented suppression list.

   Paths are repo-root-relative with '/' separators. An entry ending in '/'
   is a directory prefix; anything else matches one file exactly. Keeping
   the policy as a compiled OCaml value (rather than a parsed config file)
   means a typo is a build error and every change to the allowlist shows up
   in review next to the code it excuses. *)

type allow = {
  a_path : string;  (** file the suppression applies to *)
  a_rule : string;  (** rule id, e.g. ["effect-confinement"] *)
  a_reason : string;  (** why this is sound — shows up in [--explain] output *)
}

type role = Main | Lane | Pool
(** Domain roles of docs/CONCURRENCY.md: [Main] is the merge/commit domain
    (plus the realtime executor and every process entrypoint), [Lane] is a
    staggered-DAG lane domain, [Pool] is a verify-pool worker domain. A
    module mapped to several roles has instances (or globals) touched from
    all of them; the race rules treat that as the dangerous case. *)

let role_name = function Main -> "main" | Lane -> "lane" | Pool -> "pool"

type t = {
  effect_allowed : string list;
      (** Paths where ambient effects ([Unix], [Thread], [Mutex],
          [Condition], [Domain], [Sys.time], stdlib [Random]) are legal:
          the sans-I/O seam's impure side. Everywhere else they are
          [effect-confinement] errors. *)
  sorted_modules : string list;
      (** Modules whose output feeds trace export, report rendering,
          digests or message emission: raw [Hashtbl.iter]/[fold]/[to_seq]
          is a [sorted-iteration] error there — use
          [Shoalpp_support.Sorted_tbl]. *)
  polycmp_modules : string list;
      (** Protocol-key modules where bare [compare], [Hashtbl.hash] and
          structural [=]/[<>] on syntactically structured operands are
          [poly-compare] errors — use explicit comparators
          ([Int.compare], [Digest32.compare], ...). *)
  mli_required_under : string list;
      (** Directory prefixes where every [.ml] must have an [.mli]
          ([missing-mli]) and every [.mli] must carry an [Invariants:]
          doc-comment ([missing-invariants-doc]). *)
  allowlist : allow list;
      (** Documented per-(file, rule) suppressions. Entries that match no
          diagnostic are themselves reported ([stale-allowlist]), so the
          list cannot silently outlive the code it excuses. *)
  ownership : (string * role list) list;
      (** The checked-in domain-ownership map: which domain role(s) may
          execute each module's code. Longest pattern wins (an exact file
          entry overrides its directory prefix); a file-leading
          [[@@@shoalpp.domain "..."]] floating attribute overrides both.
          Empty list disables the race pass entirely (fixture configs for
          the older rules use that). The map drives:
          - [shared-mutable-state]: top-level mutable globals are flagged
            in any module *reachable* from more than one role (ownership
            union-propagated along the reference graph) unless Atomic,
            [[@@shoalpp.guarded_by]]-declared, or allowlisted;
          - [cross-domain-effect]: a module owned by role set A must not
            directly mutate state of a module owned by a disjoint role
            set B — such effects go through Backend.schedule/post;
          - [domain-ownership]: annotation validity (unknown roles,
            missing payloads, guarded_by naming no known mutex, typoed
            shoalpp.* attributes). *)
  lock_wrappers : string list;
      (** Function names (matched on the last path component) whose call
          arguments execute with the relevant mutex held: the blessed
          acquire-release wrappers. [lock-discipline] treats their
          argument expressions — plus bodies of [[@@shoalpp.requires_lock]]
          bindings and the continuation of the canonical
          lock/match-with-exception/unlock shape — as guarded spans. *)
}

let default =
  {
    (* The impure side of the sans-I/O seam: the wall-clock executor and
       the node subcommand that owns it are the only places allowed to
       name OS effects. *)
    effect_allowed = [ "lib/backend/"; "bin/node_cmd.ml" ];
    sorted_modules =
      [
        (* exporters and report renderers: their bytes are hashed by golden
           digests and diffed by the perf guard *)
        "lib/runtime/export.ml";
        "lib/runtime/report.ml";
        (* observability plane: ledger JSON/tables and the Prometheus body
           are scraped and diffed, so their iteration order must be stable *)
        "lib/runtime/ledger.ml";
        "lib/runtime/prom.ml";
        "lib/runtime/cluster.ml";
        "lib/baselines/experiment.ml";
        "lib/runtime/harness.ml";
        "lib/runtime/node.ml";
        "lib/support/telemetry.ml";
        "lib/support/stats.ml";
        "lib/support/sorted_tbl.ml";
        "lib/support/tablefmt.ml";
        (* event recording / digest inputs *)
        "lib/sim/trace.ml";
        "lib/sim/obs.ml";
        "lib/codec/wire.ml";
        (* checkpoint encodings are digest preimages; sync pages feed the
           wire — both must iterate deterministically *)
        "lib/storage/checkpoint.ml";
        "lib/sync/sync.ml";
        (* the driver's snapshot blob is part of a checkpoint-digest preimage *)
        "lib/consensus/driver.ml";
        (* socket emission: frame batches feed the wire, whose bytes the
           cross-transport golden test compares — iteration must be stable *)
        "lib/backend/tcp_transport.ml";
        (* commit paths that emit to the trace and the replica log *)
        "lib/baselines/jolteon.ml";
        "lib/baselines/mysticeti.ml";
        (* CLI / bench surfaces rendering tables and JSON *)
        "bin/";
        "bench/main.ml";
        (* trace analyzer: its report bytes are diffed in tests and by
           operators comparing runs, so iteration order must be stable *)
        "tools/trace/shoalpp_trace.ml";
      ];
    polycmp_modules =
      [
        "lib/dag/types.ml";
        "lib/dag/store.ml";
        "lib/dag/instance.ml";
        "lib/consensus/driver.ml";
        "lib/consensus/anchors.ml";
        "lib/consensus/reputation.ml";
        (* bounded-memory lifecycle: checkpoint digests and sync paging key
           on protocol coordinates (rounds, refs, signer indices) *)
        "lib/storage/checkpoint.ml";
        "lib/sync/sync.ml";
        (* the driver's snapshot blob is part of a checkpoint-digest preimage *)
        "lib/consensus/driver.ml";
        (* the shared run audit compares segment identities across replicas *)
        "lib/runtime/harness.ml";
      ];
    mli_required_under = [ "lib/" ];
    allowlist =
      [
        {
          a_path = "lib/support/sorted_tbl.ml";
          a_rule = "sorted-iteration";
          a_reason =
            "the blessed wrapper itself: its Hashtbl.fold materializes the \
             bindings which are then sorted before any caller sees them";
        };
        {
          a_path = "bench/main.ml";
          a_rule = "effect-confinement";
          a_reason =
            "bench harness wall-clock measurement (Unix.gettimeofday around \
             whole runs) and the bench record's machine block (the core \
             count, and the git rev read from a `git rev-parse HEAD` \
             child); both are reported, never fed back into simulated \
             behaviour";
        };
        {
          a_path = "lib/workload/mempool.ml";
          a_rule = "effect-confinement";
          a_reason =
            "a Mutex making each pool operation atomic, client catch-up \
             included: a replica's k proposers pull on every lane domain and \
             each pull first materializes the client arrivals due by now, \
             while the main domain requeues and stops clients. FIFO order, \
             ids and all counts are unchanged — the lock serializes exactly \
             the interleavings a single domain already produced, and the \
             simulator pays one uncontended lock";
        };
      ];
    (* Domain-ownership map (docs/CONCURRENCY.md, "Domain topology").
       Longest pattern wins: the exact-file entries below refine their
       directory defaults. Roles mean "which domain executes this code",
       not "who may call it" — the propagation step widens reachability
       along references, ownership itself stays as written here. *)
    ownership =
      [
        (* main-domain-only surfaces: process entrypoints, the runtime
           harness, observability, sim-only code, baselines, tooling *)
        ("bin/", [ Main ]);
        ("bench/", [ Main ]);
        ("tools/trace/", [ Main ]);
        ("lib/runtime/", [ Main ]);
        ("lib/sim/", [ Main ]);
        ("lib/baselines/", [ Main ]);
        (* protocol code: sequential per lane, one instance per lane domain *)
        ("lib/dag/", [ Lane ]);
        ("lib/consensus/", [ Lane ]);
        ("lib/core/", [ Lane ]);
        ("lib/storage/", [ Lane ]);
        ("lib/sync/", [ Lane ]);
        ("lib/workload/", [ Lane ]);
        (* signature checks run on verify-pool workers *)
        ("lib/crypto/", [ Pool ]);
        (* the seam itself plus leaf utility code: runs everywhere *)
        ("lib/backend/", [ Main; Lane; Pool ]);
        ("lib/support/", [ Main; Lane; Pool ]);
        ("lib/codec/", [ Main; Lane; Pool ]);
        (* refinements: the simulated backend is single-threaded main-domain
           code (the deterministic sim never spawns domains) ... *)
        ("lib/backend/backend_sim.ml", [ Main ]);
        (* ... while these are single instances shared across roles by design *)
        ("lib/workload/mempool.ml", [ Main; Lane ]);
        ("lib/dag/validation.ml", [ Lane; Pool ]);
        ("lib/core/replica.ml", [ Main; Lane ]);
      ];
    lock_wrappers = [ "with_mu"; "Mutex.protect" ];
  }
