(* The benchmark's workloads and how one run of each is measured.

   Everything here goes through the public entry points of the two run
   harnesses ([Runtime.Cluster] on the simulator, [Runtime.Node] on a wall
   clock); no library code knows it is being measured. *)

module Cluster = Shoalpp_runtime.Cluster
module Node = Shoalpp_runtime.Node
module Metrics = Shoalpp_runtime.Metrics
module Ledger = Shoalpp_runtime.Ledger
module Report = Shoalpp_runtime.Report
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Committee = Shoalpp_dag.Committee
module Store = Shoalpp_dag.Store
module Driver = Shoalpp_consensus.Driver
module Topology = Shoalpp_sim.Topology
module Faults = Shoalpp_sim.Faults
module Engine = Shoalpp_sim.Engine
module Backend = Shoalpp_backend.Backend
module Realtime = Shoalpp_backend.Backend_realtime
module Tcp = Shoalpp_backend.Tcp_transport
module Telemetry = Shoalpp_support.Telemetry
module Summary = Shoalpp_support.Stats.Summary
module Wal = Shoalpp_storage.Wal
module Checkpoint = Shoalpp_storage.Checkpoint
module Digest32 = Shoalpp_crypto.Digest32

(* ---- workloads ------------------------------------------------------ *)

type sim = {
  n : int;
  topology : unit -> Topology.t;
  net : Shoalpp_backend.Backend_sim.net_config;
  load_tps : float;  (** aggregate open-loop Poisson load *)
  verify : bool;
  checkpoint_interval : int;
  scenario : Faults.t;
  warmup_ms : float;
  duration_ms : float;  (** simulated *)
  drain_ms : float;  (** submissions in the final [drain_ms] are not attempts *)
}

type node = {
  tcp_n : int;
  tcp_load_tps : float;
  tcp_warmup_ms : float;
  tcp_drain_ms : float;  (** clients stopped, loop still running *)
}

type workload = Sim of sim | Node_tcp of node

let workloads =
  [
    ( "sim-gcp10",
      Sim
        {
          n = 16;
          topology = Topology.gcp10;
          net = Shoalpp_backend.Backend_sim.default_net_config;
          load_tps = 5000.0;
          verify = true;
          checkpoint_interval = 0;
          scenario = Faults.none;
          warmup_ms = 2000.0;
          duration_ms = 10_000.0;
          drain_ms = 2000.0;
        } );
    ( "sim-lifecycle",
      Sim
        {
          n = 10;
          topology = (fun () -> Topology.clique ~regions:4 ~one_way_ms:25.0);
          (* Fixed delays: no jitter and no slow epochs, so where the crash
             lands in the round structure, and with it the latency it
             causes, does not depend on the seed. *)
          net =
            { Shoalpp_backend.Backend_sim.default_net_config with jitter_ms = 0.0; epoch_ms = 0.0 };
          load_tps = 2000.0;
          verify = false;
          checkpoint_interval = 12;
          scenario = Faults.crash_recover ~count:1 ~at:4000.0 ~recover_at:7000.0 ();
          warmup_ms = 2000.0;
          duration_ms = 12_000.0;
          drain_ms = 2000.0;
        } );
    ( "node-tcp-gcp10",
      Node_tcp { tcp_n = 10; tcp_load_tps = 5000.0; tcp_warmup_ms = 2000.0; tcp_drain_ms = 2000.0 }
    );
  ]

(* ---- a run's result ------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  metrics : metric list;
  notes : (string * string) list;  (** human-readable extras, in order *)
  problems : string list;  (** failed correctness checks; empty when correct *)
  attempted : int;
  failed : int;
  reps : (float * float) list;
      (** every repetition in run order: its process CPU and its median
          {!Calib} kernel time, both in seconds *)
}

let m name value unit_ = { name; value; unit_ }

(* ---- shared measurement helpers ------------------------------------ *)

(* Process CPU seconds, microsecond resolution (getrusage). *)
let cpu_now () = Sys.time ()

let wall_s f =
  let t0 = Probe.now_ns () in
  f ();
  (Probe.now_ns () -. t0) /. 1e9

(* [k] constructions, each after a full major collection: their wall
   times and a {!Calib} kernel time taken next to each. Runs take samples
   at several points, so the median is not set by one stretch of the
   host. *)
let setup_samples build k =
  List.init k (fun _ ->
      Gc.full_major ();
      let kernel = Calib.kernel_s () in
      (wall_s (fun () -> ignore (Sys.opaque_identity (build ()))), kernel))

let setup_seconds samples =
  Calib.normalize (Probe.median (List.map fst samples)) ~kernels:(List.map snd samples)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

(* Mean committed tx/s over the whole 1 s windows inside [from, until). *)
let tps_between metrics ~from ~until =
  let rates =
    List.filter_map
      (fun (start, rate) -> if start >= from && start +. 1000.0 <= until then Some rate else None)
      (Metrics.throughput_series metrics)
  in
  match rates with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 rates /. float_of_int (List.length rates)

let latency_metrics metrics =
  let s = Metrics.latency metrics in
  ( [
      m "latency_p50_ms" (Summary.percentile s 0.5) "ms";
      m "latency_p99_ms" (Summary.percentile s 0.99) "ms";
    ],
    Summary.count s )

let sum_replicas replicas f = Array.fold_left (fun acc r -> acc + f r) 0 replicas

let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* ---- per-layer metrics, shared by both harnesses ------------------- *)

type layer_inputs = {
  replicas : Replica.t array;
  snapshot : Telemetry.snapshot;
  probe : Probe.t;
  offline : Probe.offline;
  tx : int;  (** origin commits of the traced run *)
  traced_cpu_s : float;
  overhead_share : float;  (** traced over untraced normalized CPU per transaction, minus 1 *)
  verify : bool;
  effective_interval : int;  (** checkpoint interval in merged segments, 0 = off *)
  net : Backend.Transport.stats;
  control : Backend.Transport.stats option;
  catchup_ms : float;
  gc : Gc.stat * Gc.stat;  (** quick_stat around the untraced reference run *)
  gc_tx : int;  (** origin commits of that run *)
}

let mean_hist snap name =
  match Telemetry.snap_histogram snap name with Some h -> h.Telemetry.hs_mean | None -> 0.0

let retained_vertices replicas =
  sum_replicas replicas (fun r ->
      List.fold_left
        (fun acc dag_id ->
          let store = Replica.store r ~dag_id in
          let lo = Store.lowest_stored store and hi = Store.highest_round store in
          let c = ref 0 in
          for round = max 0 lo to hi do
            c := !c + Store.count_at store ~round
          done;
          acc + !c)
        0
        (List.init (Replica.config r).Config.num_dags Fun.id))

let layer_metrics (li : layer_inputs) ~sim_self_ns ~backend_metrics =
  let p = li.probe and off = li.offline in
  let tx = float_of_int (max 1 li.tx) in
  let cpu_ns = li.traced_cpu_s *. 1e9 in
  let deliver_ns = Probe.deliver_ns_total p in
  let verify_est = if li.verify then Probe.verify_ns_estimate p off else 0.0 in
  let n = Array.length li.replicas in
  let counter = Telemetry.snap_counter li.snapshot in
  let drivers = Array.to_list li.replicas |> List.concat_map Replica.driver_stats in
  let dsum f = List.fold_left (fun acc s -> acc + f s) 0 drivers in
  let resolved =
    dsum (fun s ->
        s.Driver.fast_commits + s.Driver.direct_commits + s.Driver.indirect_commits
        + s.Driver.skipped_anchors)
  in
  let inst = Array.to_list li.replicas |> List.concat_map Replica.instance_stats in
  let isum f = List.fold_left (fun acc s -> acc + f s) 0 inst in
  let lane_txns = List.init 3 (fun k -> counter (Printf.sprintf "dag%d.txns" k)) in
  let lane_total = List.fold_left ( + ) 0 lane_txns in
  let boundaries =
    if li.effective_interval = 0 then 0.0
    else
      iratio (sum_replicas li.replicas Replica.log_length) (n * li.effective_interval)
  in
  let certified = iratio (counter "ck.certified") n in
  let wal_appends = sum_replicas li.replicas (fun r -> Wal.appends (Replica.wal r)) in
  let wal_retained =
    sum_replicas li.replicas (fun r ->
        List.fold_left (fun acc (_, c) -> acc + c) 0 (Wal.segments (Replica.wal r)))
  in
  let sync_req, sync_certs =
    Array.fold_left
      (fun (a, b) r ->
        let x, y = Replica.sync_stats r in
        (a + x, b + y))
      (0, 0) li.replicas
  in
  let rounds = sum_replicas li.replicas (fun r -> List.fold_left ( + ) 0 (Replica.current_rounds r)) in
  let minor0, minor1 = (fst li.gc).Gc.minor_words, (snd li.gc).Gc.minor_words in
  let prom0, prom1 = (fst li.gc).Gc.promoted_words, (snd li.gc).Gc.promoted_words in
  let gc_tx = float_of_int (max 1 li.gc_tx) in
  let per_kind prefix unit_ f =
    Array.to_list (Array.mapi (fun i k -> m (prefix ^ k) (f i) unit_) Probe.kinds)
  in
  List.concat
    [
      [
        m "crypto.verify_ns.proposal" off.Probe.verify_ns.(0) "ns";
        m "crypto.verify_ns.vote" off.Probe.verify_ns.(1) "ns";
        m "crypto.verify_ns.certificate" off.Probe.verify_ns.(2) "ns";
        m "crypto.verify_share" (ratio verify_est cpu_ns) "share";
        m "core.deliver_us_per_tx" (deliver_ns /. 1e3 /. tx) "us";
      ];
      per_kind "core.deliver_us." "us" (fun i ->
          ratio p.Probe.deliver_ns.(i) (float_of_int p.Probe.count.(i)) /. 1e3);
      per_kind "core.deliver_count." "count" (fun i -> float_of_int p.Probe.count.(i));
      [ m "core.commit_to_order_ms" (mean_hist li.snapshot "stage.commit_to_order") "ms" ];
      List.mapi
        (fun k c -> m (Printf.sprintf "core.lane_share.dag%d" k) (iratio c lane_total) "share")
        lane_txns;
      [
        m "core.pending_segments_max" (float_of_int p.Probe.pending_max) "count";
        m "storage.ck_boundaries" boundaries "count";
        m "storage.ck_certified" certified "count";
        m "storage.ck_useful_share" (ratio certified boundaries) "share";
        m "storage.wal_appends_per_tx" (float_of_int wal_appends /. tx) "count";
        m "storage.wal_retained_entries" (float_of_int wal_retained) "count";
        m "sync.requests" (float_of_int sync_req) "count";
        m "sync.certs_ingested" (float_of_int sync_certs) "count";
        m "sync.catchup_ms" li.catchup_ms "ms";
        m "dag.votes_per_proposal" (iratio (isum (fun (_, v, _, _) -> v)) (isum (fun (p, _, _, _) -> p))) "count";
        m "dag.fetches_per_round" (iratio (isum (fun (_, _, _, f) -> f)) rounds) "count";
        m "dag.retained_vertices" (float_of_int (retained_vertices li.replicas)) "count";
        m "consensus.fast_share" (iratio (dsum (fun s -> s.Driver.fast_commits)) resolved) "share";
        m "consensus.indirect_share" (iratio (dsum (fun s -> s.Driver.indirect_commits)) resolved) "share";
        m "consensus.skipped_share" (iratio (dsum (fun s -> s.Driver.skipped_anchors)) resolved) "share";
        m "consensus.proposal_to_commit_ms" (mean_hist li.snapshot "stage.proposal_to_commit") "ms";
        m "workload.submit_to_batch_ms" (mean_hist li.snapshot "stage.submit_to_batch") "ms";
        m "workload.requeued" (float_of_int (sum_replicas li.replicas Replica.requeued)) "count";
        m "sim.events_per_tx" (float_of_int p.Probe.events /. tx) "count";
        m "sim.self_us_per_tx" (sim_self_ns /. 1e3 /. tx) "us";
        m "net.msgs_per_tx" (float_of_int li.net.Backend.Transport.sent /. tx) "count";
        m "net.bytes_per_tx" (li.net.Backend.Transport.bytes /. tx) "B";
        m "net.control_msgs_per_tx"
          (match li.control with Some c -> float_of_int c.Backend.Transport.sent /. tx | None -> 0.0)
          "count";
      ];
      per_kind "codec.encode_ns." "ns" (fun i -> off.Probe.encode_ns.(i));
      per_kind "codec.decode_ns." "ns" (fun i -> off.Probe.decode_ns.(i));
      [ m "codec.bytes_per_msg" off.Probe.bytes_per_msg "B" ];
      backend_metrics;
      [
        m "heap.minor_words_per_tx" ((minor1 -. minor0) /. gc_tx) "words";
        m "heap.promoted_words_per_tx" ((prom1 -. prom0) /. gc_tx) "words";
        m "heap.major_collections"
          (float_of_int ((snd li.gc).Gc.major_collections - (fst li.gc).Gc.major_collections))
          "count";
        m "trace.overhead_share" li.overhead_share "share";
        m "trace.coverage" (ratio (sim_self_ns +. deliver_ns) cpu_ns) "share";
      ];
    ]

let backend_metrics ~loop_events_per_tx ~flushes_per_tx ~frames_per_flush ~reconnects ~deliver_share =
  [
    m "backend.loop_events_per_tx" loop_events_per_tx "count";
    m "backend.tcp_flushes_per_tx" flushes_per_tx "count";
    m "backend.tcp_frames_per_flush" frames_per_flush "count";
    m "backend.tcp_reconnects" reconnects "count";
    m "backend.deliver_share" deliver_share "share";
  ]

(* ---- simulator ------------------------------------------------------ *)

let protocol_of spec ~seed =
  let committee = Committee.make ~n:spec.n ~cluster_seed:seed () in
  let p = Config.shoalpp ~committee in
  let p = if spec.verify then p else Config.without_signature_checks p in
  Config.with_checkpoint_interval p spec.checkpoint_interval

let cluster_setup spec ~seed ~track_logs =
  {
    (Cluster.default_setup ~protocol:(protocol_of spec ~seed)) with
    Cluster.topology = spec.topology ();
    net_config = spec.net;
    load_tps = spec.load_tps;
    warmup_ms = spec.warmup_ms;
    seed;
    track_logs;
    scenario = spec.scenario;
  }

let recovery spec =
  match Faults.crash_recoveries spec.scenario ~n:spec.n with
  | (replica, _, recover_at) :: _ -> Some (replica, recover_at)
  | [] -> None

type sim_rep = {
  cluster : Cluster.t;
  cpu_s : float;  (** process CPU spent advancing the simulation *)
  kernels : float list;  (** {!Calib} kernel CPU after each 500 ms slice of simulated time *)
  attempted : int;  (** submitted before the drain window *)
  catchup_ms : float option;  (** [None]: no restart, or never caught up *)
}

(* One repetition: a fresh cluster run to the end of the workload, in
   500 ms slices of simulated time with a {!Calib} kernel timed after each.
   With a probe, the engine is stepped one event at a time so that time
   outside the delivery handlers is the simulator's own; without one each
   slice runs freely, except a restart's catch-up, which is always
   single-stepped so [Replica.catching_up] is read after every event. All
   of these fire the same events in the same order. *)
let sim_rep ?probe spec ~seed ~track_logs =
  let c = Cluster.create (cluster_setup spec ~seed ~track_logs) in
  let eng = Cluster.engine c in
  let replicas = Cluster.replicas c in
  let cpu = ref 0.0 and kernels = ref [] in
  let timed f =
    let t0 = cpu_now () in
    f ();
    cpu := !cpu +. (cpu_now () -. t0)
  in
  let fire until = Engine.run_status eng ~until ~max_events:1 in
  let rec single_step ~until continue =
    if continue () then begin
      let status =
        match probe with
        | None -> fire until
        | Some p ->
          let s = Probe.time_event p (fun () -> fire until) in
          if p.Probe.events land 63 = 0 then Probe.poll_pending p replicas;
          s
      in
      match status with Engine.Budget_exhausted -> single_step ~until continue | _ -> ()
    end
  in
  let slice_ms = 500.0 in
  let rec advance until =
    let next = Float.min until (slice_ms *. (floor (Engine.now eng /. slice_ms) +. 1.0)) in
    timed (fun () ->
        match probe with
        | None -> Cluster.run c ~duration_ms:next
        | Some _ -> single_step ~until:next (fun () -> true));
    kernels := Calib.kernel_s () :: !kernels;
    if next < until then advance until
  in
  (match probe with
  | Some p ->
    Probe.install p (Cluster.backend c) replicas;
    timed (fun () -> Probe.time_event p (fun () -> Cluster.run c ~duration_ms:0.0))
  | None -> ());
  let catchup_ms =
    match recovery spec with
    | None -> None
    | Some (replica, recover_at) ->
      advance recover_at;
      let r = replicas.(replica) in
      timed (fun () -> single_step ~until:spec.duration_ms (fun () -> Replica.catching_up r));
      if Replica.catching_up r then None else Some (Engine.now eng -. recover_at)
  in
  let cut = spec.duration_ms -. spec.drain_ms in
  advance cut;
  let attempted = (Cluster.report c ~duration_ms:cut).Report.submitted in
  advance spec.duration_ms;
  { cluster = c; cpu_s = !cpu; kernels = !kernels; attempted; catchup_ms }

let ordered_of c = Ledger.recorded (Cluster.ledger c)

(* Fingerprint of what the run ordered: every replica's log length, ordered
   transaction count, base sequence, per-lane commit-rule counts and newest
   certified checkpoint (whose state is the running digest of the
   committed segment stream); the ledger's retained per-commit records
   (transaction, lane, global sequence, all five timestamps); the exact
   latency moments; and every telemetry counter, gauge and histogram
   count. Repetitions of one seed must agree on all of it. *)
let run_digest c =
  let b = Buffer.create 65536 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  let flt f =
    Buffer.add_string b (Int64.to_string (Int64.bits_of_float f));
    Buffer.add_char b ' '
  in
  let str s =
    Buffer.add_string b s;
    Buffer.add_char b ' '
  in
  Array.iter
    (fun r ->
      int (Replica.log_length r);
      int (Replica.txns_ordered r);
      int (Replica.base_seq r);
      List.iter
        (fun s ->
          List.iter int
            [
              s.Driver.fast_commits;
              s.Driver.direct_commits;
              s.Driver.indirect_commits;
              s.Driver.skipped_anchors;
              s.Driver.segments;
              s.Driver.nodes_ordered;
            ])
        (Replica.driver_stats r);
      match Replica.latest_checkpoint r with
      | Some ck ->
        int (Checkpoint.seq ck);
        str (Digest32.hex (Checkpoint.state ck))
      | None -> str "-")
    (Cluster.replicas c);
  let ledger = Cluster.ledger c in
  int (Ledger.recorded ledger);
  List.iter
    (fun (e : Ledger.entry) ->
      List.iter int [ e.Ledger.le_tx; e.Ledger.le_origin; e.Ledger.le_dag; e.Ledger.le_seq ];
      List.iter flt
        [
          e.Ledger.le_submitted;
          e.Ledger.le_batched;
          e.Ledger.le_included;
          e.Ledger.le_committed;
          e.Ledger.le_ordered;
        ])
    (Ledger.tail ledger);
  let s = Metrics.latency (Cluster.metrics c) in
  int (Summary.count s);
  List.iter flt
    [ Summary.mean s; Summary.stddev s; Summary.min s; Summary.max s; Summary.percentile s 0.5;
      Summary.percentile s 0.99 ];
  let snap = Telemetry.snapshot (Cluster.telemetry c) in
  List.iter (fun (k, v) -> str k; int v) snap.Telemetry.snap_counters;
  List.iter (fun (k, v) -> str k; flt v) snap.Telemetry.snap_gauges;
  List.iter
    (fun h -> str h.Telemetry.hs_name; int h.Telemetry.hs_count; flt h.Telemetry.hs_sum)
    snap.Telemetry.snap_histograms;
  Digest.to_hex (Digest.string (Buffer.contents b))

let audit_problems c =
  let a = Cluster.audit c in
  List.concat
    [
      (if a.Cluster.consistent_prefixes then [] else [ "replica logs disagree on a common prefix" ]);
      (if a.Cluster.duplicate_orders = 0 then []
       else [ Printf.sprintf "%d transactions ordered twice" a.Cluster.duplicate_orders ]);
      (if a.Cluster.recovery_prefix_ok then [] else [ "a recovered log does not extend its pre-crash log" ]);
    ]

(* Per-repetition accounting: attempts, and how many of them failed. A
   repetition that fails a check counts every attempt as failed. *)
type tally = { mutable attempts : int; mutable failures : int; mutable problems : string list }

let tally () = { attempts = 0; failures = 0; problems = [] }

let account t ~attempted ~ordered problems =
  t.attempts <- t.attempts + attempted;
  t.failures <- (t.failures + if problems = [] then max 0 (attempted - ordered) else attempted);
  t.problems <- t.problems @ problems

let check_digest ~label ~expected got =
  if String.equal expected got then []
  else [ Printf.sprintf "%s ordered a different log (digest %s, expected %s)" label got expected ]

let catchup_problems spec rep =
  match (recovery spec, rep.catchup_ms) with
  | Some _, None -> [ "the restarted replica never finished catching up" ]
  | _ -> []

let sim_end_to_end spec ~seed ~seconds ~tamper =
  let build () = Cluster.create (cluster_setup spec ~seed ~track_logs:true) in
  ignore (Sys.opaque_identity (build ()));
  let setups = ref (setup_samples build 5) in
  let t = tally () in
  (* The audited repetition keeps per-replica logs for the safety audit;
     the timed ones do not, so their CPU and heap exclude the audit. Only
     plain values outlive each repetition, so no cluster but the one being
     run is on the heap while it runs. *)
  let digest, ordered, first_rep, catchup_ms, e2e, samples =
    let audited = sim_rep spec ~seed ~track_logs:true in
    let c = audited.cluster in
    let ordered = ordered_of c in
    account t ~attempted:audited.attempted ~ordered
      (audit_problems c @ catchup_problems spec audited);
    let metrics = Cluster.metrics c in
    let lat, samples = latency_metrics metrics in
    let tps = tps_between metrics ~from:spec.warmup_ms ~until:spec.duration_ms in
    ( run_digest c,
      ordered,
      (audited.cpu_s, Probe.median audited.kernels),
      audited.catchup_ms,
      m "committed_tps" tps "tx/s" :: lat,
      samples )
  in
  let deadline = Probe.now_ns () +. (seconds *. 1e9) in
  (* At least three repetitions, each a fresh cluster on a compacted heap,
     until the run's measuring time is spent. The last one's cluster is
     kept for the heap measurement. *)
  let rec timed_reps cpus =
    setups := setup_samples build 3 @ !setups;
    Gc.compact ();
    let base = (Gc.stat ()).Gc.live_words in
    let rep = sim_rep spec ~seed ~track_logs:false in
    let got = run_digest rep.cluster in
    let got = if tamper && cpus = [] then Digest.to_hex (Digest.string got) else got in
    let label = Printf.sprintf "repetition %d" (List.length cpus + 1) in
    account t ~attempted:rep.attempted ~ordered:(ordered_of rep.cluster)
      (check_digest ~label ~expected:digest got);
    let cpus = (rep.cpu_s, Probe.median rep.kernels) :: cpus in
    if List.length cpus >= 3 && Probe.now_ns () > deadline then (List.rev cpus, rep.cluster, base)
    else timed_reps cpus
  in
  let cpus, last, base = timed_reps [] in
  let live_mb = mb_of_words (live_words () - base) in
  ignore (Sys.opaque_identity last);
  (* The lower quartile, not the minimum: a repetition whose slices and
     kernels fell on different sides of a change of host speed can read
     low, and the minimum would pick it. *)
  let cpu_s =
    match List.sort Float.compare (List.map (fun (cpu, k) -> Calib.normalize cpu ~kernels:[ k ]) cpus) with
    | [] -> 0.0
    | sorted -> List.nth sorted (List.length sorted / 4)
  in
  {
    metrics =
      (m "setup_s" (setup_seconds !setups) "s" :: e2e)
      @ [
          m "cpu_us_per_tx" (1e6 *. cpu_s /. float_of_int (max 1 ordered)) "us";
          m "live_mb" live_mb "MB";
        ];
    notes =
      List.concat
        [
          [ ("latency_samples", string_of_int samples); ("log_digest", digest) ];
          (match catchup_ms with Some ms -> [ ("catchup_ms", Printf.sprintf "%.3f" ms) ] | None -> []);
          [
            ("failed_share", Printf.sprintf "%.6f" (iratio t.failures (max 1 t.attempts)));
            ("repetitions", string_of_int (List.length cpus));
          ];
        ];
    problems = t.problems;
    attempted = t.attempts;
    failed = t.failures;
    reps = first_rep :: cpus;
  }

let sim_layers spec ~seed ~tamper =
  let t = tally () in
  (* As in the end-to-end run, only plain values outlive a repetition. *)
  let digest, audited_rep =
    let audited = sim_rep spec ~seed ~track_logs:true in
    account t ~attempted:audited.attempted ~ordered:(ordered_of audited.cluster)
      (audit_problems audited.cluster @ catchup_problems spec audited);
    (run_digest audited.cluster, (audited.cpu_s, Probe.median audited.kernels))
  in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let untraced_cpu_s, untraced_kernel, gc1, gc_tx =
    let reference = sim_rep spec ~seed ~track_logs:false in
    let gc1 = Gc.quick_stat () in
    account t ~attempted:reference.attempted ~ordered:(ordered_of reference.cluster)
      (check_digest ~label:"the untraced reference" ~expected:digest (run_digest reference.cluster));
    ( reference.cpu_s,
      Probe.median reference.kernels,
      gc1,
      ordered_of reference.cluster )
  in
  Gc.compact ();
  let probe = Probe.create () in
  let traced = sim_rep ~probe spec ~seed ~track_logs:false in
  let c = traced.cluster in
  let got = run_digest c in
  let got = if tamper then Digest.to_hex (Digest.string got) else got in
  account t ~attempted:traced.attempted ~ordered:(ordered_of c)
    (check_digest ~label:"the traced run" ~expected:digest got);
  let committee = (protocol_of spec ~seed).Config.committee in
  let offline = Probe.offline probe ~committee in
  let backend = Cluster.backend c in
  let li =
    {
      replicas = Cluster.replicas c;
      snapshot = Telemetry.snapshot (Cluster.telemetry c);
      probe;
      offline;
      tx = ordered_of c;
      traced_cpu_s = traced.cpu_s;
      (* Both runs order the same transactions (equal digests). *)
      overhead_share =
        ratio
          (Calib.normalize traced.cpu_s ~kernels:traced.kernels)
          (Calib.normalize untraced_cpu_s ~kernels:[ untraced_kernel ])
        -. 1.0;
      verify = spec.verify;
      effective_interval = Config.effective_checkpoint_interval (protocol_of spec ~seed);
      net = Backend.stats backend;
      control = Backend.control_stats backend;
      catchup_ms = Option.value traced.catchup_ms ~default:0.0;
      gc = (gc0, gc1);
      gc_tx;
    }
  in
  let sim_self_ns = probe.Probe.event_ns -. Probe.deliver_ns_total probe in
  {
    metrics =
      layer_metrics li ~sim_self_ns
        ~backend_metrics:
          (backend_metrics ~loop_events_per_tx:0.0 ~flushes_per_tx:0.0 ~frames_per_flush:0.0
             ~reconnects:0.0 ~deliver_share:0.0);
    notes =
      [
        ("log_digest", digest);
        ("events", string_of_int probe.Probe.events);
        ("deliveries", string_of_int (Probe.deliveries probe));
      ];
    problems = t.problems;
    attempted = t.attempts;
    failed = t.failures;
    reps = [ audited_rep; (untraced_cpu_s, untraced_kernel); (traced.cpu_s, Probe.median traced.kernels) ];
  }

(* ---- realtime node over TCP ---------------------------------------- *)

let node_setup spec ~seed =
  let committee = Committee.make ~n:spec.tcp_n ~cluster_seed:seed () in
  {
    (Node.default_setup ~protocol:(Config.shoalpp ~committee)) with
    Node.load_tps = spec.tcp_load_tps;
    warmup_ms = spec.tcp_warmup_ms;
    seed;
    transport = Node.Tcp 0;
    delays_ms = Some (Topology.delay_matrix (Topology.gcp10 ()) ~n:spec.tcp_n);
  }

type node_rep = {
  node : Node.t;
  ncpu_s : float;
  nattempted : int;
  measure_ms : float;
  cpu_rates : float list;
      (** normalized ({!Calib}) CPU seconds per wall second of each 500 ms
          slice under load *)
  nkernel : float;  (** median {!Calib} kernel time over the run *)
}

(* Load for [measure_ms] after warmup, then stop the clients and let the
   loop drain, so every submission has had the drain window to be ordered.
   A timer on the node's own loop samples process CPU every 500 ms. *)
let node_rep ?probe spec ~seed ~measure_ms =
  let node = Node.create (node_setup spec ~seed) in
  let backend = Node.backend node in
  (match probe with
  | Some p ->
    let replicas = Node.replicas node in
    Probe.install p backend replicas;
    let rec poll () =
      Probe.poll_pending p replicas;
      ignore (Backend.schedule backend ~after:10.0 poll)
    in
    poll ()
  | None -> ());
  let load_end = spec.tcp_warmup_ms +. measure_ms in
  (* Each tick: (wall ms, CPU before the kernel, CPU after it, kernel). *)
  let ticks = ref [] in
  let rec tick () =
    let c0 = cpu_now () in
    let k = Calib.kernel_s () in
    ticks := (Node.now_ms node, c0, cpu_now (), k) :: !ticks;
    ignore (Backend.schedule backend ~after:500.0 tick)
  in
  tick ();
  let cpu0 = cpu_now () in
  Node.run node ~duration_ms:load_end;
  let attempted = (Node.report node ~duration_ms:load_end).Report.submitted in
  Node.run node ~duration_ms:spec.tcp_drain_ms;
  (* A slice's CPU excludes the kernels and is normalized by the kernels
     at its two ends. *)
  let rec rates acc = function
    | (t1, c1, _, k1) :: ((t0, _, c0, k0) :: _ as rest) ->
      let acc =
        if t0 >= spec.tcp_warmup_ms && t1 <= load_end then
          Calib.normalize ((c1 -. c0) /. ((t1 -. t0) /. 1000.0)) ~kernels:[ k0; k1 ] :: acc
        else acc
      in
      rates acc rest
    | _ -> acc
  in
  {
    node;
    ncpu_s = cpu_now () -. cpu0;
    nattempted = attempted;
    measure_ms;
    cpu_rates = rates [] !ticks;
    nkernel = Probe.median (List.map (fun (_, _, _, k) -> k) !ticks);
  }

let node_problems node =
  let a = Node.audit node in
  List.concat
    [
      (if a.Node.consistent_prefixes then [] else [ "replica logs disagree on a common prefix" ]);
      (if a.Node.duplicate_orders = 0 then []
       else [ Printf.sprintf "%d transactions ordered twice" a.Node.duplicate_orders ]);
      (if Array.for_all (fun c -> c > 0) a.Node.anchors_per_lane then []
       else [ "a DAG lane committed no anchor" ]);
    ]

let node_ordered r = Ledger.recorded (Node.ledger r.node)

(* The node is paced by the wall clock, so its repetitions are its own
   500 ms slices: CPU per transaction is the median slice's CPU rate over
   the committed rate, which a slow stretch of the host moves only if it
   covers most of the run. *)

let node_end_to_end spec ~seed ~seconds =
  let build () = Node.create (node_setup spec ~seed) in
  ignore (Sys.opaque_identity (build ()));
  let setups = setup_samples build 16 in
  let t = tally () in
  Gc.compact ();
  let base = (Gc.stat ()).Gc.live_words in
  let r = node_rep spec ~seed ~measure_ms:(seconds *. 1000.0) in
  let live_mb = mb_of_words (live_words () - base) in
  let setups = setups @ setup_samples build 16 in
  account t ~attempted:r.nattempted ~ordered:(node_ordered r) (node_problems r.node);
  let metrics = Node.metrics r.node in
  let lat, samples = latency_metrics metrics in
  let tps =
    tps_between metrics ~from:spec.tcp_warmup_ms ~until:(spec.tcp_warmup_ms +. r.measure_ms)
  in
  let setup_s = setup_seconds setups in
  let cpu_us_per_tx = 1e6 *. ratio (Probe.median r.cpu_rates) tps in
  {
    metrics =
      [ m "setup_s" setup_s "s"; m "committed_tps" tps "tx/s" ]
      @ lat
      @ [
          m "cpu_us_per_tx" cpu_us_per_tx "us";
          m "live_mb" live_mb "MB";
        ];
    notes =
      [
        ("latency_samples", string_of_int samples);
        ("failed_share", Printf.sprintf "%.6f" (iratio t.failures (max 1 t.attempts)));
      ];
    problems = t.problems;
    attempted = t.attempts;
    failed = t.failures;
    reps = [ (r.ncpu_s, r.nkernel) ];
  }

let node_layers spec ~seed ~seconds =
  let t = tally () in
  let measure_ms = Float.max 2000.0 (seconds *. 500.0) in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let reference = node_rep spec ~seed ~measure_ms in
  let gc1 = Gc.quick_stat () in
  account t ~attempted:reference.nattempted ~ordered:(node_ordered reference)
    (node_problems reference.node);
  Gc.compact ();
  let probe = Probe.create () in
  let traced = node_rep ~probe spec ~seed ~measure_ms in
  account t ~attempted:traced.nattempted ~ordered:(node_ordered traced) (node_problems traced.node);
  let node = traced.node in
  let committee = (node_setup spec ~seed).Node.protocol.Config.committee in
  let offline = Probe.offline probe ~committee in
  let tx = node_ordered traced in
  (* Normalized CPU per transaction, as in the end-to-end run. *)
  let per_tx r =
    ratio (Probe.median r.cpu_rates)
      (tps_between (Node.metrics r.node) ~from:spec.tcp_warmup_ms
         ~until:(spec.tcp_warmup_ms +. r.measure_ms))
  in
  let net = Backend.stats (Node.backend node) in
  let flushes, reconnects =
    match Node.tcp_net_stats node with
    | Some s -> (s.Tcp.flushes, s.Tcp.reconnects)
    | None -> (0, 0)
  in
  let li =
    {
      replicas = Node.replicas node;
      snapshot = Node.telemetry_snapshot node;
      probe;
      offline;
      tx;
      (* Per transaction, since the two runs order different counts. *)
      traced_cpu_s = traced.ncpu_s;
      overhead_share = ratio (per_tx traced) (per_tx reference) -. 1.0;
      verify = true;
      effective_interval = 0;
      net;
      control = None;
      catchup_ms = 0.0;
      gc = (gc0, gc1);
      gc_tx = node_ordered reference;
    }
  in
  let ftx = float_of_int (max 1 tx) in
  let backend_metrics =
    backend_metrics
      ~loop_events_per_tx:(float_of_int (Realtime.events_fired (Node.executor node)) /. ftx)
      ~flushes_per_tx:(float_of_int flushes /. ftx)
      ~frames_per_flush:(iratio net.Backend.Transport.sent flushes)
      ~reconnects:(float_of_int reconnects)
      ~deliver_share:(ratio (Probe.deliver_ns_total probe) (traced.ncpu_s *. 1e9))
  in
  {
    metrics = layer_metrics li ~sim_self_ns:0.0 ~backend_metrics;
    notes = [ ("deliveries", string_of_int (Probe.deliveries probe)) ];
    problems = t.problems;
    attempted = t.attempts;
    failed = t.failures;
    reps = [ (reference.ncpu_s, reference.nkernel); (traced.ncpu_s, traced.nkernel) ];
  }

let run ~workload ~seed ~seconds ~trace ~tamper =
  match (List.assoc workload workloads, trace) with
  | Sim spec, false -> sim_end_to_end spec ~seed ~seconds ~tamper
  | Sim spec, true -> sim_layers spec ~seed ~tamper
  | Node_tcp spec, false -> node_end_to_end spec ~seed ~seconds
  | Node_tcp spec, true -> node_layers spec ~seed ~seconds
