(* [shoalpp node]: the same Shoal++ replicas the simulator runs, on a wall
   clock over loopback or TCP, with the run's trace and metrics exported on
   shutdown. The one module of the front end that touches the OS (sockets,
   the admin plane); the sim subcommand stays effect-free.

   Examples:
     dune exec bin/shoalpp.exe -- node -n 4 --duration 2000 --load 200
     dune exec bin/shoalpp.exe -- node --transport tcp --duration 2000
     dune exec bin/shoalpp.exe -- node --trace-out node.jsonl --metrics-out node.metrics.json *)

module Node = Shoalpp_runtime.Node
module Harness = Shoalpp_runtime.Harness
module Report = Shoalpp_runtime.Report
module Ledger = Shoalpp_runtime.Ledger
module Prom = Shoalpp_runtime.Prom
module Admin = Shoalpp_backend.Admin_server
module Config = Shoalpp_core.Config
module Committee = Shoalpp_dag.Committee
module Topology = Shoalpp_sim.Topology
module Trace = Shoalpp_sim.Trace
open Cmdliner

type transport_arg = Inproc | Tcp

let transport_conv = Arg.enum [ ("loopback", Inproc); ("inproc", Inproc); ("tcp", Tcp) ]

let run (c : Cli.common) domains verify_delay restart transport tcp_port coalesce_us admin_port
    ledger_tail =
  let n = c.Cli.n and duration = c.Cli.duration in
  let committee = Committee.make ~n ~cluster_seed:c.Cli.seed () in
  let protocol =
    let p = Config.shoalpp ~committee in
    let p = if c.Cli.no_verify then Config.without_signature_checks p else p in
    let p = Config.with_checkpoint_interval p c.Cli.checkpoint_interval in
    match c.Cli.timeout with Some ms -> Config.round_timeout p ms | None -> p
  in
  (match restart with
  | Some _ when domains > 1 ->
    Printf.eprintf "shoalpp: --restart requires --domains 1\n";
    exit 1
  | _ -> ());
  let transport = match transport with Inproc -> Node.Inproc | Tcp -> Node.Tcp tcp_port in
  let trace =
    if c.Cli.trace_out <> None then Some (Trace.create ~enabled:true ~capacity:65536 ()) else None
  in
  let setup =
    {
      (Node.default_setup ~protocol) with
      Node.load_tps = c.Cli.load;
      warmup_ms = c.Cli.warmup;
      seed = c.Cli.seed;
      transport;
      coalesce_us = Float.max 0.0 coalesce_us;
      delays_ms = Option.map (fun t -> Topology.delay_matrix t ~n) c.Cli.topology;
      trace;
      domains = max 1 domains;
      verify_delay_us = Float.max 0.0 verify_delay;
      retain_wal = Option.is_some restart;
    }
  in
  let node = Node.create setup in
  (* Restart drill: crash the highest-id replica mid-run and bring it back
     through the checkpoint-anchored recovery path (WAL replay + peer
     catch-up sync when --checkpoint-interval is set). *)
  (match restart with
  | None -> ()
  | Some (crash_at, recover_at) ->
    let i = n - 1 in
    let bk = Node.backend node in
    ignore
      (Shoalpp_backend.Backend.schedule bk ~after:(Float.max 0.0 crash_at) (fun () ->
           Node.crash_replica node i));
    ignore
      (Shoalpp_backend.Backend.schedule bk
         ~after:(Float.max 0.0 (Float.max crash_at recover_at))
         (fun () -> Node.recover_replica node i)));
  Format.printf "shoalpp node: %d replicas, %s transport, %.0f tps for %.0f ms%s%s%s@." n
    (match transport with
    | Node.Inproc -> "loopback"
    | Node.Tcp p -> Printf.sprintf "tcp:%d" p)
    c.Cli.load duration
    (if setup.Node.domains > 1 then
       Printf.sprintf ", %d domains (per-DAG executors + verify pool)" setup.Node.domains
     else "")
    (if setup.Node.coalesce_us > 0.0 then
       Printf.sprintf ", coalesce %.0f us" setup.Node.coalesce_us
     else "")
    (match c.Cli.topology with Some t -> ", topology " ^ Topology.to_spec t | None -> "");
  (match Node.tcp_ports node with
  | Some ports ->
    Format.printf "tcp ports: %s@."
      (String.concat "," (Array.to_list (Array.map string_of_int ports)))
  | None -> ());
  (* Live observability plane: scrape endpoints served off the same select
     loop that drives consensus, with repeating gauge refreshes so a
     mid-run scrape sees current values rather than the shutdown snapshot. *)
  let admin =
    match admin_port with
    | None -> None
    | Some port ->
      Node.arm_live_gauges node;
      let routes =
        [
          ("/health", fun () -> { Admin.content_type = "text/plain"; body = "ok\n" });
          ( "/metrics",
            fun () ->
              {
                Admin.content_type = "text/plain; version=0.0.4";
                body = Prom.render (Node.live_snapshot node);
              } );
          ( "/ledger",
            fun () ->
              {
                Admin.content_type = "application/json";
                body = Ledger.json_tail ~limit:ledger_tail (Node.ledger node) ^ "\n";
              } );
        ]
      in
      (match Admin.start (Node.executor node) ~port ~routes () with
      | admin ->
        Format.printf "admin: http://127.0.0.1:%d/metrics (also /health, /ledger)@."
          (Admin.port admin);
        Some admin
      | exception Unix.Unix_error (err, _, _) ->
        Printf.eprintf "shoalpp: cannot bind admin port %d (%s)\n" port
          (Unix.error_message err);
        exit 1)
  in
  Node.run node ~duration_ms:duration;
  Format.printf "elapsed: %.0f ms@." (Node.now_ms node);
  (match admin with Some a -> Admin.stop a | None -> ());
  let report = Node.report node ~duration_ms:duration in
  Format.printf "%a@." Report.pp_extended report;
  Format.printf "load: %d submitted, %d committed (backlog %d)@." report.Report.submitted
    report.Report.committed
    (max 0 (report.Report.submitted - report.Report.committed));
  (match Node.verify_pool node with
  | Some pool ->
    Format.printf "verify pool: %d jobs (%d stolen, %d exceptions)@."
      (Shoalpp_backend.Verify_pool.executed pool)
      (Shoalpp_backend.Verify_pool.stolen pool)
      (Shoalpp_backend.Verify_pool.work_exceptions pool)
  | None -> ());
  (match Node.tcp_net_stats node with
  | Some s ->
    Format.printf "tcp: %d flushes, %d coalesced frames, %d reconnects, %d dial failures@."
      s.Shoalpp_backend.Tcp_transport.flushes s.Shoalpp_backend.Tcp_transport.coalesced_frames
      s.Shoalpp_backend.Tcp_transport.reconnects s.Shoalpp_backend.Tcp_transport.dial_failures
  | None -> ());
  if Ledger.recorded (Node.ledger node) > 0 then begin
    Format.printf "per-commit stage attribution (stage x rule x dag, ms):@.";
    print_string (Ledger.breakdown_table report.Report.telemetry)
  end;
  (match restart with
  | None -> ()
  | Some _ ->
    let r = (Node.replicas node).(n - 1) in
    let requests, certs = Shoalpp_core.Replica.sync_stats r in
    Format.printf "restart: replica %d base_seq %d, catch-up %d sync requests, %d certs%s@."
      (n - 1)
      (Shoalpp_core.Replica.base_seq r)
      requests certs
      (if Node.catching_up node (n - 1) then " (still catching up)" else ""));
  let audit = Node.audit node in
  Format.printf "audit: %s; %d segments (common prefix %d); lanes %s@."
    (if Harness.ok audit then "consistent logs, no duplicates" else "FAILED")
    audit.Node.total_segments audit.Node.prefix_length
    (String.concat ","
       (Array.to_list (Array.map string_of_int audit.Node.anchors_per_lane)));
  (* Node.trace_events merges the per-lane-domain rings of a multicore run
     into one time-sorted stream (at --domains 1 it is exactly the main
     ring's contents). *)
  let events = Node.trace_events node in
  (match c.Cli.trace_out with
  | Some path when Node.trace_dropped node > 0 ->
    Format.printf
      "WARNING: trace ring dropped %d events — %s holds only the newest %d; raise the ring \
       capacity or shorten the run for a complete trace@."
      (Node.trace_dropped node) path (List.length events)
  | _ -> ());
  Cli.finish c ~events ~telemetry:report.Report.telemetry ~ok:(Harness.ok audit)

let cmd =
  let domains =
    Arg.(
      value
      & opt int 1
      & info [ "domains" ]
          ~doc:
            "Multicore execution: 1 (default) runs everything on one OCaml domain; N > 1 pins \
             each staggered DAG lane to its own domain and verifies signatures on a \
             work-stealing pool of N worker domains. The commit sequence is identical at any \
             value (merge is by sequence number, never arrival order).")
  in
  let verify_delay =
    Arg.(
      value
      & opt float 0.0
      & info [ "verify-delay-us" ]
          ~doc:
            "Modeled verification service time per signature checked, microseconds (default \
             0: just the simulated HMAC's real cost). Charged once per vote/certificate/header \
             and once per transaction in a proposal's batch — the client-signature term that \
             scales with throughput. The repo's crypto is a seeded model costing ~1us where \
             ed25519/BLS cost tens to hundreds; this charges the difference explicitly, like \
             --topology for the network. Paid inline on the event loop at --domains 1 and \
             on the verify pool's workers at --domains N, so the comparison varies only where \
             the cost lands.")
  in
  let restart =
    Arg.(
      value
      & opt (some (pair ~sep:',' float float)) None
      & info [ "restart" ] ~docv:"CRASH_MS,RECOVER_MS"
          ~doc:
            "Restart drill: crash the highest-id replica at CRASH_MS and restart it at \
             RECOVER_MS through WAL replay + checkpoint restore + peer catch-up sync. \
             Requires --domains 1.")
  in
  let transport =
    Arg.(
      value
      & opt transport_conv Inproc
      & info [ "transport" ]
          ~doc:"Message transport: inproc (loopback) | tcp (127.0.0.1).")
  in
  let tcp_port =
    Arg.(
      value
      & opt int 0
      & info [ "tcp-port" ] ~docv:"PORT"
          ~doc:
            "Base port for --transport tcp: replica i listens on PORT+i. 0 (default) lets the \
             kernel pick each port (printed at startup).")
  in
  let coalesce_us =
    Arg.(
      value
      & opt float 0.0
      & info [ "coalesce-us" ] ~docv:"US"
          ~doc:
            "TCP write coalescing: aggregate frames to one peer for up to US microseconds (or \
             64 KiB, whichever first) and flush them as a single write. 0 (default) flushes \
             every frame immediately. TCP_NODELAY is always set.")
  in
  let admin_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "admin-port" ] ~docv:"PORT"
          ~doc:
            "Serve the live admin plane on 127.0.0.1:PORT while the run is in progress: \
             /metrics (Prometheus text), /health, /ledger (JSON tail of recent commits). 0 \
             picks a free port (printed at startup).")
  in
  let ledger_tail =
    Arg.(
      value
      & opt int 256
      & info [ "ledger-tail" ] ~docv:"N" ~doc:"Entries returned by the /ledger endpoint.")
  in
  Cmd.v
    (Cmd.info "node" ~doc:"Run a real-time Shoal++ cluster (wall clock, loopback or TCP)")
    Term.(
      const run
      $ Cli.common ~n:4 ~load:200.0 ~duration:2_000.0 ~warmup:0.0
          ~topology_doc:
            "Applied as a geography shim: per-(src,dst) one-way delays added to every message, \
             over any transport. Default: no shim."
      $ domains $ verify_delay $ restart $ transport $ tcp_port $ coalesce_us $ admin_port
      $ ledger_tail)
