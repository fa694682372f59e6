(* [shoalpp node]: the same Shoal++ replicas the simulator runs, on a wall
   clock over loopback or TCP, with the run's trace and metrics exported on
   shutdown. The one module of the front end that touches the OS (sockets,
   the admin plane); the sim subcommand stays effect-free.

   Examples:
     dune exec bin/shoalpp.exe -- node -n 4 --duration 2000 --load 200
     dune exec bin/shoalpp.exe -- node -n 10 --transport tcp --topology gcp10 --duration 2000
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
module Faults = Shoalpp_sim.Faults
open Cmdliner

type transport_arg = Inproc | Tcp

let transport_conv = Arg.enum [ ("loopback", Inproc); ("inproc", Inproc); ("tcp", Tcp) ]

let run (c : Cli.common) domains verify_delay transport tcp_port admin_port ledger_tail =
  let n = c.Cli.n and duration = c.Cli.duration in
  let committee = Committee.make ~n ~cluster_seed:c.Cli.seed () in
  let protocol =
    let p = Config.shoalpp ~committee in
    let p = if c.Cli.no_verify then Config.without_signature_checks p else p in
    let p = Config.with_checkpoint_interval p c.Cli.checkpoint_interval in
    match c.Cli.timeout with Some ms -> Config.round_timeout p ms | None -> p
  in
  (match Node.check_scenario ~domains c.Cli.scenario with
  | Error msg ->
    Printf.eprintf "shoalpp: --scenario: %s (use --domains 1)\n" msg;
    exit 1
  | Ok () -> ());
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
      delays_ms = Option.map (fun t -> Topology.delay_matrix t ~n) c.Cli.topology;
      trace;
      domains = max 1 domains;
      verify_delay_us = Float.max 0.0 verify_delay;
      scenario = c.Cli.scenario;
    }
  in
  let node = Node.create setup in
  Format.printf "shoalpp node: %d replicas, %s transport, %.0f tps for %.0f ms%s%s@." n
    (match transport with
    | Node.Inproc -> "loopback"
    | Node.Tcp p -> Printf.sprintf "tcp:%d" p)
    c.Cli.load duration
    (if setup.Node.domains > 1 then
       Printf.sprintf ", %d domains (per-DAG executors + verify pool)" setup.Node.domains
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
    Format.printf "verify pool: %d jobs, %d exceptions@."
      (Shoalpp_backend.Verify_pool.executed pool)
      (Shoalpp_backend.Verify_pool.work_exceptions pool)
  | None -> ());
  (match Node.tcp_net_stats node with
  | Some s ->
    Format.printf "tcp: %d flushes, %d reconnects, %d dial failures@."
      s.Shoalpp_backend.Tcp_transport.flushes s.Shoalpp_backend.Tcp_transport.reconnects
      s.Shoalpp_backend.Tcp_transport.dial_failures
  | None -> ());
  if Ledger.recorded (Node.ledger node) > 0 then begin
    Format.printf "per-commit stage attribution (stage x rule x dag, ms):@.";
    print_string (Ledger.breakdown_table report.Report.telemetry)
  end;
  List.iter
    (fun (i, _, _) ->
      let r = (Node.replicas node).(i) in
      let requests, certs = Shoalpp_core.Replica.sync_stats r in
      Format.printf "restart: replica %d base_seq %d, catch-up %d sync requests, %d certs%s@." i
        (Shoalpp_core.Replica.base_seq r)
        requests certs
        (if Node.catching_up node i then " (still catching up)" else ""))
    (Faults.crash_recoveries c.Cli.scenario ~n);
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
          ~scenario_check:(Node.check_scenario ~domains:1)
          ~scenario_doc:
            "The node realizes restarts only: crash-recover:count=1,at=5000,recover=15000 \
             crashes the highest-id replicas at AT ms and restarts them at RECOVER ms through \
             WAL replay, checkpoint restore and peer catch-up sync. Needs --domains 1."
      $ domains $ verify_delay $ transport $ tcp_port $ admin_port $ ledger_tail)
