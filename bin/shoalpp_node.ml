(* Command-line front end for the real-time deployment: the same Shoal++
   replicas the simulator runs, on a wall clock over loopback or TCP, with
   the run's trace and metrics exported on shutdown.

   Examples:
     dune exec bin/shoalpp_node.exe -- -n 4 --duration 2000 --load 200
     dune exec bin/shoalpp_node.exe -- --transport tcp --duration 2000
     dune exec bin/shoalpp_node.exe -- --trace-out node.jsonl --metrics-out node.metrics.json *)

module Node = Shoalpp_runtime.Node
module Harness = Shoalpp_runtime.Harness
module Report = Shoalpp_runtime.Report
module Export = Shoalpp_runtime.Export
module Ledger = Shoalpp_runtime.Ledger
module Prom = Shoalpp_runtime.Prom
module Admin = Shoalpp_backend.Admin_server
module Telemetry = Shoalpp_support.Telemetry
module Config = Shoalpp_core.Config
module Committee = Shoalpp_dag.Committee
module Trace = Shoalpp_sim.Trace
open Cmdliner

let write_file path f =
  match open_out path with
  | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  | exception Sys_error msg ->
    Printf.eprintf "shoalpp_node: cannot write %s (%s)\n" path msg;
    exit 1

type transport_arg = Inproc | Tcp

let transport_conv = Arg.enum [ ("loopback", Inproc); ("inproc", Inproc); ("tcp", Tcp) ]

module Topology = Shoalpp_sim.Topology

(* A topology file is "src dst one_way_ms" triples, one per line (blank
   lines and #-comments skipped); unlisted pairs get 0 ms. Only the listed
   direction is set, so asymmetric links are expressible. *)
let parse_topology_file ~n path =
  let d = Array.make_matrix n n 0.0 in
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let err = ref None and lineno = ref 0 in
        (try
           while !err = None do
             incr lineno;
             let line = String.trim (input_line ic) in
             if line <> "" && line.[0] <> '#' then
               match Scanf.sscanf line " %d %d %f" (fun s t ms -> (s, t, ms)) with
               | src, dst, ms ->
                 if src < 0 || src >= n || dst < 0 || dst >= n then
                   err := Some (Printf.sprintf "%s:%d: replica out of range 0..%d" path !lineno (n - 1))
                 else if not (Float.is_finite ms) || ms < 0.0 then
                   err := Some (Printf.sprintf "%s:%d: delay must be finite and >= 0" path !lineno)
                 else d.(src).(dst) <- ms
               | exception Scanf.Scan_failure _ | exception Failure _ ->
                 err := Some (Printf.sprintf "%s:%d: expected 'src dst one_way_ms'" path !lineno)
           done
         with End_of_file -> ());
        match !err with Some m -> Error m | None -> Ok d)

(* --topology SPEC -> n x n one-way delay matrix for the geography shim.
   Named topologies place replicas round-robin across regions, exactly as
   the simulator does, so a sim run and a realtime run of the same spec see
   the same per-link delays. *)
let parse_topology ~n spec =
  let named t = Ok (Topology.delay_matrix t ~n) in
  match String.split_on_char ':' spec with
  | [ "gcp10" ] -> named (Topology.gcp10 ())
  | [ "uniform"; ms ] -> (
    match float_of_string_opt ms with
    | Some d when Float.is_finite d && d >= 0.0 -> named (Topology.uniform ~delay_ms:d)
    | _ -> Error (Printf.sprintf "bad uniform delay %S (want uniform:MS)" ms))
  | [ "clique"; rest ] -> (
    match String.split_on_char ',' rest with
    | [ r; ms ] -> (
      match (int_of_string_opt r, float_of_string_opt ms) with
      | Some regions, Some one_way_ms when regions > 0 && Float.is_finite one_way_ms && one_way_ms >= 0.0
        ->
        named (Topology.clique ~regions ~one_way_ms)
      | _ -> Error (Printf.sprintf "bad clique spec %S (want clique:REGIONS,MS)" rest))
    | _ -> Error (Printf.sprintf "bad clique spec %S (want clique:REGIONS,MS)" rest))
  | _ when Sys.file_exists spec -> parse_topology_file ~n spec
  | _ ->
    Error
      (Printf.sprintf "unknown topology %S (gcp10 | uniform:MS | clique:REGIONS,MS | FILE)" spec)

let run n duration load warmup timeout seed no_verify domains verify_delay checkpoint_interval
    restart transport tcp_port coalesce_us topology trace_out metrics_out admin_port ledger_tail =
  let committee = Committee.make ~n ~cluster_seed:seed () in
  let protocol =
    let p = Config.shoalpp ~committee in
    let p = if no_verify then Config.without_signature_checks p else p in
    let p = Config.with_checkpoint_interval p (max 0 checkpoint_interval) in
    match timeout with Some ms -> Config.round_timeout p ms | None -> p
  in
  (match restart with
  | Some _ when domains > 1 ->
    Printf.eprintf "shoalpp_node: --restart requires --domains 1\n";
    exit 1
  | _ -> ());
  let transport = match transport with Inproc -> Node.Inproc | Tcp -> Node.Tcp tcp_port in
  let delays_ms =
    match topology with
    | None -> None
    | Some spec -> (
      match parse_topology ~n spec with
      | Ok d -> Some d
      | Error msg ->
        Printf.eprintf "shoalpp_node: --topology: %s\n" msg;
        exit 1)
  in
  let trace = if trace_out <> None then Some (Trace.create ~enabled:true ~capacity:65536 ()) else None in
  let setup =
    {
      (Node.default_setup ~protocol) with
      Node.load_tps = load;
      warmup_ms = warmup;
      seed;
      transport;
      coalesce_us = Float.max 0.0 coalesce_us;
      delays_ms;
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
  Format.printf "shoalpp_node: %d replicas, %s transport, %.0f tps for %.0f ms%s%s%s@." n
    (match transport with
    | Node.Inproc -> "loopback"
    | Node.Tcp p -> Printf.sprintf "tcp:%d" p)
    load duration
    (if setup.Node.domains > 1 then
       Printf.sprintf ", %d domains (per-DAG executors + verify pool)" setup.Node.domains
     else "")
    (if setup.Node.coalesce_us > 0.0 then
       Printf.sprintf ", coalesce %.0f us" setup.Node.coalesce_us
     else "")
    (match topology with Some s -> ", topology " ^ s | None -> "");
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
        Printf.eprintf "shoalpp_node: cannot bind admin port %d (%s)\n" port
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
  (match trace with
  | Some _ ->
    let path = Option.get trace_out in
    (* Node.trace_events merges the per-lane-domain rings of a multicore
       run into one time-sorted stream (at --domains 1 it is exactly the
       main ring's contents). *)
    let events = Node.trace_events node in
    write_file path (fun oc -> Export.write_jsonl oc events);
    Format.printf "trace: %d events -> %s@." (List.length events) path;
    if Node.trace_dropped node > 0 then
      Format.printf
        "WARNING: trace ring dropped %d events — %s holds only the newest %d; raise the ring \
         capacity or shorten the run for a complete trace@."
        (Node.trace_dropped node) path (List.length events)
  | None -> ());
  (match metrics_out with
  | Some path ->
    write_file path (fun oc ->
        Export.write_metrics oc report.Report.telemetry;
        output_char oc '\n');
    Format.printf "metrics: %s@." path
  | None -> ());
  if not (Harness.ok audit) then exit 1

let cmd =
  let n = Arg.(value & opt int 4 & info [ "n"; "replicas" ] ~doc:"Number of replicas.") in
  let duration =
    Arg.(value & opt float 2_000.0 & info [ "duration" ] ~doc:"Wall-clock run length, ms.")
  in
  let load = Arg.(value & opt float 200.0 & info [ "load" ] ~doc:"Offered load, tx/s.") in
  let warmup = Arg.(value & opt float 0.0 & info [ "warmup" ] ~doc:"Warmup excluded, ms.") in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~doc:"Round timeout override, ms.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Cluster seed (keys, clients).") in
  let no_verify =
    Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip signature verification (faster).")
  in
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
  let checkpoint_interval =
    Arg.(
      value
      & opt int 0
      & info [ "checkpoint-interval" ] ~docv:"C"
          ~doc:
            "Certify a checkpoint (and prune history below it) every C committed anchors; 0 \
             (default) disables the bounded-memory lifecycle. The commit sequence is identical \
             at any value.")
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
  let topology =
    Arg.(
      value
      & opt (some string) None
      & info [ "topology" ] ~docv:"SPEC"
          ~doc:
            "Geography shim: add per-(src,dst) one-way delays to every message, over any \
             transport. SPEC is gcp10 (the paper's 10-region GCP RTT matrix, replicas placed \
             round-robin) | uniform:MS | clique:REGIONS,MS | a file of 'src dst one_way_ms' \
             lines.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE" ~doc:"Write the typed event trace as JSONL.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the telemetry snapshot (counters, stage histograms) as JSON.")
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
    (Cmd.info "shoalpp_node"
       ~doc:"Run a real-time Shoal++ cluster (wall clock, loopback or TCP)")
    Term.(
      const run $ n $ duration $ load $ warmup $ timeout $ seed $ no_verify $ domains
      $ verify_delay $ checkpoint_interval $ restart $ transport $ tcp_port $ coalesce_us
      $ topology $ trace_out $ metrics_out $ admin_port $ ledger_tail)

let () = exit (Cmd.eval cmd)
