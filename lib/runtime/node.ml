module Backend = Shoalpp_backend.Backend
module Realtime = Shoalpp_backend.Backend_realtime
module Trace = Shoalpp_sim.Trace
module Faults = Shoalpp_sim.Faults
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Types = Shoalpp_dag.Types
module Committee = Shoalpp_dag.Committee
module Transaction = Shoalpp_workload.Transaction
module Telemetry = Shoalpp_support.Telemetry
module Obs = Shoalpp_sim.Obs
module Validation = Shoalpp_dag.Validation
module Verify_pool = Shoalpp_backend.Verify_pool
module Crypto_cost = Shoalpp_backend.Crypto_cost
module Tcp = Shoalpp_backend.Tcp_transport
module Wire = Shoalpp_codec.Wire

type transport = Inproc | Tcp of int

type setup = {
  protocol : Config.t;
  load_tps : float;
  tx_size : int;
  warmup_ms : float;
  seed : int;
  transport : transport;
  delays_ms : float array array option;
  trace : Trace.t option;
  domains : int;
  verify_delay_us : float;
  scenario : Faults.t;
}

let default_setup ~protocol =
  {
    protocol;
    load_tps = 200.0;
    tx_size = Transaction.default_size;
    warmup_ms = 0.0;
    seed = 1;
    transport = Inproc;
    delays_ms = None;
    trace = None;
    domains = 1;
    verify_delay_us = 0.0;
    scenario = Faults.none;
  }

(* Multicore execution state (--domains > 1): one executor domain per DAG
   lane (shared clock origin with the main loop), per-lane-domain
   telemetry registries and trace rings (each touched by exactly one
   domain, merged at report time), and the verify pool whose workers do
   the signature checks the instances then skip. [mc_rejects] slots are
   per pool lane; a slot is only written by that lane's (serialized)
   completion deliveries. *)
type multicore = {
  mc_lane_execs : Realtime.t array;
  mc_lane_telemetry : Telemetry.t array;
  mc_lane_traces : Trace.t array;
  mc_pool : Verify_pool.t;
  mc_rejects : int array;
}

type t = {
  setup : setup;
  exec : Realtime.t;
  tcp : Tcp.t option;
  mc : multicore option;
  h : (Replica.envelope, Replica.t) Harness.t;
  mutable started : bool;
}

(* One-byte DAG tag, then the signed protocol message, written into one
   writer — the same bytes whether the peers share a process (loopback
   skips this) or not. *)
let write_envelope w (e : Replica.envelope) =
  Wire.Writer.u8 w e.Replica.dag_id;
  Types.write_message w e.Replica.payload

let encode_envelope e =
  let w = Wire.Writer.create () in
  write_envelope w e;
  Wire.Writer.contents w

(* Decoded in place from [pos]: the tag byte, then the message to the end
   of the string. *)
let read_envelope s ~pos =
  if pos >= String.length s then None
  else
    match Types.decode_message ~pos:(pos + 1) s with
    | Ok payload -> Some { Replica.dag_id = Char.code s.[pos]; payload }
    | Error _ -> None

let decode_envelope ~cluster_seed:_ s = read_envelope s ~pos:0

(* Real-time transports neither block nor drop traffic and replicas are
   built honest, so a scenario's restarts are all the node realizes: crash
   specs that recover, mid-run. Lane executors cannot be torn down
   mid-run, so a restart needs the single-domain node. *)
let check_scenario ~domains scenario =
  let restart = function Faults.Crash { at; recover_at = Some _; _ } -> at > 0.0 | _ -> false in
  if not (List.for_all restart scenario.Faults.specs) then
    Error
      (Format.asprintf "%a: the node runs crash-recover scenarios with at > 0 only" Faults.pp
         scenario)
  else if domains > 1 && Faults.has_recovery scenario then
    Error "a crash-recover scenario needs a single-domain node"
  else Ok ()

let create setup =
  (match check_scenario ~domains:setup.domains setup.scenario with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Node.create: " ^ msg));
  let committee = setup.protocol.Config.committee in
  let n = committee.Committee.n in
  let k = max 1 setup.protocol.Config.num_dags in
  let exec = Realtime.create () in
  let mc =
    if setup.domains <= 1 then None
    else
      Some
        {
          (* A short tick: lane loops are woken by cross-domain posts for
             messages, so the tick only bounds how stale a lane's own
             timer horizon can get. *)
          mc_lane_execs =
            Array.init k (fun _ -> Realtime.create ~max_tick_ms:5.0 ~origin_of:exec ());
          mc_lane_telemetry = Array.init k (fun _ -> Telemetry.create ());
          mc_lane_traces =
            Array.init k (fun _ -> Trace.create ~enabled:(Option.is_some setup.trace) ());
          mc_pool = Verify_pool.create ~workers:setup.domains ~lanes:(n * k);
          mc_rejects = Array.make (n * k) 0;
        }
  in
  (* Transports with single-domain state (the socket poller, the delay
     shim) are wrapped so lane domains hand each send to the main loop;
     the zero-delay multicore loopback instead dispatches on the calling
     domain — its counters are atomic and the multicore handlers only
     enqueue verify-pool jobs, so no protocol code runs inline. *)
  let post_to_main (raw : Replica.envelope Backend.Transport.t) =
    {
      Backend.Transport.n = raw.Backend.Transport.n;
      send =
        (fun ~src ~dst ~size msg ->
          Realtime.post exec (fun () -> raw.Backend.Transport.send ~src ~dst ~size msg));
      broadcast =
        (fun ~src ~size ~include_self msg ->
          Realtime.post exec (fun () ->
              raw.Backend.Transport.broadcast ~src ~size ~include_self msg));
      set_handler = raw.Backend.Transport.set_handler;
      stats = raw.Backend.Transport.stats;
    }
  in
  let tcp = ref None in
  (* The multicore zero-delay loopback is the one transport safe to call
     from a lane domain directly; anything else (socket pollers, the delay
     shim's timers, the codec's scratch writer) owns single-domain state
     and must be reached through [post_to_main]. *)
  let mc_direct_loopback = Option.is_some mc && setup.delays_ms = None in
  (* Geography shim: per-(src,dst) one-way delays applied sender-side over
     whatever transport is underneath. The timers live on the main loop, so
     under [post_to_main] the delayed send itself already runs there. *)
  let shim raw =
    match setup.delays_ms with
    | None -> raw
    | Some d -> Realtime.delayed exec ~delay_ms:(fun ~src ~dst -> d.(src).(dst)) raw
  in
  let shimmed =
    match setup.transport with
    | Inproc when mc_direct_loopback -> Realtime.multicore_loopback ~n ()
    | Inproc -> shim (Realtime.loopback exec ~n)
    | Tcp base_port ->
      let h = Tcp.create exec ~n ~base_port () in
      tcp := Some h;
      (* The one codec step sits above the shim: a broadcast is encoded
         and framed once, and the shim delays that frame string. *)
      Realtime.framed ~encode:write_envelope ~decode:read_envelope (shim (Tcp.transport h))
  in
  let transport =
    if Option.is_none mc || mc_direct_loopback then shimmed else post_to_main shimmed
  in
  (* Modeled verification service time ({!Crypto_cost}), charged per
     SIGNATURE rather than per message: one for the header / vote /
     certificate check, plus one per transaction carried in a proposal's
     batch — client-signature verification is the term that scales with
     throughput and cannot be amortized by batching. The single-domain
     node pays it inline at each delivery — the same place its inline
     signature checks run — while the multicore node pays it inside the
     verify-pool job. Identical per-message charge at every domain count,
     so [--domains] comparisons vary only where the cost is paid. *)
  let verify_cost_us =
    if setup.protocol.Config.verify_signatures then setup.verify_delay_us else 0.0
  in
  let modeled_cost_us (payload : Types.message) =
    match payload with
    | Types.Proposal node ->
      verify_cost_us
      *. float_of_int (1 + List.length node.Types.batch.Shoalpp_workload.Batch.txns)
    | Types.Fetch_response cn ->
      verify_cost_us
      *. float_of_int
           (1 + List.length cn.Types.cn_node.Types.batch.Shoalpp_workload.Batch.txns)
    | _ -> verify_cost_us
  in
  let transport =
    if verify_cost_us > 0.0 && Option.is_none mc then
      {
        transport with
        Backend.Transport.set_handler =
          (fun r h ->
            transport.Backend.Transport.set_handler r (fun ~src env ->
                Crypto_cost.pay ~us:(modeled_cost_us env.Replica.payload);
                h ~src env));
      }
    else transport
  in
  let backend = Realtime.backend exec transport in
  let telemetry = Telemetry.create () in
  (* Multicore: each mempool is its own arrival group, caught up under its
     own mutex by whichever domain touches it (its lanes' proposers, the
     main domain's requeues and client stops). Disjoint stride-[n] id
     spaces replace the shared counter, which would otherwise serialize
     every lane domain on one lock. *)
  let client_group =
    Option.map
      (fun m i ->
        Shoalpp_workload.Mempool.group
          ~clock:(Realtime.clock m.mc_lane_execs.(i mod k))
          ~next_id:i ~stride:n ())
      mc
  in
  let make_replica replica_id ~mempool ~on_commit ~on_caught_up =
    let config, lane_env =
      match mc with
      | None -> (setup.protocol, None)
      | Some m ->
        (* The pool pre-verifies every inbound message's cryptography,
           so the instances run with signature checks off: structural
           validation still happens inline, and the verdicts equal
           what inline verification would produce. *)
        ( Config.without_signature_checks setup.protocol,
          Some
            {
              Replica.le_backend =
                (fun dag_id ->
                  {
                    Backend.clock = Realtime.clock m.mc_lane_execs.(dag_id);
                    timers = Realtime.timers m.mc_lane_execs.(dag_id);
                    transport;
                    control = None;
                  });
              le_obs =
                (fun dag_id ->
                  Obs.make
                    ?trace:
                      (if Option.is_some setup.trace then
                         Some m.mc_lane_traces.(dag_id)
                       else None)
                    ~telemetry:m.mc_lane_telemetry.(dag_id) ~replica:replica_id
                    ~instance:0 ())
              ;
              le_post_main = (fun f -> Realtime.post exec f);
            } )
    in
    Replica.create ~config ~replica_id ~backend ~mempool
      ~on_ordered:(fun o -> on_commit (Harness.commit_of_ordered o))
      ~on_caught_up ?trace:setup.trace ~telemetry
      ~retain_wal:(Faults.has_recovery setup.scenario)
      ?lane_env ()
  in
  let h =
    Harness.create ~backend ~n ~num_dags:setup.protocol.Config.num_dags
      ~load_tps:setup.load_tps ~tx_size:setup.tx_size ~seed:setup.seed
      ~warmup_ms:setup.warmup_ms ~track_logs:true ~telemetry ?client_group
      ~hooks:Harness.replica_hooks ~make_replica ()
  in
  (* Multicore inbound routing: the transport delivers on the main domain;
     each message is verified on the pool (one pool lane per
     (replica, dag) so per-stream FIFO order survives the steal), and the
     survivors are posted to their DAG lane's executor. *)
  (match mc with
  | None -> ()
  | Some m ->
    let verify = setup.protocol.Config.verify_signatures in
    Array.iteri
      (fun rid replica ->
        Backend.set_handler backend rid (fun ~src env ->
            let dag_id = env.Replica.dag_id in
            (* Control-plane envelopes (checkpoint votes) bypass the verify
               pool and land on the merge domain, which owns the checkpoint
               manager; their signature is checked inside the handler. *)
            if dag_id = Replica.control_dag_id then
              Realtime.post exec (fun () ->
                  Replica.deliver replica ~dag_id ~src env.Replica.payload)
            else if dag_id >= 0 && dag_id < k then begin
              let payload = env.Replica.payload in
              let pool_lane = (rid * k) + dag_id in
              (* The quiesce window: transports can still deliver after
                 {!Verify_pool.shutdown} began — the direct multicore
                 loopback even on a lane domain, racing the main domain's
                 shutdown — and a late submit raises by contract. Such a
                 message is dropped like any other still in flight. *)
              try
                Verify_pool.submit m.mc_pool ~lane:pool_lane
                  ~work:(fun () ->
                    (not verify)
                    ||
                    (Crypto_cost.pay ~us:(modeled_cost_us payload);
                     Validation.signatures_ok ~committee payload))
                  ~k:(fun ok ->
                    if ok then
                      Realtime.post m.mc_lane_execs.(dag_id) (fun () ->
                          Replica.deliver replica ~dag_id ~src payload)
                    else m.mc_rejects.(pool_lane) <- m.mc_rejects.(pool_lane) + 1)
              with Invalid_argument _ when Verify_pool.closed m.mc_pool -> ()
            end))
      (Harness.replicas h));
  { setup; exec; tcp = !tcp; mc; h; started = false }

let start t =
  if not t.started then begin
    t.started <- true;
    Array.iter Replica.start (Harness.replicas t.h);
    Array.iteri (fun i _ -> Harness.start_client t.h i) (Harness.replicas t.h);
    (* The scenario's restarts, through the simulated cluster's own
       recovery path; {!check_scenario} admitted nothing else. *)
    Faults.schedule_events t.setup.scenario ~n:(Array.length (Harness.replicas t.h))
      ~schedule_at:(fun at f -> ignore (Backend.schedule_at (Harness.backend t.h) ~at f))
      ~crash:(Harness.crash t.h) ~recover:(Harness.recover t.h)
      ~partition:(fun ~opened:_ ~time:_ ~minority:_ -> ())
  end

let run t ~duration_ms =
  start t;
  (match t.mc with
  | None -> ()
  | Some m -> Array.iter Realtime.run_in_domain m.mc_lane_execs);
  Realtime.run_for t.exec ~duration_ms;
  (* Clean shutdown: every arrival due by now is materialized, none after. *)
  Harness.stop_clients t.h;
  match t.mc with
  | None -> ()
  | Some m ->
    (* Quiesce order matters: drain the pool first so its completions land
       on still-running lane executors, then stop and join the lanes, then
       drive the main loop briefly so merge closures the lanes posted in
       their final moments still reach the global log. After this, no
       other domain is running. *)
    Verify_pool.shutdown m.mc_pool;
    Array.iter Realtime.stop_and_join m.mc_lane_execs;
    Realtime.run_for t.exec ~duration_ms:50.0

let catching_up t i = Harness.recovering t.h i || Replica.catching_up (Harness.replicas t.h).(i)
let executor t = t.exec
let tcp_ports t = Option.map Tcp.ports t.tcp
let tcp_net_stats t = Option.map Tcp.net_stats t.tcp
let backend t = Harness.backend t.h
let replicas t = Harness.replicas t.h
let metrics t = Harness.ledger t.h
let telemetry t = Harness.telemetry t.h
let ledger t = Harness.ledger t.h
let now_ms t = Realtime.now_ms t.exec
let domains t = t.setup.domains
let verify_pool t = match t.mc with None -> None | Some m -> Some m.mc_pool

(* The main loop's turn counters and CPU attribution, plus the TCP
   transport's syscall split, added to a snapshot rather than recorded
   into the registry: the loop itself touches no telemetry. Times are
   whole microseconds. *)
let with_loop_counters t (s : Telemetry.snapshot) =
  let us x = int_of_float x in
  let l = Realtime.loop_stats t.exec in
  let tcp =
    match t.tcp with
    | None -> []
    | Some h ->
      let n = Tcp.net_stats h in
      [
        ("backend.tcp_deliver_us", us n.Tcp.deliver_us);
        ("backend.tcp_flushes", n.Tcp.flushes);
        ("backend.tcp_read_us", us n.Tcp.read_us);
        ("backend.tcp_write_us", us n.Tcp.write_us);
      ]
  in
  let loop =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      ([
         ("backend.io_us", us l.Realtime.io_us);
         ("backend.loop_cpu_us", us l.Realtime.cpu_us);
         ("backend.loop_sleeps", l.Realtime.sleeps);
         ("backend.loop_timeouts", l.Realtime.timeouts);
         ("backend.loop_turns", l.Realtime.turns);
         ("backend.select_cpu_us", us l.Realtime.select_cpu_us);
         ("backend.timer_us", us l.Realtime.timer_us);
       ]
      @ tcp)
  in
  {
    s with
    Telemetry.snap_counters =
      List.merge (fun (a, _) (b, _) -> String.compare a b) s.Telemetry.snap_counters loop;
  }

let live_snapshot t = with_loop_counters t (Telemetry.snapshot (telemetry t))

(* Lane-domain sinks are merged only after the lanes have been joined
   (post-run): mid-run the main registry alone feeds the admin endpoint,
   so a scrape never races a foreign domain's histogram. *)
let telemetry_snapshot t =
  match t.mc with
  | None -> live_snapshot t
  | Some m ->
    let combined = Telemetry.create () in
    Telemetry.merge ~src:(telemetry t) ~dst:combined;
    Array.iter (fun src -> Telemetry.merge ~src ~dst:combined) m.mc_lane_telemetry;
    with_loop_counters t (Telemetry.snapshot combined)

let trace_events t =
  let main = match t.setup.trace with Some tr -> Trace.events tr | None -> [] in
  match t.mc with
  | None -> main
  | Some m ->
    let lanes =
      Array.fold_left (fun acc tr -> acc @ Trace.events tr) [] m.mc_lane_traces
    in
    List.stable_sort
      (fun (a : Trace.event) b -> Float.compare a.Trace.time b.Trace.time)
      (main @ lanes)

let trace_dropped t =
  (match t.setup.trace with Some tr -> Trace.dropped tr | None -> 0)
  +
  match t.mc with
  | None -> 0
  | Some m -> Array.fold_left (fun acc tr -> acc + Trace.dropped tr) 0 m.mc_lane_traces

(* Repeating in-run snapshot refresh: keeps the admin endpoint's gauges
   live while the loop runs instead of only materializing at shutdown.
   Realtime-only by construction (nothing in the sim harness calls it), so
   the extra timer events never touch deterministic runs. *)
let arm_live_gauges ?(interval_ms = 250.0) t =
  let gauge = Telemetry.gauge (telemetry t) in
  let g_uptime = gauge "live.uptime_ms" in
  let g_committed = gauge "live.committed" in
  let g_tps = gauge "live.commit_tps" in
  let g_dropped = gauge "live.trace_dropped" in
  let g_heap = gauge "live.heap_words" in
  let last = ref (Backend.now (backend t), Ledger.committed (ledger t)) in
  let rec tick () =
    let now = Backend.now (backend t) in
    let committed = Ledger.committed (ledger t) in
    let last_now, last_committed = !last in
    let dt_s = Float.max 0.001 ((now -. last_now) /. 1000.0) in
    Telemetry.set g_uptime now;
    Telemetry.set g_committed (float_of_int committed);
    Telemetry.set g_tps (float_of_int (committed - last_committed) /. dt_s);
    (match t.setup.trace with
    | Some tr -> Telemetry.set g_dropped (float_of_int (Trace.dropped tr))
    | None -> ());
    (* Live words, not peak: the memory-ceiling smoke scrapes this to prove
       checkpoint-anchored pruning holds long runs bounded. *)
    Telemetry.set g_heap (float_of_int (Gc.quick_stat ()).Gc.heap_words);
    last := (now, committed);
    ignore (Backend.schedule (backend t) ~after:interval_ms tick)
  in
  ignore (Backend.schedule (backend t) ~after:interval_ms tick)

type audit = Harness.audit = {
  consistent_prefixes : bool;
  prefix_length : int;
  total_segments : int;
  duplicate_orders : int;
  recovery_prefix_ok : bool;
  anchors_per_lane : int array;
}

let audit t = Harness.audit t.h
let ordered_ids t ~replica = Harness.ordered_ids t.h ~replica

let report t ~duration_ms =
  Harness.report t.h
    ~name:(t.setup.protocol.Config.name ^ "/realtime")
    ~duration_ms ~telemetry:(telemetry_snapshot t) ~trace_dropped:(trace_dropped t)
