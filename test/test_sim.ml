(* Tests for the simulation substrate: event engine, topologies, network
   model (latency, bandwidth, drops, crashes, CPU sequencing), fault
   schedules, tracing, and the simulated storage. *)

module Engine = Shoalpp_sim.Engine
module Topology = Shoalpp_sim.Topology
module Netmodel = Shoalpp_sim.Netmodel
module Faults = Shoalpp_sim.Faults
module Trace = Shoalpp_sim.Trace
module Wal = Shoalpp_storage.Wal
module Kvstore = Shoalpp_storage.Kvstore
module Digest32 = Shoalpp_crypto.Digest32

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_fires_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~after:30.0 (fun () -> log := 30 :: !log));
  ignore (Engine.schedule e ~after:10.0 (fun () -> log := 10 :: !log));
  ignore (Engine.schedule e ~after:20.0 (fun () -> log := 20 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (List.rev !log);
  checkf "clock" 30.0 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~after:7.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule e ~after:5.0 (fun () -> fired := true) in
  checkb "pending" true (Engine.is_pending timer);
  Engine.cancel timer;
  checkb "not pending" false (Engine.is_pending timer);
  Engine.run e;
  checkb "cancelled did not fire" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~after:10.0 (fun () -> incr fired));
  ignore (Engine.schedule e ~after:100.0 (fun () -> incr fired));
  Engine.run ~until:50.0 e;
  checki "one fired" 1 !fired;
  checkf "clock at horizon" 50.0 (Engine.now e);
  Engine.run e;
  checki "second fires later" 2 !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~after:10.0 (fun () ->
         times := Engine.now e :: !times;
         ignore (Engine.schedule e ~after:5.0 (fun () -> times := Engine.now e :: !times))));
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "nested times" [ 10.0; 15.0 ] (List.rev !times)

let test_engine_past_schedule_clamped () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:10.0 (fun () -> ()));
  Engine.run e;
  let fired = ref false in
  ignore (Engine.schedule_at e ~at:3.0 (fun () -> fired := true));
  Engine.run e;
  checkb "fired" true !fired;
  checkf "clock did not go backwards" 10.0 (Engine.now e)

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec rearm () =
    incr count;
    ignore (Engine.schedule e ~after:1.0 rearm)
  in
  ignore (Engine.schedule e ~after:1.0 rearm);
  Engine.run ~max_events:50 e;
  checki "bounded" 50 !count

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_gcp10_shape () =
  let t = Topology.gcp10 () in
  checki "regions" 10 (Topology.num_regions t);
  (* Symmetric, intra-region small, one-way in the paper's RTT/2 range. *)
  for i = 0 to 9 do
    for j = 0 to 9 do
      checkf
        (Printf.sprintf "symmetric %d %d" i j)
        (Topology.one_way_ms t i j) (Topology.one_way_ms t j i);
      if i <> j then
        checkb "range" true (Topology.one_way_ms t i j >= 12.0 && Topology.one_way_ms t i j <= 160.0)
    done
  done;
  checkf "max one-way is SA-Africa" 158.5 (Topology.max_one_way_ms t)

let test_uniform_topology () =
  let t = Topology.uniform ~delay_ms:50.0 in
  checki "one region" 1 (Topology.num_regions t);
  checkf "delay" 50.0 (Topology.one_way_ms t 0 0)

let test_assignment_round_robin () =
  let t = Topology.gcp10 () in
  let a = Topology.assign_round_robin t ~n:25 in
  checki "length" 25 (Array.length a);
  checki "replica 0" 0 a.(0);
  checki "replica 10 wraps" 0 a.(10);
  checki "replica 13" 3 a.(13)

(* The one spec parser the CLI and the benchmarks share: each form is its
   constructor, and a spec that would crash a run or model negative time
   is refused up front. *)
let test_of_spec_forms () =
  let same spec expected =
    match Topology.of_spec spec with
    | Error msg -> Alcotest.failf "%s rejected: %s" spec msg
    | Ok t ->
      List.iter
        (fun n ->
          Alcotest.(check (array (array (float 0.0))))
            (Printf.sprintf "%s n=%d" spec n)
            (Topology.delay_matrix expected ~n) (Topology.delay_matrix t ~n))
        [ 1; 4; 7; 16 ];
      Alcotest.(check string)
        (spec ^ " round-trips") (Topology.to_spec expected) (Topology.to_spec t)
  in
  same "gcp10" (Topology.gcp10 ());
  same "GCP10" (Topology.gcp10 ());
  same "uniform:50" (Topology.uniform ~delay_ms:50.0);
  same "uniform:0" (Topology.uniform ~delay_ms:0.0);
  same "clique:4,15" (Topology.clique ~regions:4 ~one_way_ms:15.0);
  same "clique:7,12.5" (Topology.clique ~regions:7 ~one_way_ms:12.5);
  (match Topology.of_spec "clique:4,30" with
  | Ok t -> checkf "clique delay" 30.0 (Topology.one_way_ms t 0 1)
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun t ->
      match Topology.of_spec (Topology.to_spec t) with
      | Ok t' ->
        Alcotest.(check (array (array (float 0.0))))
          (Topology.to_spec t ^ " reads back")
          (Topology.delay_matrix t ~n:5) (Topology.delay_matrix t' ~n:5)
      | Error msg -> Alcotest.fail msg)
    [
      Topology.gcp10 (); Topology.uniform ~delay_ms:0.25; Topology.uniform ~delay_ms:(1.0 /. 3.0);
      Topology.clique ~regions:3 ~one_way_ms:40.0; Topology.clique ~regions:2 ~one_way_ms:0.1234567;
    ]

let test_of_spec_rejects () =
  List.iter
    (fun spec ->
      checkb (spec ^ " rejected") true (Result.is_error (Topology.of_spec spec)))
    [
      "clique:0,15"; "clique:-2,15"; "clique:4,inf"; "clique:4,-1"; "clique:4"; "clique:4,15,3";
      "uniform:-20"; "uniform:nan"; "uniform:inf"; "uniform:"; "uniform"; "bogus"; "gcp10:3"; "";
    ]

(* ------------------------------------------------------------------ *)
(* Netmodel *)

let quiet_config =
  {
    Netmodel.default_config with
    Netmodel.jitter_ms = 0.0;
    epoch_ms = 0.0;
    epoch_extra_mean_ms = 0.0;
    cpu_fixed_ms = 0.0;
    cpu_per_byte_ms = 0.0;
  }

let make_net ?(config = quiet_config) ?(scenario = Faults.none) ?(n = 4) () =
  let engine = Engine.create () in
  let topology = Topology.clique ~regions:n ~one_way_ms:10.0 in
  let assignment = Topology.assign_round_robin topology ~n in
  let fault = Faults.schedule scenario ~n in
  let net = Netmodel.create ~engine ~topology ~assignment ~fault ~config ~seed:3 () in
  (engine, net)

let test_net_delivery_time () =
  let engine, net = make_net () in
  let delivered_at = ref nan in
  Netmodel.set_handler net 1 (fun ~src:_ () -> delivered_at := Engine.now engine);
  Netmodel.send net ~src:0 ~dst:1 ~size:0 ();
  Engine.run engine;
  checkf "exactly propagation delay" 10.0 !delivered_at

let test_net_bandwidth_serialization () =
  (* Two 1 MB messages on a 1 MB/ms pipe: second is delayed 1 ms more. *)
  let config = { quiet_config with Netmodel.bandwidth_bytes_per_ms = 1_000_000.0 } in
  let engine, net = make_net ~config () in
  let times = ref [] in
  Netmodel.set_handler net 1 (fun ~src:_ () -> times := Engine.now engine :: !times);
  Netmodel.send net ~src:0 ~dst:1 ~size:1_000_000 ();
  Netmodel.send net ~src:0 ~dst:1 ~size:1_000_000 ();
  Engine.run engine;
  match List.rev !times with
  | [ t1; t2 ] ->
    checkf "first after ser + prop" 11.0 t1;
    checkf "second queued behind" 12.0 t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_net_loopback () =
  let engine, net = make_net () in
  let got = ref false in
  Netmodel.set_handler net 0 (fun ~src () ->
      got := true;
      checki "src" 0 src);
  Netmodel.send net ~src:0 ~dst:0 ~size:100 ();
  Engine.run engine;
  checkb "loopback delivered" true !got;
  checkb "fast" true (Engine.now engine < 1.0)

let test_net_broadcast_include_self () =
  let engine, net = make_net () in
  let seen = Array.make 4 0 in
  for i = 0 to 3 do
    Netmodel.set_handler net i (fun ~src:_ () -> seen.(i) <- seen.(i) + 1)
  done;
  Netmodel.broadcast net ~src:0 ~size:10 ();
  Netmodel.broadcast net ~src:0 ~size:10 ~include_self:false ();
  Engine.run engine;
  checki "self got one" 1 seen.(0);
  checki "others got two" 2 seen.(1)

let test_net_crash_semantics () =
  (* Replica 3, the top id, is down from t=5. *)
  let engine, net = make_net ~scenario:(Faults.crash ~at:5.0 ()) () in
  let got = ref 0 in
  Netmodel.set_handler net 3 (fun ~src:_ () -> incr got);
  Netmodel.set_handler net 2 (fun ~src:_ () -> incr got);
  (* Sent before the crash but delivered after: must vanish. *)
  Netmodel.send net ~src:0 ~dst:3 ~size:0 ();
  Engine.run engine;
  checki "late delivery suppressed" 0 !got;
  (* A crashed sender sends nothing. *)
  Netmodel.send net ~src:3 ~dst:2 ~size:0 ();
  Engine.run engine;
  checki "crashed sender suppressed" 0 !got

let test_net_drop_rate () =
  let engine, net = make_net ~scenario:(Faults.drop ~rate:0.5 ()) () in
  let got = ref 0 in
  Netmodel.set_handler net 1 (fun ~src:_ () -> incr got);
  for _ = 1 to 2000 do
    Netmodel.send net ~src:0 ~dst:1 ~size:0 ()
  done;
  Engine.run engine;
  checkb "about half dropped" true (!got > 850 && !got < 1150);
  checki "drop counter matches" (2000 - !got) (Netmodel.messages_dropped net)

let test_net_determinism () =
  let run () =
    let engine, net = make_net ~config:Netmodel.default_config () in
    let times = ref [] in
    Netmodel.set_handler net 1 (fun ~src:_ () -> times := Engine.now engine :: !times);
    for _ = 1 to 20 do
      Netmodel.send net ~src:0 ~dst:1 ~size:500 ()
    done;
    Engine.run engine;
    !times
  in
  Alcotest.(check (list (float 1e-12))) "same seed, same run" (run ()) (run ())

let test_net_cpu_sequencing () =
  let config = { quiet_config with Netmodel.cpu_fixed_ms = 2.0 } in
  let engine, net = make_net ~config () in
  let times = ref [] in
  Netmodel.set_handler net 1 (fun ~src:_ () -> times := Engine.now engine :: !times);
  (* Two messages arriving together at t=10 are processed back to back. *)
  Netmodel.send net ~src:0 ~dst:1 ~size:0 ();
  Netmodel.send net ~src:2 ~dst:1 ~size:0 ();
  Engine.run engine;
  match List.sort compare !times with
  | [ t1; t2 ] ->
    checkf "first processed" 12.0 t1;
    checkf "second queued on cpu" 14.0 t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_net_extra_delay_epochs () =
  let config =
    { quiet_config with Netmodel.epoch_ms = 100.0; epoch_extra_mean_ms = 5.0 }
  in
  let _, net = make_net ~config () in
  let d1 = Netmodel.extra_delay_ms net ~src:0 ~time:50.0 in
  let d1' = Netmodel.extra_delay_ms net ~src:0 ~time:80.0 in
  checkf "stable within epoch" d1 d1';
  let differs = ref false in
  for epoch = 1 to 20 do
    if Netmodel.extra_delay_ms net ~src:0 ~time:(float_of_int epoch *. 100.0 +. 1.0) <> d1 then
      differs := true
  done;
  checkb "changes across epochs" true !differs;
  checkb "non-negative" true (d1 >= 0.0)

(* ------------------------------------------------------------------ *)
(* Fault timelines, materialized from scenarios *)

let crashed_at f ~n ~time =
  List.filter (fun r -> Faults.is_crashed f ~replica:r ~time) (List.init n Fun.id)

let test_fault_crash_window () =
  let f = Faults.schedule (Faults.crash ~at:100.0 ()) ~n:3 in
  checkb "before" false (Faults.is_crashed f ~replica:2 ~time:99.0);
  checkb "at" true (Faults.is_crashed f ~replica:2 ~time:100.0);
  checkb "other replica" false (Faults.is_crashed f ~replica:1 ~time:200.0);
  Alcotest.(check (list int)) "crashed list" [ 2 ] (crashed_at f ~n:3 ~time:150.0)

let test_fault_drop_combination () =
  let drop = Faults.drop ~rate:0.5 ~from_time:100.0 () in
  let f = Faults.schedule (Faults.combine [ drop; drop ]) ~n:4 in
  checkf "combines independently" 0.75 (Faults.egress_drop_rate f ~src:0 ~time:150.0);
  checkf "outside window" 0.0 (Faults.egress_drop_rate f ~src:0 ~time:50.0);
  checkf "other replica" 0.0 (Faults.egress_drop_rate f ~src:1 ~time:150.0)

let test_fault_earliest_crash_wins () =
  let late = Faults.crash ~at:50.0 () and early = Faults.crash ~at:20.0 () in
  let f = Faults.schedule (Faults.combine [ late; early ]) ~n:2 in
  checkb "up before the earliest" false (Faults.is_crashed f ~replica:1 ~time:19.0);
  checkb "down from the earliest" true (Faults.is_crashed f ~replica:1 ~time:20.0)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_disabled_is_noop () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~replica:0 ~tag:"x" "y";
  checki "nothing recorded" 0 (Trace.count t)

let test_trace_ring_buffer () =
  let t = Trace.create ~enabled:true ~capacity:3 () in
  for i = 1 to 5 do
    Trace.record t ~time:(float_of_int i) ~replica:0 ~tag:"t" (string_of_int i)
  done;
  checki "total" 5 (Trace.count t);
  checki "retained" 3 (Trace.retained t);
  checki "dropped" 2 (Trace.dropped t);
  let kept = Trace.events t in
  checki "capacity" 3 (List.length kept);
  Alcotest.(check (list string)) "keeps most recent" [ "3"; "4"; "5" ]
    (List.map (fun (e : Trace.event) -> Trace.detail e.Trace.kind) kept)

let test_trace_events_before_wraparound () =
  let t = Trace.create ~enabled:true ~capacity:8 () in
  for i = 1 to 3 do
    Trace.record t ~time:(float_of_int i) ~replica:0 ~tag:"t" (string_of_int i)
  done;
  checki "dropped" 0 (Trace.dropped t);
  Alcotest.(check (list string)) "all retained, oldest first" [ "1"; "2"; "3" ]
    (List.map (fun (e : Trace.event) -> Trace.detail e.Trace.kind) (Trace.events t))

let test_trace_typed_events () =
  let t = Trace.create ~enabled:true () in
  Trace.record_event t ~time:1.0 ~replica:2 ~instance:1
    (Trace.Anchor_direct_fast { round = 5; anchor = 3 });
  Trace.record_event t ~time:2.0 ~replica:0 (Trace.Timeout_fired { round = 6 });
  (match Trace.events t with
  | [ a; b ] ->
    Alcotest.(check string) "tag" "anchor_direct_fast" (Trace.tag a.Trace.kind);
    Alcotest.(check string) "detail" "round=5 anchor=3" (Trace.detail a.Trace.kind);
    checki "instance" 1 a.Trace.instance;
    checki "default instance" 0 b.Trace.instance
  | _ -> Alcotest.fail "expected two events");
  checki "find typed" 1 (List.length (Trace.find t ~tag:"timeout_fired"))

let test_trace_fields_roundtrip () =
  let kinds =
    [
      Trace.Proposal_created { round = 1; txns = 10 };
      Trace.Vote_cast { round = 2; author = 3 };
      Trace.Cert_formed { round = 2; author = 1 };
      Trace.Cert_received { round = 2; author = 0 };
      Trace.Anchor_direct_fast { round = 4; anchor = 1 };
      Trace.Anchor_direct_certified { round = 4; anchor = 2 };
      Trace.Anchor_indirect { round = 6; anchor = 0 };
      Trace.Anchor_skipped { round = 6; anchor = 3 };
      Trace.Segment_committed { round = 4; anchor = 1; nodes = 7 };
      Trace.Segment_interleaved { global_seq = 9; round = 4; anchor = 1; txns = 120 };
      Trace.Timeout_fired { round = 8 };
      Trace.Fetch_requested { round = 3; author = 2 };
      Trace.Gc_pruned { below = 2 };
      Trace.Custom { tag = "note"; detail = "free text" };
    ]
  in
  List.iter
    (fun kind ->
      match Trace.kind_of_fields ~tag:(Trace.tag kind) (Trace.fields kind) with
      | Some back -> checkb (Trace.tag kind) true (back = kind)
      | None -> Alcotest.fail (Trace.tag kind ^ ": no decode"))
    kinds

let test_trace_find_and_clear () =
  let t = Trace.create ~enabled:true () in
  Trace.record t ~time:1.0 ~replica:0 ~tag:"a" "1";
  Trace.record t ~time:2.0 ~replica:1 ~tag:"b" "2";
  Trace.recordf t ~time:3.0 ~replica:2 ~tag:"a" "%d-%s" 3 "x";
  checki "find a" 2 (List.length (Trace.find t ~tag:"a"));
  Trace.clear t;
  checki "cleared" 0 (List.length (Trace.events t))

(* ------------------------------------------------------------------ *)
(* Wal *)

let test_wal_sync_latency () =
  let engine = Engine.create () in
  let wal = Wal.create ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~sync_latency_ms:5.0 () in
  let done_at = ref nan in
  Wal.append wal ~size:100 (fun () -> done_at := Engine.now engine);
  Engine.run engine;
  checkf "synced after latency" 5.0 !done_at;
  checki "appends" 1 (Wal.appends wal);
  checki "syncs" 1 (Wal.syncs wal)

let test_wal_group_commit () =
  let engine = Engine.create () in
  let wal = Wal.create ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~sync_latency_ms:5.0 () in
  let finished = ref [] in
  (* First append starts a sync; the next three coalesce into one. *)
  Wal.append wal ~size:1 (fun () -> finished := (1, Engine.now engine) :: !finished);
  Wal.append wal ~size:1 (fun () -> finished := (2, Engine.now engine) :: !finished);
  Wal.append wal ~size:1 (fun () -> finished := (3, Engine.now engine) :: !finished);
  Wal.append wal ~size:1 (fun () -> finished := (4, Engine.now engine) :: !finished);
  Engine.run engine;
  checki "two syncs for four appends" 2 (Wal.syncs wal);
  (match List.assoc_opt 1 (List.rev !finished) with
  | Some t -> checkf "first at 5" 5.0 t
  | None -> Alcotest.fail "first append lost");
  match List.assoc_opt 4 (List.rev !finished) with
  | Some t -> checkf "batch at 10" 10.0 t
  | None -> Alcotest.fail "fourth append lost"

let test_wal_callback_never_synchronous () =
  let engine = Engine.create () in
  let wal = Wal.create ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~sync_latency_ms:0.0 () in
  let fired = ref false in
  Wal.append wal ~size:1 (fun () -> fired := true);
  checkb "async even at zero latency" false !fired;
  Engine.run engine;
  checkb "then fires" true !fired

(* ------------------------------------------------------------------ *)
(* Kvstore *)

let test_kvstore_basic () =
  let kv = Kvstore.create () in
  let k1 = Digest32.of_string "k1" and k2 = Digest32.of_string "k2" in
  Kvstore.put kv k1 "v1";
  checkb "mem" true (Kvstore.mem kv k1);
  Alcotest.(check (option string)) "get" (Some "v1") (Kvstore.get kv k1);
  Alcotest.(check (option string)) "missing" None (Kvstore.get kv k2);
  Kvstore.put kv k1 "v1b";
  Alcotest.(check (option string)) "replace" (Some "v1b") (Kvstore.get kv k1);
  checki "size" 1 (Kvstore.size kv);
  Kvstore.remove kv k1;
  checki "removed" 0 (Kvstore.size kv)

let suite =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "time order" `Quick test_engine_fires_in_time_order;
        Alcotest.test_case "same-time FIFO" `Quick test_engine_same_time_fifo;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "run until" `Quick test_engine_until;
        Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
        Alcotest.test_case "past schedule clamped" `Quick test_engine_past_schedule_clamped;
        Alcotest.test_case "max events" `Quick test_engine_max_events;
      ] );
    ( "sim.topology",
      [
        Alcotest.test_case "gcp10 shape" `Quick test_gcp10_shape;
        Alcotest.test_case "uniform" `Quick test_uniform_topology;
        Alcotest.test_case "round robin assignment" `Quick test_assignment_round_robin;
        Alcotest.test_case "of_spec forms" `Quick test_of_spec_forms;
        Alcotest.test_case "of_spec rejects" `Quick test_of_spec_rejects;
      ] );
    ( "sim.netmodel",
      [
        Alcotest.test_case "delivery time" `Quick test_net_delivery_time;
        Alcotest.test_case "bandwidth serialization" `Quick test_net_bandwidth_serialization;
        Alcotest.test_case "loopback" `Quick test_net_loopback;
        Alcotest.test_case "broadcast include self" `Quick test_net_broadcast_include_self;
        Alcotest.test_case "crash semantics" `Quick test_net_crash_semantics;
        Alcotest.test_case "drop rate" `Quick test_net_drop_rate;
        Alcotest.test_case "determinism" `Quick test_net_determinism;
        Alcotest.test_case "cpu sequencing" `Quick test_net_cpu_sequencing;
        Alcotest.test_case "slow epochs" `Quick test_net_extra_delay_epochs;
      ] );
    ( "sim.fault",
      [
        Alcotest.test_case "crash window" `Quick test_fault_crash_window;
        Alcotest.test_case "drop combination" `Quick test_fault_drop_combination;
        Alcotest.test_case "earliest crash wins" `Quick test_fault_earliest_crash_wins;
      ] );
    ( "sim.trace",
      [
        Alcotest.test_case "disabled noop" `Quick test_trace_disabled_is_noop;
        Alcotest.test_case "ring buffer" `Quick test_trace_ring_buffer;
        Alcotest.test_case "events before wraparound" `Quick test_trace_events_before_wraparound;
        Alcotest.test_case "typed events" `Quick test_trace_typed_events;
        Alcotest.test_case "fields roundtrip" `Quick test_trace_fields_roundtrip;
        Alcotest.test_case "find and clear" `Quick test_trace_find_and_clear;
      ] );
    ( "storage.wal",
      [
        Alcotest.test_case "sync latency" `Quick test_wal_sync_latency;
        Alcotest.test_case "group commit" `Quick test_wal_group_commit;
        Alcotest.test_case "never synchronous" `Quick test_wal_callback_never_synchronous;
      ] );
    ( "storage.kvstore", [ Alcotest.test_case "basic" `Quick test_kvstore_basic ] );
  ]
