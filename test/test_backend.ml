(* Tests for the backend abstraction (the sans-I/O seam):

   - conformance: full experiment runs routed through {!Backend_sim} must
     reproduce the pinned golden digests byte-for-byte (the indirection is
     pure delegation), and a second seed must be deterministic across
     repeated runs, for Shoal++ and both baselines;
   - the wall-clock executor: timer ordering, cancellation, monotonic
     clock, length-prefixed framing (incremental decode, corrupt input);
   - a short real-time cluster run (the same replicas the simulator runs,
     over the loopback transport) passing the safety audit with at least
     one committed anchor on every DAG lane. *)

module Backend = Shoalpp_backend.Backend
module Backend_sim = Shoalpp_backend.Backend_sim
module Realtime = Shoalpp_backend.Backend_realtime
module Engine = Shoalpp_sim.Engine
module E = Shoalpp_runtime.Experiment
module Report = Shoalpp_runtime.Report
module Export = Shoalpp_runtime.Export
module Node = Shoalpp_runtime.Node
module Config = Shoalpp_core.Config
module Committee = Shoalpp_dag.Committee
module Wire = Shoalpp_codec.Wire

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Backend_sim conformance: experiment runs (cluster and baselines alike
   now construct their replicas against a Backend) must stay on the golden
   digests pinned before the backend refactor, and stay deterministic on a
   second seed. *)

let run_digest system ~seed =
  Shoalpp_baselines.Register.register ();
  let params =
    {
      E.default_params with
      E.n = 4;
      load_tps = 500.0;
      duration_ms = 3_000.0;
      warmup_ms = 500.0;
      seed;
      verify_signatures = false;
      trace = true;
      trace_capacity = 262_144;
    }
  in
  let o = E.run system params in
  let r = o.E.report in
  let summary =
    Printf.sprintf "committed=%d fast=%d direct=%d indirect=%d skipped=%d audit=%b"
      r.Report.committed r.Report.fast_commits r.Report.direct_commits r.Report.indirect_commits
      r.Report.skipped_anchors o.E.audit_ok
  in
  Shoalpp_crypto.Sha256.to_hex
    (Shoalpp_crypto.Sha256.digest_string (Export.jsonl_of_events o.E.events ^ "\n" ^ summary))

(* Same constants as test_perf_fixes: captured on the pre-backend code. *)
let golden =
  [
    ("shoal++", E.Shoalpp, "80b8a19140a933935f53514982a7f09980e71ab01771b99ee0c3455b56cd268d");
    ("jolteon", E.Jolteon, "2a5c05b857fd76d4c69cb435246f01d94b1cd9068b56808e11bc7991646f01f6");
    ("mysticeti", E.Mysticeti, "c2dc2dda8eeb7a9e265243ef23ca96245e446352a399bb63c347d4308e450efe");
  ]

let test_sim_reproduces_golden_traces () =
  List.iter
    (fun (name, system, expected) -> checks (name ^ " golden") expected (run_digest system ~seed:11))
    golden

let test_sim_deterministic_on_second_seed () =
  List.iter
    (fun (name, system, _) ->
      checks (name ^ " seed 12 deterministic") (run_digest system ~seed:12)
        (run_digest system ~seed:12))
    golden

(* ------------------------------------------------------------------ *)
(* The wall-clock executor's timer wheel. *)

let test_realtime_timer_order () =
  let exec = Realtime.create () in
  let timers = Realtime.timers exec in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore (timers.Backend.Timers.schedule ~after:5.0 (note "c"));
  ignore (timers.Backend.Timers.schedule ~after:1.0 (note "a"));
  ignore (timers.Backend.Timers.schedule ~after:3.0 (note "b"));
  (* Equal due-times must fire in scheduling order. *)
  ignore (timers.Backend.Timers.schedule ~after:3.0 (note "b2"));
  Realtime.run_for exec ~duration_ms:80.0;
  Alcotest.(check (list string)) "due-time then FIFO order" [ "a"; "b"; "b2"; "c" ]
    (List.rev !fired);
  checki "events fired" 4 (Realtime.events_fired exec);
  checki "heap drained" 0 (Realtime.pending_timers exec)

let test_realtime_timer_cancel () =
  let exec = Realtime.create () in
  let timers = Realtime.timers exec in
  let fired = ref 0 in
  let t1 = timers.Backend.Timers.schedule ~after:2.0 (fun () -> incr fired) in
  let t2 = timers.Backend.Timers.schedule ~after:4.0 (fun () -> incr fired) in
  Backend.cancel t1;
  checkb "cancelled not pending" false (Backend.is_pending t1);
  checkb "live timer pending" true (Backend.is_pending t2);
  Realtime.run_for exec ~duration_ms:50.0;
  checki "only the live timer fired" 1 !fired;
  checkb "fired timer no longer pending" false (Backend.is_pending t2)

(* Timers that are always due must not starve the sockets: every turn
   ends in a select, even when the drain stopped with work still due. *)
let test_realtime_pollers_not_starved () =
  let exec = Realtime.create () in
  let r, w = Unix.pipe () in
  let rec spin () = Realtime.post exec spin in
  spin ();
  let served = ref false in
  Realtime.add_poller exec r (fun () ->
      ignore (Unix.read r (Bytes.create 1) 0 1);
      served := true;
      Realtime.stop exec);
  ignore (Unix.write_substring w "x" 0 1);
  let t0 = Realtime.now_ms exec in
  Realtime.run_for exec ~duration_ms:2_000.0;
  Realtime.remove_poller exec r;
  Unix.close r;
  Unix.close w;
  checkb "readable socket serviced" true !served;
  checkb "timers kept firing meanwhile" true (Realtime.events_fired exec > 0);
  checkb "serviced promptly" true (Realtime.now_ms exec -. t0 < 1_000.0)

(* A turn that fires a timer makes one select, which sleeps to the next
   deadline: no zero-timeout poll follows a firing. Here the timer stops
   the loop, so the run is two turns — sleep to the timer, fire it and
   select once more (woken at once by the stop) — and both slept. *)
let test_realtime_one_select_per_turn () =
  let exec = Realtime.create () in
  let timers = Realtime.timers exec in
  ignore (timers.Backend.Timers.schedule ~after:10.0 (fun () -> Realtime.stop exec));
  Realtime.run_for exec ~duration_ms:1_000.0;
  checki "the timer fired" 1 (Realtime.events_fired exec);
  checkb "at least the two turns" true (Realtime.loop_turns exec >= 2);
  checki "every turn's one select could sleep" (Realtime.loop_turns exec)
    (Realtime.loop_sleeps exec)

let test_realtime_clock_monotonic () =
  let exec = Realtime.create () in
  let clock = Realtime.clock exec in
  let last = ref (clock.Backend.Clock.now ()) in
  for _ = 1 to 1000 do
    let now = clock.Backend.Clock.now () in
    checkb "non-decreasing" true (now >= !last);
    last := now
  done

(* ------------------------------------------------------------------ *)
(* Socket framing: 4-byte length prefix + (src, payload) body. *)

let frame_of (src, payload) =
  Realtime.Framing.frame (Wire.Writer.create ()) ~src (fun w -> Wire.Writer.raw w payload)

let payload_of frame =
  let _, pos = Realtime.Framing.header frame in
  String.sub frame pos (String.length frame - pos)

let test_framing_roundtrip_chunked () =
  let frames = [ (0, "hello"); (3, ""); (200, String.make 1000 'x') ] in
  let framed = List.map (fun f -> (fst f, frame_of f)) frames in
  let stream = String.concat "" (List.map snd framed) in
  (* All at once. *)
  let d = Realtime.Framing.decoder () in
  let all = Realtime.Framing.feed d (Bytes.of_string stream) (String.length stream) in
  Alcotest.(check (list (pair int string))) "one chunk" framed all;
  Alcotest.(check (list (pair int string)))
    "payloads recovered" frames
    (List.map (fun (src, f) -> (src, payload_of f)) all);
  (* Byte by byte: partial frames must buffer across feeds. *)
  let d = Realtime.Framing.decoder () in
  let got = ref [] in
  String.iter
    (fun c -> List.iter (fun f -> got := f :: !got) (Realtime.Framing.feed d (Bytes.make 1 c) 1))
    stream;
  Alcotest.(check (list (pair int string))) "byte at a time" framed (List.rev !got);
  (* Reads cut at [cuts]: every two-read split, and a read that ends one
     frame, carries a whole one and starts the last. *)
  let len = String.length stream in
  let feed_cut cuts =
    let d = Realtime.Framing.decoder () in
    List.concat_map
      (fun (from, upto) ->
        Realtime.Framing.feed d (Bytes.of_string (String.sub stream from (upto - from))) (upto - from))
      (List.combine (0 :: cuts) (cuts @ [ len ]))
  in
  for cut = 0 to len do
    Alcotest.(check (list (pair int string))) (Printf.sprintf "split at %d" cut) framed (feed_cut [ cut ])
  done;
  let first = String.length (snd (List.hd framed)) in
  Alcotest.(check (list (pair int string)))
    "several frames in the middle read" framed
    (feed_cut [ first - 3; len - 2 ])

let test_framing_rejects_corrupt_stream () =
  let d = Realtime.Framing.decoder () in
  (* A length prefix of 0xFFFFFFFF: far over the 64 MiB body bound. *)
  let junk = Bytes.make 4 '\xff' in
  (match Realtime.Framing.feed d junk 4 with
  | _ -> Alcotest.fail "expected Malformed on oversized frame"
  | exception Wire.Reader.Malformed _ -> ());
  (* A plausible length followed by a body that is not a Wire message. *)
  let d = Realtime.Framing.decoder () in
  let body = "\xff\xff\xff\xff" in
  let framed = Bytes.create (4 + String.length body) in
  Bytes.set_int32_be framed 0 (Int32.of_int (String.length body));
  Bytes.blit_string body 0 framed 4 (String.length body);
  (match Realtime.Framing.feed d framed (Bytes.length framed) with
  | _ -> Alcotest.fail "expected Malformed on corrupt body"
  | exception Wire.Reader.Malformed _ -> ())

(* ------------------------------------------------------------------ *)
(* A real-time cluster: the simulator's replicas on a wall clock. Short
   wall-time run, then the same safety audit the simulated cluster gets. *)

let test_realtime_cluster_run () =
  let committee = Committee.make ~n:4 ~cluster_seed:21 () in
  let protocol = Config.without_signature_checks (Config.shoalpp ~committee) in
  let setup =
    { (Node.default_setup ~protocol) with Node.load_tps = 200.0; seed = 21 }
  in
  let node = Node.create setup in
  Node.run node ~duration_ms:1_000.0;
  let audit = Node.audit node in
  checkb "consistent prefixes" true audit.Node.consistent_prefixes;
  checki "no duplicate orders" 0 audit.Node.duplicate_orders;
  checkb "progress" true (audit.Node.total_segments > 0);
  checki "all lanes present" protocol.Config.num_dags (Array.length audit.Node.anchors_per_lane);
  Array.iteri
    (fun lane count ->
      checkb (Printf.sprintf "lane %d committed an anchor (got %d)" lane count) true (count >= 1))
    audit.Node.anchors_per_lane;
  let report = Node.report node ~duration_ms:1_000.0 in
  checkb "transactions committed" true (report.Report.committed > 0);
  (* The loop's wakeup counters ride along in the node's own snapshot. *)
  let snap = Node.telemetry_snapshot node in
  let counter = Shoalpp_support.Telemetry.snap_counter snap in
  checkb "loop turns exported" true (counter "backend.loop_turns" > 0);
  checkb "loop sleeps exported" true (counter "backend.loop_sleeps" > 0);
  checkb "no more sleeps than turns" true
    (counter "backend.loop_sleeps" <= counter "backend.loop_turns");
  checki "live snapshot carries them too"
    (counter "backend.loop_turns")
    (Shoalpp_support.Telemetry.snap_counter (Node.live_snapshot node) "backend.loop_turns")

(* The admin endpoint serves scrapes off the same select loop as the
   protocol: issue a raw HTTP GET from a client socket while a bare
   executor runs, and check routing, error statuses and live evaluation
   of the route closure. *)
let test_admin_server_serves_routes () =
  let module Admin = Shoalpp_backend.Admin_server in
  let exec = Realtime.create () in
  let hits = ref 0 in
  let routes =
    [
      ( "/metrics",
        fun () ->
          incr hits;
          { Admin.content_type = "text/plain; version=0.0.4"; body = "up 1\n" } );
      ("/boom", fun () -> failwith "render bug");
    ]
  in
  let admin = Admin.start exec ~port:0 ~routes () in
  let get path =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Admin.port admin));
        let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
        ignore (Unix.write_substring fd req 0 (String.length req));
        (* drive the server's accept/read/write pollers *)
        Realtime.run_for exec ~duration_ms:50.0;
        let buf = Bytes.create 4096 in
        let n = try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0 in
        Bytes.sub_string buf 0 n)
  in
  let resp = get "/metrics" in
  checkb "200 on known route" true (String.length resp >= 15 && String.sub resp 0 15 = "HTTP/1.0 200 OK");
  checkb "body served" true
    (let n = String.length resp in
     n >= 5 && String.sub resp (n - 5) 5 = "up 1\n");
  checki "route closure evaluated once" 1 !hits;
  let resp404 = get "/nope" in
  checkb "404 on unknown route" true
    (String.length resp404 >= 12 && String.sub resp404 0 12 = "HTTP/1.0 404");
  let resp500 = get "/boom" in
  checkb "500 when the handler raises" true
    (String.length resp500 >= 12 && String.sub resp500 0 12 = "HTTP/1.0 500");
  Admin.stop admin;
  (* stop is idempotent and the port no longer accepts *)
  Admin.stop admin;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let refused =
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Admin.port admin)) with
    | () -> false
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true
    | exception Unix.Unix_error _ -> true
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  checkb "listener closed after stop" true refused

(* Regression: request parsing must be a function of the byte stream, not
   of how the kernel segments it. A request line trickling in one byte per
   read, a request with no blank-line terminator, and a bare-LF line all
   get the same 200 as a whole request; only a genuinely oversized request
   is rejected. *)
let test_admin_request_split_across_reads () =
  let module Admin = Shoalpp_backend.Admin_server in
  let exec = Realtime.create () in
  let routes = [ ("/health", fun () -> { Admin.content_type = "text/plain"; body = "ok\n" }) ] in
  let admin = Admin.start exec ~port:0 ~routes () in
  let with_conn f =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Admin.port admin));
        f fd)
  in
  let read_response fd =
    Realtime.run_for exec ~duration_ms:60.0;
    let b = Buffer.create 256 in
    let buf = Bytes.create 4096 in
    let rec drain () =
      match Unix.read fd buf 0 4096 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes b buf 0 n;
        Realtime.run_for exec ~duration_ms:10.0;
        drain ()
      | exception Unix.Unix_error _ -> ()
    in
    drain ();
    Buffer.contents b
  in
  let status resp = if String.length resp >= 12 then String.sub resp 0 12 else resp in
  (* One byte per segment, the server's loop driven between bytes so every
     byte is a separate read. The request line alone suffices: the server
     answers at its first LF (and HTTP/1.0 closes after the response, so a
     client must not keep writing afterwards). *)
  let resp =
    with_conn (fun fd ->
        String.iter
          (fun ch ->
            ignore (Unix.write fd (Bytes.make 1 ch) 0 1);
            Realtime.run_for exec ~duration_ms:5.0)
          "GET /health HTTP/1.0\r\n";
        read_response fd)
  in
  checks "byte-at-a-time request answered" "HTTP/1.0 200" (status resp);
  (* Request line only — no blank-line terminator ever arrives. *)
  let resp =
    with_conn (fun fd ->
        let req = "GET /health HTTP/1.0\r\n" in
        ignore (Unix.write_substring fd req 0 (String.length req));
        read_response fd)
  in
  checks "header-less request answered" "HTTP/1.0 200" (status resp);
  (* Bare LF line termination. *)
  let resp =
    with_conn (fun fd ->
        let req = "GET /health HTTP/1.0\n" in
        ignore (Unix.write_substring fd req 0 (String.length req));
        read_response fd)
  in
  checks "bare-LF request answered" "HTTP/1.0 200" (status resp);
  (* Oversized request without a line break: bounded buffering, 400. *)
  let resp =
    with_conn (fun fd ->
        let junk = String.make 9000 'a' in
        ignore (Unix.write_substring fd junk 0 (String.length junk));
        read_response fd)
  in
  checks "oversized request rejected" "HTTP/1.0 400" (status resp);
  Admin.stop admin

let suite =
  [
    ( "backend.sim",
      [
        Alcotest.test_case "golden traces byte-for-byte" `Quick test_sim_reproduces_golden_traces;
        Alcotest.test_case "second seed deterministic" `Quick test_sim_deterministic_on_second_seed;
      ] );
    ( "backend.realtime",
      [
        Alcotest.test_case "timer order" `Quick test_realtime_timer_order;
        Alcotest.test_case "timer cancel" `Quick test_realtime_timer_cancel;
        Alcotest.test_case "clock monotonic" `Quick test_realtime_clock_monotonic;
        Alcotest.test_case "pollers not starved by due timers" `Quick
          test_realtime_pollers_not_starved;
        Alcotest.test_case "one select per turn" `Quick test_realtime_one_select_per_turn;
        Alcotest.test_case "framing roundtrip" `Quick test_framing_roundtrip_chunked;
        Alcotest.test_case "framing rejects corrupt input" `Quick test_framing_rejects_corrupt_stream;
        Alcotest.test_case "cluster run + safety audit" `Quick test_realtime_cluster_run;
        Alcotest.test_case "admin server serves routes" `Quick test_admin_server_serves_routes;
        Alcotest.test_case "admin request split across reads" `Quick
          test_admin_request_split_across_reads;
      ] );
  ]
