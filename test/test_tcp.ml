(* Tests for the TCP transport and its integration into the real-time
   node:

   - framing survives arbitrary segmentation: a multi-megabyte frame that
     cannot clear the socket buffer in one write arrives intact and in
     order behind the small frames sent before it, and every write that
     moved bytes counts as a flush;
   - a replica's own messages skip the socket: delivered by a zero-delay
     post, never written or counted;
   - crash + reconnect: a dead peer's writes drop and back off rather
     than blocking or killing the process, and a restarted peer is
     re-adopted with the drop/ dial-failure / reconnect counters telling
     the story;
   - the acceptance gate: a 4-replica cluster run over TCP commits the
     same anchor sequence as the loopback run of the same seed,
     and an n=10 run under the paper's gcp10 geography shim passes the
     safety audit. *)

module Backend = Shoalpp_backend.Backend
module Realtime = Shoalpp_backend.Backend_realtime
module Tcp = Shoalpp_backend.Tcp_transport
module Node = Shoalpp_runtime.Node
module Config = Shoalpp_core.Config
module Committee = Shoalpp_dag.Committee
module Topology = Shoalpp_sim.Topology
module Wire = Shoalpp_codec.Wire

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A raw string-message transport: identity codec, per-replica inbox. *)
let make ~n exec =
  let h = Tcp.create exec ~n () in
  let inboxes = Array.init n (fun _ -> ref []) in
  let tr =
    Realtime.framed exec
      ~encode:(fun w msg -> Wire.Writer.raw w msg)
      ~decode:(fun frame ~pos -> Some (String.sub frame pos (String.length frame - pos)))
      (Tcp.transport h)
  in
  for r = 0 to n - 1 do
    tr.Backend.Transport.set_handler r (fun ~src msg ->
        inboxes.(r) := (src, msg) :: !(inboxes.(r)))
  done;
  (h, tr, fun r -> List.rev !(inboxes.(r)))

let send tr ~src ~dst msg =
  tr.Backend.Transport.send ~src ~dst ~size:(String.length msg) msg

let test_tcp_delivery_and_partial_frames () =
  let exec = Realtime.create () in
  let h, tr, inbox = make ~n:3 exec in
  (* Small frames first, then one too large for a single write(2) to
     clear, then a trailer: stream order must survive the partial
     writes. *)
  send tr ~src:0 ~dst:1 "alpha";
  send tr ~src:2 ~dst:1 "beta";
  let big = String.init (3 * 1024 * 1024) (fun i -> Char.chr (i land 0xff)) in
  send tr ~src:0 ~dst:1 big;
  send tr ~src:0 ~dst:1 "trailer";
  tr.Backend.Transport.broadcast ~src:1 ~size:4 ~include_self:false "bcast";
  Realtime.run_for exec ~duration_ms:500.0;
  let at1 = inbox 1 in
  checkb "replica 1 got all four frames" true (List.length at1 = 4);
  Alcotest.(check (list (pair int string)))
    "per-sender order with the big frame intact"
    [ (0, "alpha"); (0, big); (0, "trailer") ]
    (List.filter (fun (src, _) -> src = 0) at1);
  checkb "cross-sender frame arrived" true (List.mem (2, "beta") at1);
  Alcotest.(check (list (pair int string))) "broadcast reached 0" [ (1, "bcast") ] (inbox 0);
  Alcotest.(check (list (pair int string))) "broadcast reached 2" [ (1, "bcast") ] (inbox 2);
  let stats = tr.Backend.Transport.stats () in
  checki "six sends counted (broadcast is per destination)" 6 stats.Backend.Transport.sent;
  checki "nothing dropped" 0 stats.Backend.Transport.dropped;
  (* A flush is one write(2), of at most 64 KiB: the 3 MiB frame takes at
     least 48, the five small ones one each. *)
  checkb "one flush per write(2)" true ((Tcp.net_stats h).Tcp.flushes >= 53);
  Tcp.shutdown h

(* A replica's own messages skip the socket: a self-addressed send and the
   self copy of a broadcast arrive without a write(2), and the transport's
   stats count only the frames that went to peers. *)
let test_self_messages_skip_socket () =
  let exec = Realtime.create () in
  let h = Tcp.create exec ~n:3 () in
  let inboxes = Array.init 3 (fun _ -> ref []) in
  let tr =
    Realtime.self_loopback exec
      (Realtime.framed exec
         ~encode:(fun w msg -> Wire.Writer.raw w msg)
         ~decode:(fun frame ~pos -> Some (String.sub frame pos (String.length frame - pos)))
         (Tcp.transport h))
  in
  for r = 0 to 2 do
    tr.Backend.Transport.set_handler r (fun ~src msg ->
        inboxes.(r) := (src, msg) :: !(inboxes.(r)))
  done;
  let inbox r = List.rev !(inboxes.(r)) in
  send tr ~src:0 ~dst:0 "self-1";
  send tr ~src:0 ~dst:0 "self-2";
  checkb "not delivered inside send" true (inbox 0 = []);
  Realtime.run_for exec ~duration_ms:50.0;
  Alcotest.(check (list (pair int string)))
    "self-addressed envelopes delivered in order" [ (0, "self-1"); (0, "self-2") ] (inbox 0);
  checki "no socket write" 0 (Tcp.net_stats h).Tcp.flushes;
  checki "no frame counted" 0 (tr.Backend.Transport.stats ()).Backend.Transport.sent;
  tr.Backend.Transport.broadcast ~src:1 ~size:5 ~include_self:true "bcast";
  Realtime.run_for exec ~duration_ms:200.0;
  List.iter
    (fun r ->
      checkb (Printf.sprintf "broadcast reached %d" r) true (List.mem (1, "bcast") (inbox r)))
    [ 0; 1; 2 ];
  checki "only the peers' copies counted" 2 (tr.Backend.Transport.stats ()).Backend.Transport.sent;
  checki "one write per peer" 2 (Tcp.net_stats h).Tcp.flushes;
  Tcp.shutdown h

let test_tcp_crash_reconnect_backoff () =
  let exec = Realtime.create () in
  let h, tr, inbox = make ~n:2 exec in
  send tr ~src:0 ~dst:1 "pre";
  Realtime.run_for exec ~duration_ms:100.0;
  Alcotest.(check (list (pair int string))) "healthy delivery" [ (0, "pre") ] (inbox 1);
  (* Replica 1 dies: its listener and accepted connections vanish. The
     sender's next writes hit a reset stream, tear the connection down,
     and enter capped backoff — dropping, never blocking. *)
  Tcp.close_replica h 1;
  for i = 0 to 29 do
    send tr ~src:0 ~dst:1 (Printf.sprintf "lost-%d" i);
    Realtime.run_for exec ~duration_ms:10.0
  done;
  let ns = Tcp.net_stats h in
  checkb "teardown / failed dials counted" true (ns.Tcp.dial_failures >= 1);
  let stats = tr.Backend.Transport.stats () in
  checkb "frames to the dead peer dropped" true (stats.Backend.Transport.dropped >= 1);
  (* Replica 1 comes back on the same port: once the sender's backoff
     deadline passes, a send re-dials and delivery resumes. *)
  Tcp.reopen_replica h 1;
  let delivered () = List.exists (fun (_, m) -> String.length m >= 5 && String.sub m 0 5 = "back-") (inbox 1) in
  let i = ref 0 in
  while (not (delivered ())) && !i < 400 do
    send tr ~src:0 ~dst:1 (Printf.sprintf "back-%d" !i);
    Realtime.run_for exec ~duration_ms:10.0;
    incr i
  done;
  checkb "delivery resumed after restart" true (delivered ());
  checkb "reconnect counted" true ((Tcp.net_stats h).Tcp.reconnects >= 1);
  Tcp.shutdown h

(* ------------------------------------------------------------------ *)
(* Acceptance gates: the transport never changes what commits. *)

let run_cluster ~transport ?delays_ms ?(n = 4) ?(duration_ms = 1_200.0) ~seed () =
  let committee = Committee.make ~n ~cluster_seed:seed () in
  let protocol = Config.without_signature_checks (Config.shoalpp ~committee) in
  let setup =
    {
      (Node.default_setup ~protocol) with
      Node.load_tps = 200.0;
      seed;
      transport;
      delays_ms;
    }
  in
  let node = Node.create setup in
  Node.run node ~duration_ms;
  node

let check_audit ~label node =
  let audit = Node.audit node in
  checkb (label ^ ": consistent prefixes") true audit.Node.consistent_prefixes;
  checki (label ^ ": no duplicate orders") 0 audit.Node.duplicate_orders;
  checkb (label ^ ": progress") true (audit.Node.total_segments > 0)

(* The golden cross-transport test: same seed, same protocol, two
   transports — loopback and TCP. The committed anchor sequences must agree
   on their common prefix; the transport may change timing, never
   content. *)
let test_tcp_commit_sequence_matches_loopback () =
  let runs =
    [
      ("loopback", run_cluster ~transport:Node.Inproc ~seed:31 ());
      ("tcp", run_cluster ~transport:(Node.Tcp 0) ~seed:31 ());
    ]
  in
  List.iter (fun (label, node) -> check_audit ~label node) runs;
  let ids = List.map (fun (label, node) -> (label, Node.ordered_ids node ~replica:0)) runs in
  let rec common_prefix_equal a b =
    match (a, b) with
    | x :: a', y :: b' -> x = y && common_prefix_equal a' b'
    | _, [] | [], _ -> true
  in
  List.iter
    (fun (la, a) ->
      List.iter
        (fun (lb, b) ->
          checkb
            (Printf.sprintf "%s and %s agree on the common commit prefix" la lb)
            true (common_prefix_equal a b);
          checkb
            (Printf.sprintf "%s/%s common prefix is non-trivial" la lb)
            true (min (List.length a) (List.length b) > 0))
        ids)
    ids

(* n = 10 over TCP with the paper's 10-region GCP delay matrix applied
   sender-side: commits still happen (the shim only stretches time) and
   the safety audit holds under realistic, heterogeneous latencies. *)
let test_tcp_gcp10_delay_shim () =
  let delays_ms = Topology.delay_matrix (Topology.gcp10 ()) ~n:10 in
  let node =
    run_cluster ~transport:(Node.Tcp 0) ~delays_ms ~n:10 ~duration_ms:2_500.0 ~seed:33 ()
  in
  check_audit ~label:"tcp+gcp10" node;
  checkb "tcp ports resolved" true
    (match Node.tcp_ports node with Some ports -> Array.length ports = 10 | None -> false)

let suite =
  [
    ( "backend.tcp",
      [
        Alcotest.test_case "delivery + partial frames" `Quick test_tcp_delivery_and_partial_frames;
        Alcotest.test_case "crash, backoff, reconnect" `Quick test_tcp_crash_reconnect_backoff;
        Alcotest.test_case "self messages skip the socket" `Quick test_self_messages_skip_socket;
        Alcotest.test_case "commit sequence matches loopback" `Slow
          test_tcp_commit_sequence_matches_loopback;
        Alcotest.test_case "n=10 under the gcp10 delay shim" `Slow test_tcp_gcp10_delay_shim;
      ] );
  ]
