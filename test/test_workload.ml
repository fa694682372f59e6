(* Tests for transactions, batches, the mempool and Poisson clients. *)

module Engine = Shoalpp_sim.Engine
module Transaction = Shoalpp_workload.Transaction
module Batch = Shoalpp_workload.Batch
module Mempool = Shoalpp_workload.Mempool
module Client = Shoalpp_workload.Client
module Digest32 = Shoalpp_crypto.Digest32
module Rng = Shoalpp_support.Rng
module Backend = Shoalpp_backend.Backend

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let tx ?(id = 0) ?(size = Transaction.default_size) ?(at = 0.0) ?(origin = 0) () =
  Transaction.make ~id ~size ~submitted_at:at ~origin ()

let test_transaction_defaults () =
  let t = tx ~id:7 () in
  checki "default size is the paper's 310B" 310 t.Transaction.size;
  checki "wire size adds header" 318 (Transaction.wire_size t)

let test_batch_digest_deterministic () =
  let txns = [ tx ~id:1 (); tx ~id:2 () ] in
  let a = Batch.make ~txns ~created_at:0.0 in
  let b = Batch.make ~txns ~created_at:99.0 in
  checkb "digest from content only" true (Digest32.equal a.Batch.digest b.Batch.digest);
  let c = Batch.make ~txns:[ tx ~id:2 (); tx ~id:1 () ] ~created_at:0.0 in
  checkb "order-sensitive" false (Digest32.equal a.Batch.digest c.Batch.digest)

let test_batch_sizes () =
  let b = Batch.make ~txns:[ tx ~id:1 (); tx ~id:2 () ] ~created_at:0.0 in
  checki "length" 2 (Batch.length b);
  checki "wire size" (4 + (2 * 318)) (Batch.wire_size b);
  checkb "not empty" false (Batch.is_empty b);
  checkb "empty" true (Batch.is_empty (Batch.empty ~created_at:0.0))

let test_mempool_fifo () =
  let m = Mempool.create () in
  List.iter (fun i -> ignore (Mempool.submit m (tx ~id:i ()))) [ 1; 2; 3; 4; 5 ];
  checki "pending" 5 (Mempool.peek_pending m);
  let pulled = Mempool.pull m ~max:3 in
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ]
    (List.map (fun (t : Transaction.t) -> t.Transaction.id) pulled);
  checki "remaining" 2 (Mempool.peek_pending m);
  checki "pull more than available" 2 (List.length (Mempool.pull m ~max:10))

let test_mempool_bound () =
  let m = Mempool.create ~max_pending:2 () in
  checkb "accept 1" true (Mempool.submit m (tx ~id:1 ()));
  checkb "accept 2" true (Mempool.submit m (tx ~id:2 ()));
  checkb "reject 3" false (Mempool.submit m (tx ~id:3 ()));
  checki "rejected count" 1 (Mempool.rejected m);
  checki "submitted count" 2 (Mempool.submitted m)

let test_mempool_oldest_waiting () =
  let m = Mempool.create () in
  Alcotest.(check (option (float 1e-9))) "empty" None (Mempool.oldest_waiting m);
  ignore (Mempool.submit m (tx ~id:1 ~at:42.0 ()));
  ignore (Mempool.submit m (tx ~id:2 ~at:50.0 ()));
  Alcotest.(check (option (float 1e-9))) "head arrival" (Some 42.0) (Mempool.oldest_waiting m)

(* A pool in its own arrival group on [engine]'s clock. *)
let pool engine =
  Mempool.create ~group:(Mempool.group ~clock:(Shoalpp_backend.Backend_sim.clock engine) ()) ()

let test_client_rate () =
  let engine = Engine.create () in
  let m = pool engine in
  let c = Client.start ~mempool:m ~origin:0 ~rate_tps:100.0 ~seed:5 () in
  Engine.run ~until:60_000.0 engine;
  Client.stop c;
  let got = Client.generated c in
  (* 100 tps for 60 s => ~6000, Poisson sd ~77. *)
  checkb (Printf.sprintf "poisson rate (got %d)" got) true (got > 5600 && got < 6400);
  checki "all reached mempool" got (Mempool.submitted m)

let test_client_unique_ids_across_replicas () =
  let engine = Engine.create () in
  let group = Mempool.group ~clock:(Shoalpp_backend.Backend_sim.clock engine) () in
  let pools = List.init 3 (fun _ -> Mempool.create ~group ()) in
  let _clients =
    List.mapi (fun i m -> Client.start ~mempool:m ~origin:i ~rate_tps:50.0 ~seed:1 ()) pools
  in
  Engine.run ~until:5_000.0 engine;
  let all =
    List.concat_map (fun m -> List.map (fun (t : Transaction.t) -> t.Transaction.id) (Mempool.pull m ~max:max_int)) pools
  in
  checki "globally unique ids" (List.length all) (List.length (List.sort_uniq compare all))

let test_client_stop () =
  let engine = Engine.create () in
  let m = pool engine in
  let c = Client.start ~mempool:m ~origin:0 ~rate_tps:1000.0 ~seed:2 () in
  Engine.run ~until:1_000.0 engine;
  Client.stop c;
  let at_stop = Client.generated c in
  Engine.run ~until:5_000.0 engine;
  checki "no more after stop" at_stop (Client.generated c)

let test_client_timestamps_are_submission_times () =
  let engine = Engine.create () in
  let m = pool engine in
  ignore (Client.start ~mempool:m ~origin:3 ~rate_tps:200.0 ~seed:9 ());
  Engine.run ~until:2_000.0 engine;
  List.iter
    (fun (t : Transaction.t) ->
      checkb "origin tagged" true (t.Transaction.origin = 3);
      checkb "timestamp in run" true (t.Transaction.submitted_at > 0.0 && t.Transaction.submitted_at <= 2_000.0))
    (Mempool.pull m ~max:max_int)

(* The open-loop guards: a rate must be finite and positive, and a client
   needs a pool that belongs to an arrival group. *)
let test_client_rejects_bad_parameters () =
  let engine = Engine.create () in
  let m = pool engine in
  let expect_invalid label f =
    match f () with
    | () -> Alcotest.fail (label ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (label, rate) ->
      expect_invalid label (fun () ->
          ignore (Client.start ~mempool:m ~origin:0 ~rate_tps:rate ())))
    [
      ("zero rate", 0.0);
      ("negative rate", -5.0);
      ("nan rate", Float.nan);
      ("infinite rate", Float.infinity);
    ];
  expect_invalid "pool without a group" (fun () ->
      ignore (Client.start ~mempool:(Mempool.create ()) ~origin:0 ~rate_tps:10.0 ()))

(* ------------------------------------------------------------------ *)
(* Lazy arrivals: a client is a schedule, materialized by mempool reads. *)

(* A clock the test moves by hand. *)
let manual_clock () =
  let now = ref 0.0 in
  (now, { Backend.Clock.now = (fun () -> !now); monotonic = (fun () -> !now) })

(* The due times a client started at [from] produces up to [until]
   inclusive: the Poisson recurrence of {!Client}, from its seed. *)
let reference_dues ~seed ~origin ~rate_tps ~from ~until =
  let rng = Rng.create (seed + (origin * 7919)) in
  let mean = 1000.0 /. rate_tps in
  let rec go at acc =
    if at <= until then go (at +. Rng.exponential rng mean) (at :: acc) else List.rev acc
  in
  go (from +. Rng.exponential rng mean) []

(* Coordinated omission: an arrival due at t=1 that the pool first sees
   at t=5 (a loop running late) must carry t=1, not the time it was
   noticed — a late stamp would hide the loop's lateness from every
   latency the run reports. *)
let test_arrival_stamped_with_due_time () =
  let now, clock = manual_clock () in
  let m = Mempool.create ~group:(Mempool.group ~clock ()) () in
  let seed = 4 and rate_tps = 5.0 in
  let first_gap = Rng.exponential (Rng.create seed) (1000.0 /. rate_tps) in
  now := 1.0 -. first_gap;
  let c = Client.start ~mempool:m ~origin:0 ~rate_tps ~seed () in
  now := 0.999;
  checki "nothing due before t=1" 0 (Mempool.peek_pending m);
  now := 5.0;
  match Mempool.pull m ~max:max_int with
  | first :: rest ->
    Alcotest.(check (float 1e-9)) "stamped with its due time" 1.0 first.Transaction.submitted_at;
    checkb "later arrivals stamped before the read" true
      (List.for_all (fun (t : Transaction.t) -> t.Transaction.submitted_at < 5.0) rest);
    checki "generated counts what was due" (1 + List.length rest) (Client.generated c)
  | [] -> Alcotest.fail "the arrival due at t=1 was not materialized"

(* A requeued transaction is submitted at [now]: every arrival due by
   then is ahead of it, every later one behind it — the order
   per-arrival timers produced. *)
let test_requeue_keeps_fifo_place () =
  let now, clock = manual_clock () in
  let m = Mempool.create ~group:(Mempool.group ~clock ()) () in
  ignore (Client.start ~mempool:m ~origin:0 ~rate_tps:100.0 ~seed:6 ());
  now := 50.0;
  checkb "requeue accepted" true (Mempool.submit m (tx ~id:1_000_000 ~at:3.0 ()));
  now := 100.0;
  let ids = List.map (fun (t : Transaction.t) -> (t.Transaction.id, t.Transaction.submitted_at)) (Mempool.pull m ~max:max_int) in
  let rec split before = function
    | (1_000_000, _) :: after -> (List.rev before, after)
    | x :: rest -> split (x :: before) rest
    | [] -> Alcotest.fail "requeued transaction lost"
  in
  let before, after = split [] ids in
  checkb "arrivals due before the requeue" true (before <> [] && List.for_all (fun (_, at) -> at <= 50.0) before);
  checkb "arrivals due after it" true (after <> [] && List.for_all (fun (_, at) -> at > 50.0) after);
  Alcotest.(check (list int)) "ids in due order around it"
    (List.init (List.length before + List.length after) Fun.id)
    (List.map fst (before @ after))

(* Engine events per run fall by exactly the arrivals: the same seeded
   cluster fired 3952 events with one timer per arrival and 2749 without,
   having materialized 1203 arrivals, when its lanes started 80 ms apart.
   Under the round-phase gate it fires 2726 (2709 while the gate took its
   round period from lane 0 alone), and 3929 with the arrival timers
   counted back in. *)
let test_sim_events_drop_by_arrivals () =
  let module Cluster = Shoalpp_runtime.Cluster in
  let module Config = Shoalpp_core.Config in
  let committee = Shoalpp_dag.Committee.make ~n:4 ~cluster_seed:5 () in
  let protocol = Config.shoalpp ~committee in
  let c =
    Cluster.create { (Cluster.default_setup ~protocol) with Cluster.load_tps = 400.0; seed = 5 }
  in
  Cluster.run c ~duration_ms:3000.0;
  let arrivals = (Cluster.report c ~duration_ms:3000.0).Shoalpp_runtime.Report.submitted in
  checki "arrivals materialized" 1203 arrivals;
  checki "engine events" 2726 (Cluster.events_fired c);
  checki "one timer event per arrival saved" 3929 (Cluster.events_fired c + arrivals)

(* Equivalence with the timer model: whatever the mempool operations and
   client stop/restart times, every pool yields exactly the arrivals the
   Poisson recurrence gives, with ids in global due-time order (one
   shared counter). *)
type action = Op of int * int * int | Stop of int | Restart of int

let horizon = 1000.0

let gen_case =
  let open QCheck.Gen in
  let* n = oneofl [ 1; 4; 16 ] in
  let* seed = int_bound 10_000 in
  let* ops =
    list_size (int_range 0 40)
      (pair (float_bound_inclusive horizon) (triple (int_bound 15) (int_bound 4) (int_range 1 8)))
  in
  let* windows =
    list_repeat n (opt (pair (float_bound_inclusive horizon) (opt (float_bound_inclusive 500.0))))
  in
  return (n, seed, ops, windows)

let print_case (n, seed, ops, windows) =
  Printf.sprintf "n=%d seed=%d ops=[%s] windows=[%s]" n seed
    (String.concat "; " (List.map (fun (at, (p, k, m)) -> Printf.sprintf "%.3f:%d/%d/%d" at p k m) ops))
    (String.concat "; "
       (List.map
          (function
            | None -> "-"
            | Some (s, None) -> Printf.sprintf "stop %.3f" s
            | Some (s, Some d) -> Printf.sprintf "stop %.3f restart +%.3f" s d)
          windows))

let prop_lazy_arrivals_match_reference =
  QCheck.Test.make ~name:"lazy arrivals equal the Poisson reference" ~count:150
    (QCheck.make ~print:print_case gen_case)
    (fun (n, seed, ops, windows) ->
      let rate_tps = 40.0 in
      let now, clock = manual_clock () in
      let group = Mempool.group ~clock () in
      let pools = Array.init n (fun _ -> Mempool.create ~group ()) in
      let start i = Client.start ~mempool:pools.(i) ~origin:i ~rate_tps ~seed () in
      let clients = Array.init n start in
      let windows = Array.of_list windows in
      (* Stops sort before restarts and operations at equal times. *)
      let actions =
        List.concat
          [
            List.concat
              (List.mapi
                 (fun i w ->
                   match w with
                   | None -> []
                   | Some (s, None) -> [ (s, Stop i) ]
                   | Some (s, Some d) ->
                     (s, Stop i) :: (if s +. d <= horizon then [ (s +. d, Restart i) ] else []))
                 (Array.to_list windows));
            List.map (fun (at, (p, k, m)) -> (at, Op (p mod n, k, m))) ops;
          ]
        |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
      in
      let pulled = Array.make n [] in
      let take i txs = pulled.(i) <- List.rev_append txs pulled.(i) in
      List.iter
        (fun (at, action) ->
          now := at;
          match action with
          | Stop i -> Client.stop clients.(i)
          | Restart i -> clients.(i) <- start i
          | Op (p, kind, max) -> (
            match kind with
            | 0 -> take p (Mempool.pull pools.(p) ~max)
            | 1 -> ignore (Mempool.peek_pending pools.(p))
            | 2 -> ignore (Mempool.submitted pools.(p))
            | 3 -> ignore (Mempool.oldest_waiting pools.(p))
            | _ -> ignore (Mempool.rejected pools.(p))))
        actions;
      now := horizon;
      Array.iteri (fun i m -> take i (Mempool.pull m ~max:max_int)) pools;
      (* The reference: every client window's due times, ids assigned in
         due order from the group's one counter. *)
      let dues i =
        let ref_dues ~from ~until = reference_dues ~seed ~origin:i ~rate_tps ~from ~until in
        match windows.(i) with
        | None -> ref_dues ~from:0.0 ~until:horizon
        | Some (s, None) -> ref_dues ~from:0.0 ~until:s
        | Some (s, Some d) ->
          ref_dues ~from:0.0 ~until:s
          @ if s +. d <= horizon then ref_dues ~from:(s +. d) ~until:horizon else []
      in
      let expected =
        let all =
          List.concat (List.init n (fun i -> List.map (fun at -> (at, i)) (dues i)))
          |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
        in
        let numbered = List.mapi (fun id (at, i) -> (id, i, at)) all in
        Array.init n (fun i -> List.filter (fun (_, o, _) -> o = i) numbered)
      in
      let actual =
        Array.map
          (List.rev_map (fun (t : Transaction.t) ->
               (t.Transaction.id, t.Transaction.origin, t.Transaction.submitted_at)))
          pulled
      in
      let ids = List.concat_map (List.map (fun (id, _, _) -> id)) (Array.to_list actual) in
      List.length ids = List.length (List.sort_uniq Int.compare ids) && actual = expected)

let suite =
  [
    ( "workload",
      [
        Alcotest.test_case "transaction defaults" `Quick test_transaction_defaults;
        Alcotest.test_case "batch digest deterministic" `Quick test_batch_digest_deterministic;
        Alcotest.test_case "batch sizes" `Quick test_batch_sizes;
        Alcotest.test_case "mempool fifo" `Quick test_mempool_fifo;
        Alcotest.test_case "mempool bound" `Quick test_mempool_bound;
        Alcotest.test_case "mempool oldest waiting" `Quick test_mempool_oldest_waiting;
        Alcotest.test_case "client poisson rate" `Slow test_client_rate;
        Alcotest.test_case "client unique ids" `Quick test_client_unique_ids_across_replicas;
        Alcotest.test_case "client stop" `Quick test_client_stop;
        Alcotest.test_case "client timestamps" `Quick test_client_timestamps_are_submission_times;
        Alcotest.test_case "client rejects bad parameters" `Quick test_client_rejects_bad_parameters;
        Alcotest.test_case "arrival stamped with due time" `Quick test_arrival_stamped_with_due_time;
        Alcotest.test_case "requeue keeps fifo place" `Quick test_requeue_keeps_fifo_place;
        Alcotest.test_case "sim events drop by arrivals" `Quick test_sim_events_drop_by_arrivals;
        QCheck_alcotest.to_alcotest prop_lazy_arrivals_match_reference;
      ] );
  ]
