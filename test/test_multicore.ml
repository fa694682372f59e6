(* Tests for the multicore node ([--domains N]):

   - {!Verify_pool} unit tests: per-lane completion order equals
     submission order even when slow jobs force out-of-turn finishes; a
     slow job on one lane does not hold back another lane; a raising [work] closure delivers verdict [false] and is
     counted, never propagated; a raising sink is swallowed and counted
     without losing later completions; {!Verify_pool.shutdown} drains the
     queue (every submitted job executed and delivered) rather than
     discarding it; [workers = 0] degenerates to inline execution;

   - the golden determinism test of docs/CONCURRENCY.md: two fault-free
     runs with the same seed, one at [--domains 1] and one at
     [--domains 4], commit byte-identical segment sequences up to the
     shorter run's length — the commit interleave is a deterministic
     round-major merge by anchor round and lane, never completion or
     arrival order;

   - the same claim under a fault: with one replica crashed from birth
     (n = 4 tolerates f = 1) both domain counts still make progress,
     pass the safety audit, and preserve the structural merge invariant
     (every log is sorted by anchor round, then lane, and rounds never
     regress within a lane). Cross-run byte equality is
     not asserted here: which rounds time out under a fault is
     wall-clock-dependent by design. *)

module Verify_pool = Shoalpp_backend.Verify_pool
module Node = Shoalpp_runtime.Node
module Report = Shoalpp_runtime.Report
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Committee = Shoalpp_dag.Committee

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Verify_pool unit tests *)

(* Sinks run on worker domains; collect completions under a mutex. *)
type sink_log = { mu : Mutex.t; mutable items : (int * int * bool) list }

let log_create () = { mu = Mutex.create (); items = [] }

let log_push log lane id ok =
  Mutex.lock log.mu;
  log.items <- (lane, id, ok) :: log.items;
  Mutex.unlock log.mu

let log_items log = List.rev log.items (* completion order *)

let test_pool_per_lane_order_under_skew () =
  let lanes = 3 and jobs = 120 in
  let pool = Verify_pool.create ~workers:4 ~lanes in
  let log = log_create () in
  for i = 0 to jobs - 1 do
    let lane = i mod lanes in
    (* Uneven service times make later jobs finish before earlier ones on
       the worker side, exercising the reorder table. *)
    let delay_s = float_of_int (i mod 5) *. 2e-4 in
    Verify_pool.submit pool ~lane
      ~work:(fun () ->
        if delay_s > 0.0 then Unix.sleepf delay_s;
        true)
      ~k:(fun ok -> log_push log lane i ok)
  done;
  Verify_pool.shutdown pool;
  checki "every job executed" jobs (Verify_pool.executed pool);
  checki "no work exceptions" 0 (Verify_pool.work_exceptions pool);
  checki "nothing in flight after shutdown" 0 (Verify_pool.inflight pool);
  let items = log_items log in
  checki "every completion delivered" jobs (List.length items);
  (* Per lane, ids must appear in exactly submission order. *)
  for lane = 0 to lanes - 1 do
    let got = List.filter_map (fun (l, i, _) -> if l = lane then Some i else None) items in
    let expected = List.init (jobs / lanes) (fun j -> (j * lanes) + lane) in
    checkb (Printf.sprintf "lane %d delivered in submission order" lane) true (got = expected)
  done;
  List.iter (fun (_, i, ok) -> checkb (Printf.sprintf "job %d verdict" i) true ok) items

let test_pool_work_exception_delivers_false () =
  let pool = Verify_pool.create ~workers:2 ~lanes:1 in
  let log = log_create () in
  let jobs = 10 in
  for i = 0 to jobs - 1 do
    Verify_pool.submit pool ~lane:0
      ~work:(fun () -> if i mod 2 = 0 then failwith "bad signature path" else true)
      ~k:(fun ok -> log_push log 0 i ok)
  done;
  Verify_pool.shutdown pool;
  checki "every job executed" jobs (Verify_pool.executed pool);
  checki "raising jobs counted" (jobs / 2) (Verify_pool.work_exceptions pool);
  let items = log_items log in
  checki "every completion delivered" jobs (List.length items);
  checkb "delivered in submission order" true
    (List.map (fun (_, i, _) -> i) items = List.init jobs Fun.id);
  List.iter
    (fun (_, i, ok) ->
      checkb (Printf.sprintf "job %d verdict reflects its work" i) (i mod 2 <> 0) ok)
    items

let test_pool_sink_exception_swallowed () =
  let pool = Verify_pool.create ~workers:2 ~lanes:1 in
  let log = log_create () in
  let jobs = 6 in
  for i = 0 to jobs - 1 do
    Verify_pool.submit pool ~lane:0
      ~work:(fun () -> true)
      ~k:(fun ok ->
        if i = 2 then failwith "sink bug";
        log_push log 0 i ok)
  done;
  Verify_pool.shutdown pool;
  checki "sink exception counted" 1 (Verify_pool.sink_exceptions pool);
  checkb "later completions still delivered" true
    (List.map (fun (_, i, _) -> i) (log_items log) = [ 0; 1; 3; 4; 5 ])

let test_pool_shutdown_drains_queue () =
  let pool = Verify_pool.create ~workers:2 ~lanes:2 in
  let log = log_create () in
  let jobs = 40 in
  for i = 0 to jobs - 1 do
    Verify_pool.submit pool ~lane:(i mod 2)
      ~work:(fun () ->
        Unix.sleepf 1e-3;
        true)
      ~k:(fun ok -> log_push log (i mod 2) i ok)
  done;
  (* Immediate shutdown: the queue is still mostly full. It must drain,
     not discard. *)
  Verify_pool.shutdown pool;
  checki "every queued job executed" jobs (Verify_pool.executed pool);
  checki "every completion delivered" jobs (List.length (log_items log));
  checki "worker domains joined" 0 (Verify_pool.workers pool);
  (* The deterministic shutdown line: a submit past shutdown raises — a
     job is never silently dropped and never run inline on the submitter
     (which would bypass the lane reorder table). *)
  checkb "pool reports closed" true (Verify_pool.closed pool);
  let late_ran = ref false in
  (match
     Verify_pool.submit pool ~lane:0 ~work:(fun () -> true) ~k:(fun _ -> late_ran := true)
   with
  | () -> Alcotest.fail "post-shutdown submit must raise"
  | exception Invalid_argument _ -> ());
  checkb "late job neither executed nor delivered" false !late_ran;
  checki "late job not counted" jobs (Verify_pool.executed pool)

(* Lanes are independent: with 2 workers, a 200 ms job on lane 0 occupies
   one worker while the other completes lane 1's jobs, so lane 1 delivers
   all of them while lane 0's slow job is still running. *)
let test_pool_lane_independence () =
  let pool = Verify_pool.create ~workers:2 ~lanes:2 in
  let log = log_create () in
  let slow_done = Atomic.make false in
  let lane1_before_slow = Atomic.make 0 in
  Verify_pool.submit pool ~lane:0
    ~work:(fun () ->
      Unix.sleepf 0.2;
      Atomic.set slow_done true;
      true)
    ~k:(fun ok -> log_push log 0 0 ok);
  let t0 = Unix.gettimeofday () in
  let lane1_jobs = 20 in
  for i = 1 to lane1_jobs do
    Verify_pool.submit pool ~lane:1
      ~work:(fun () -> true)
      ~k:(fun ok ->
        if not (Atomic.get slow_done) then Atomic.incr lane1_before_slow;
        log_push log 1 i ok)
  done;
  (* Wait (bounded) for lane 1's completions before the slow job ends. *)
  while
    Atomic.get lane1_before_slow < lane1_jobs && Unix.gettimeofday () -. t0 < 0.15
  do
    Unix.sleepf 1e-3
  done;
  checki "lane 1 completed while lane 0's slow job ran" lane1_jobs
    (Atomic.get lane1_before_slow);
  Verify_pool.shutdown pool;
  checki "every job executed" (lane1_jobs + 1) (Verify_pool.executed pool);
  let items = log_items log in
  checkb "lane 1 delivered in submission order" true
    (List.filter_map (fun (l, i, _) -> if l = 1 then Some i else None) items
    = List.init lane1_jobs (fun i -> i + 1));
  checkb "slow lane-0 job delivered last" true
    (match List.rev items with (0, 0, true) :: _ -> true | _ -> false)

let test_pool_zero_workers_inline () =
  let pool = Verify_pool.create ~workers:0 ~lanes:1 in
  let order = ref [] in
  for i = 0 to 4 do
    Verify_pool.submit pool ~lane:0
      ~work:(fun () -> i mod 2 = 0)
      ~k:(fun ok -> order := (i, ok) :: !order)
  done;
  checkb "inline pool delivers before submit returns" true
    (List.rev !order = [ (0, true); (1, false); (2, true); (3, false); (4, true) ]);
  checki "executed inline" 5 (Verify_pool.executed pool);
  Verify_pool.shutdown pool;
  (* Inline mode holds the same shutdown line as the pooled mode. *)
  (match Verify_pool.submit pool ~lane:0 ~work:(fun () -> true) ~k:(fun _ -> ()) with
  | () -> Alcotest.fail "inline post-shutdown submit must raise"
  | exception Invalid_argument _ -> ());
  checki "post-shutdown inline submit not executed" 5 (Verify_pool.executed pool)

(* Randomized completion order: a seeded mix of service times (the first
   job pins a worker for ~50 ms while the others drain the queue) and
   raising jobs across a node-shaped lane count (4 replicas x 3
   dags). Whatever order the workers finish in, each lane must deliver
   exactly its submission order, every raising job must surface as
   verdict [false], and nothing may be lost to a raising sink. *)
let test_pool_randomized_completion_order () =
  let rng = Shoalpp_support.Rng.create 0x5eed in
  let lanes = 12 and jobs = 600 in
  let pool = Verify_pool.create ~workers:4 ~lanes in
  let log = log_create () in
  let raising = Array.init jobs (fun _ -> Shoalpp_support.Rng.bernoulli rng 0.1) in
  let expected_raises = Array.fold_left (fun n r -> if r then n + 1 else n) 0 raising in
  let lane_of = Array.make jobs 0 in
  for i = 0 to jobs - 1 do
    let lane = Shoalpp_support.Rng.int rng lanes in
    lane_of.(i) <- lane;
    let delay_s =
      if i = 0 then 0.05 else Shoalpp_support.Rng.float rng 1e-3
    in
    Verify_pool.submit pool ~lane
      ~work:(fun () ->
        Unix.sleepf delay_s;
        if raising.(i) then failwith "randomized verification failure";
        true)
      ~k:(fun ok ->
        if ok && raising.(i) then failwith "sink must never see a raised job as ok";
        log_push log lane i ok)
  done;
  Verify_pool.shutdown pool;
  checki "every job executed" jobs (Verify_pool.executed pool);
  checki "raising jobs counted" expected_raises (Verify_pool.work_exceptions pool);
  checki "no sink exceptions" 0 (Verify_pool.sink_exceptions pool);
  let items = log_items log in
  checki "every completion delivered" jobs (List.length items);
  (* Each lane's delivery order must be exactly its submission order —
     exact FIFO per lane, any interleave across lanes. *)
  let submitted = Array.make lanes [] and delivered = Array.make lanes [] in
  for i = jobs - 1 downto 0 do
    submitted.(lane_of.(i)) <- i :: submitted.(lane_of.(i))
  done;
  List.iter (fun (lane, i, ok) ->
      delivered.(lane) <- i :: delivered.(lane);
      checkb (Printf.sprintf "job %d verdict matches its work" i) (not raising.(i)) ok)
    items;
  for lane = 0 to lanes - 1 do
    checkb
      (Printf.sprintf "lane %d delivered exactly its submission order" lane)
      true
      (List.rev delivered.(lane) = submitted.(lane))
  done

(* ------------------------------------------------------------------ *)
(* Golden determinism: the commit sequence is the same function of the
   seed at any --domains value. *)

let run_node ~domains ?(crash = false) ?timeout_ms ?(duration_ms = 1_200.0) ~seed () =
  let committee = Committee.make ~n:4 ~cluster_seed:seed () in
  let protocol = Config.without_signature_checks (Config.shoalpp ~committee) in
  let protocol =
    match timeout_ms with Some ms -> Config.round_timeout protocol ms | None -> protocol
  in
  let setup =
    { (Node.default_setup ~protocol) with Node.load_tps = 400.0; seed; domains }
  in
  let node = Node.create setup in
  if crash then Replica.crash (Node.replicas node).(3);
  Node.run node ~duration_ms;
  (node, Node.audit node, protocol.Config.num_dags)

(* Structural invariant of Alg. 3's merge: the log is round-major — every
   segment of anchor round r precedes every segment of round r+1, and
   within a round lane 0's segments precede lane 1's, and so on — and
   rounds within a lane never go backwards (a round can repeat — a round
   may certify more than one anchor — but commit order follows the DAG's
   round order). True at any domain count and under faults — the merge
   is by anchor round and lane, so arrival timing can stall it but never
   reorder it. *)
let check_round_robin_merge ~label ~k ids =
  ignore
    (List.fold_left
       (fun (p, (r0, d0)) (dag, round, _) ->
         checkb
           (Printf.sprintf "%s: position %d (round %d, lane %d) after (%d, %d)" label p round dag
              r0 d0)
           true
           (compare (round, dag) (r0, d0) >= 0);
         (p + 1, (round, dag)))
       (0, (-1, -1))
       ids);
  let last_round = Array.make k (-1) in
  List.iter
    (fun (dag, round, _) ->
      checkb
        (Printf.sprintf "%s: lane %d rounds never regress (%d after %d)" label dag round
           last_round.(dag))
        true
        (round >= last_round.(dag));
      last_round.(dag) <- round)
    ids

let test_golden_domains_1_vs_4 () =
  let node1, audit1, k = run_node ~domains:1 ~seed:11 () in
  let node4, audit4, _ = run_node ~domains:4 ~seed:11 () in
  checkb "domains=1 consistent" true audit1.Node.consistent_prefixes;
  checkb "domains=4 consistent" true audit4.Node.consistent_prefixes;
  checki "domains=1 no duplicates" 0 audit1.Node.duplicate_orders;
  checki "domains=4 no duplicates" 0 audit4.Node.duplicate_orders;
  let ids1 = Node.ordered_ids node1 ~replica:0 in
  let ids4 = Node.ordered_ids node4 ~replica:0 in
  check_round_robin_merge ~label:"domains=1" ~k ids1;
  check_round_robin_merge ~label:"domains=4" ~k ids4;
  let common = min (List.length ids1) (List.length ids4) in
  (* A 1.2 s fault-free loopback run commits far more than 3 segments per
     lane; a tiny common prefix would make the equality check vacuous. *)
  checkb
    (Printf.sprintf "substantial common prefix (got %d)" common)
    true (common >= 3 * k);
  let take n l = List.filteri (fun i _ -> i < n) l in
  checkb "commit sequences byte-identical over the common prefix" true
    (take common ids1 = take common ids4);
  (match Node.verify_pool node4 with
  | Some pool ->
    checkb "pool did real work" true (Verify_pool.executed pool > 0);
    checki "no verification exceptions" 0 (Verify_pool.work_exceptions pool)
  | None -> Alcotest.fail "domains=4 node has no verify pool")

let test_golden_under_crash_fault () =
  List.iter
    (fun domains ->
      let label = Printf.sprintf "crash/domains=%d" domains in
      (* The crashed replica forces round timeouts; shorten them so the
         short run still commits (the default 600 ms wait would eat it). *)
      let node, audit, k =
        run_node ~domains ~crash:true ~timeout_ms:60.0 ~duration_ms:1_500.0 ~seed:13 ()
      in
      checkb (label ^ ": consistent prefixes") true audit.Node.consistent_prefixes;
      checki (label ^ ": no duplicates") 0 audit.Node.duplicate_orders;
      checkb (label ^ ": progress with f=1 crashed") true (audit.Node.total_segments > 0);
      checki (label ^ ": crashed replica ordered nothing") 0
        (List.length (Node.ordered_ids node ~replica:3));
      List.iter
        (fun r -> check_round_robin_merge ~label:(Printf.sprintf "%s r%d" label r) ~k
             (Node.ordered_ids node ~replica:r))
        [ 0; 1; 2 ])
    [ 1; 4 ]

let suite =
  [
    ( "multicore",
      [
        Alcotest.test_case "pool: per-lane order under skew" `Quick
          test_pool_per_lane_order_under_skew;
        Alcotest.test_case "pool: work exception -> verdict false" `Quick
          test_pool_work_exception_delivers_false;
        Alcotest.test_case "pool: sink exception swallowed" `Quick
          test_pool_sink_exception_swallowed;
        Alcotest.test_case "pool: shutdown drains queue" `Quick test_pool_shutdown_drains_queue;
        Alcotest.test_case "pool: zero workers runs inline" `Quick test_pool_zero_workers_inline;
        Alcotest.test_case "pool: randomized completion order" `Slow
          test_pool_randomized_completion_order;
        Alcotest.test_case "golden: domains 1 vs 4, same commit sequence" `Slow
          test_golden_domains_1_vs_4;
        Alcotest.test_case "golden: crash fault, both domain counts safe" `Slow
          test_golden_under_crash_fault;
        Alcotest.test_case "pool: slow lane does not delay another" `Quick
          test_pool_lane_independence;
      ] );
  ]
