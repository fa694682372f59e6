module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Committee = Shoalpp_dag.Committee
module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Driver = Shoalpp_consensus.Driver
module Anchors = Shoalpp_consensus.Anchors
module Backend = Shoalpp_backend.Backend
module Faults = Shoalpp_sim.Faults
module Batch = Shoalpp_workload.Batch
module Mempool = Shoalpp_workload.Mempool
module Cluster = Shoalpp_runtime.Cluster
module Harness = Shoalpp_runtime.Harness
module Rng = Shoalpp_support.Rng
module Obs = Shoalpp_sim.Obs
module Trace = Shoalpp_sim.Trace
module Telemetry = Shoalpp_support.Telemetry

type msg =
  | Block of Types.node
  | Fetch_req of { wanted : Types.node_ref; requester : int }
  | Fetch_resp of Types.node

let node_size (n : Types.node) =
  1 + 4 + 2 + 8 + Batch.wire_size n.Types.batch
  + (List.length n.Types.parents * 36)
  + Signer.signature_size

let message_size = function
  | Block b -> node_size b
  | Fetch_req _ -> 1 + 36 + 2
  | Fetch_resp b -> 1 + node_size b

type setup = {
  committee : Committee.t;
  round_timeout_ms : float;
  batch_cap : int;
  fetch_retry_ms : float;
  verify_signatures : bool;
}

let default_setup ~committee =
  {
    committee;
    round_timeout_ms = 1000.0;
    batch_cap = 500;
    fetch_retry_ms = 50.0;
    verify_signatures = true;
  }

(* Blocks carry an empty dummy certificate so they fit the certified-node
   shape the shared store and driver expect. *)
let dummy_cert committee (node : Types.node) =
  { Types.cert_ref = Types.ref_of_node node; multisig = Multisig.aggregate ~n:committee.Committee.n [] }

type replica = {
  id : int;
  setup : setup;
  backend : msg Backend.t;
  mempool : Mempool.t;
  store : Store.t;
  driver : Driver.t;
  kp : Signer.keypair;
  rng : Rng.t;
  (* Every valid block received, by digest (served to fetchers); the
     blocks not yet processable, plus per missing ancestor, the digests
     blocked on it. *)
  received : (Digest32.t, Types.node) Hashtbl.t;
  waiting : (Digest32.t, Types.node) Hashtbl.t; (* unprocessed, by own digest *)
  missing_count : (Digest32.t, int ref) Hashtbl.t; (* per waiting block *)
  dependents : (Digest32.t, Digest32.t list ref) Hashtbl.t; (* parent -> blocked *)
  fetching : (Digest32.t, Types.node_ref) Hashtbl.t; (* outstanding wants *)
  mutable proposed_round : int;
  mutable round_started_at : float;
  mutable round_timer : Backend.timer option;
  mutable fetches : int;
  mutable stalled : int;
  mutable crashed : bool;
  byzantine : float -> Faults.byz_kind option;
  obs : Obs.t;
  c_crashes : Telemetry.counter option;
  c_recoveries : Telemetry.counter option;
  c_proposals : Telemetry.counter option;
  c_fetches : Telemetry.counter option;
  c_timeouts : Telemetry.counter option;
  c_equiv : Telemetry.counter option;
  c_withheld : Telemetry.counter option;
  c_delayed : Telemetry.counter option;
}

let quorum r = Committee.quorum r.setup.committee

let broadcast r m = Backend.broadcast r.backend ~src:r.id ~size:(message_size m) m
let send r ~dst m = Backend.send r.backend ~src:r.id ~dst ~size:(message_size m) m

let processed_at r ~round = Store.count_at r.store ~round

let rec propose r round =
  r.proposed_round <- round;
  r.round_started_at <- Backend.now r.backend;
  (match r.round_timer with Some t -> Backend.cancel t | None -> ());
  let parents =
    if round = 0 then []
    else
      Store.nodes_at r.store ~round:(round - 1)
      |> List.map (fun (cn : Types.certified_node) -> Types.ref_of_node cn.Types.cn_node)
  in
  let txns = Mempool.pull r.mempool ~max:r.setup.batch_cap in
  Obs.incr_c r.c_proposals;
  Obs.event r.obs ~time:(Backend.now r.backend)
    (Trace.Proposal_created { round; txns = List.length txns });
  let created_at = Backend.now r.backend in
  let batch = Batch.make ~txns ~created_at in
  let digest =
    Types.node_digest ~lane:0 ~round ~author:r.id ~batch_digest:batch.Batch.digest ~parents
      ~weak_parents:[]
  in
  let node =
    {
      Types.round;
      author = r.id;
      batch;
      parents;
      weak_parents = [];
      digest;
      signature = Signer.sign r.kp (Digest32.raw digest);
      created_at;
    }
  in
  (match r.byzantine created_at with
  | Some Faults.Silent_anchor ->
    (* Withheld block: peers never see this round's proposal and must fetch
       or time the author out — no certificates soften the miss here. *)
    Obs.incr_c r.c_withheld;
    Obs.event r.obs ~time:created_at (Trace.Anchor_withheld { round });
    send r ~dst:r.id (Block node)
  | Some Faults.Equivocate when txns <> [] ->
    (* Two signed blocks for one (round, author) slot: replicas keep the
       first version they process, so causal references to the other
       version stall on critical-path fetches (§3.3's weakness). The twin
       goes to at most f replicas — the store holds one version per slot,
       so a half/half split would starve both sides of a quorum and
       deadlock the model, where the real protocol's equivocation-tolerant
       store merely degrades. Capped at f, the primary version still
       reaches a quorum and the damage shows up as stalls and fetch storms
       rather than a total halt. *)
    let twin_batch = Batch.make ~txns:[] ~created_at in
    let twin_digest =
      Types.node_digest ~lane:0 ~round ~author:r.id ~batch_digest:twin_batch.Batch.digest
        ~parents ~weak_parents:[]
    in
    let twin =
      {
        node with
        Types.batch = twin_batch;
        digest = twin_digest;
        signature = Signer.sign r.kp (Digest32.raw twin_digest);
      }
    in
    Obs.incr_c r.c_equiv;
    Obs.event r.obs ~time:created_at (Trace.Equivocation_sent { round });
    let f = (Store.n r.store - 1) / 3 in
    for dst = 0 to Store.n r.store - 1 do
      send r ~dst (Block (if dst <> r.id && dst < f then twin else node))
    done
  | Some (Faults.Delay_votes delay_ms) ->
    (* Blocks double as votes in the uncertified design: lagging the
       broadcast lags every commit rule that counts this replica. *)
    Obs.incr_c r.c_delayed;
    Obs.event r.obs ~time:created_at
      (Trace.Votes_delayed { round; delay_ms = int_of_float delay_ms });
    send r ~dst:r.id (Block node);
    ignore
      (Backend.schedule r.backend ~after:delay_ms (fun () ->
           if not r.crashed then
             for dst = 0 to Store.n r.store - 1 do
               if dst <> r.id then send r ~dst (Block node)
             done))
  | _ -> broadcast r (Block node));
  r.round_timer <-
    Some
      (Backend.schedule r.backend ~after:r.setup.round_timeout_ms (fun () ->
           if not r.crashed then begin
             if r.proposed_round = round then begin
               Obs.incr_c r.c_timeouts;
               Obs.event r.obs ~time:(Backend.now r.backend) (Trace.Timeout_fired { round })
             end;
             maybe_advance r
           end))

and maybe_advance r =
  if (not r.crashed) && r.proposed_round >= 0 then begin
    let round = r.proposed_round in
    let have = processed_at r ~round in
    let timeout_over = Backend.now r.backend >= r.round_started_at +. r.setup.round_timeout_ms in
    if have >= quorum r && (have >= Store.n r.store || timeout_over) then propose r (round + 1)
    else begin
      (* Catch-up when we fell behind the cluster. *)
      let rec scan q best =
        if q > Store.highest_round r.store then best
        else scan (q + 1) (if processed_at r ~round:q >= quorum r then Some q else best)
      in
      match scan (round + 1) None with Some q -> propose r (q + 1) | None -> ()
    end
  end

(* ------------------------------------------------------------------ *)
(* Critical-path processing: a block enters the DAG only once all of its
   ancestors have; missing ancestors are fetched immediately and retried
   round-robin until they arrive (§3.3 / §7 of the paper explain why this
   is the uncertified design's weakness).                                *)

let rec start_fetch r (wanted : Types.node_ref) =
  if not (Hashtbl.mem r.fetching wanted.Types.ref_digest) then begin
    Hashtbl.replace r.fetching wanted.Types.ref_digest wanted;
    r.fetches <- r.fetches + 1;
    Obs.incr_c r.c_fetches;
    Obs.event r.obs ~time:(Backend.now r.backend)
      (Trace.Fetch_requested { round = wanted.Types.ref_round; author = wanted.Types.ref_author });
    (* First ask the author, the one replica guaranteed to have it. *)
    send r ~dst:wanted.Types.ref_author (Fetch_req { wanted; requester = r.id });
    arm_fetch_retry r wanted
  end

and arm_fetch_retry r wanted =
  ignore
    (Backend.schedule r.backend ~after:r.setup.fetch_retry_ms (fun () ->
         if (not r.crashed) && Hashtbl.mem r.fetching wanted.Types.ref_digest then begin
           let n = Store.n r.store in
           let dst = Rng.int r.rng n in
           r.fetches <- r.fetches + 1;
           Obs.incr_c r.c_fetches;
           send r ~dst (Fetch_req { wanted; requester = r.id });
           arm_fetch_retry r wanted
         end))

let rec process r (node : Types.node) =
  let cn = { Types.cn_node = node; cn_cert = dummy_cert r.setup.committee node } in
  if Store.add_certified r.store cn then begin
    Hashtbl.remove r.fetching node.Types.digest;
    Driver.notify r.driver;
    maybe_advance r;
    (* Unblock descendants waiting on this block. *)
    match Hashtbl.find_opt r.dependents node.Types.digest with
    | None -> ()
    | Some blocked ->
      let digests = !blocked in
      Hashtbl.remove r.dependents node.Types.digest;
      List.iter
        (fun d ->
          match Hashtbl.find_opt r.missing_count d with
          | None -> ()
          | Some cnt ->
            decr cnt;
            if !cnt <= 0 then begin
              Hashtbl.remove r.missing_count d;
              match Hashtbl.find_opt r.waiting d with
              | Some blocked_node ->
                Hashtbl.remove r.waiting d;
                process r blocked_node
              | None -> ()
            end)
        digests
  end

let on_block r (node : Types.node) =
  let already =
    Option.is_some (Store.get r.store ~round:node.Types.round ~author:node.Types.author)
    || Hashtbl.mem r.waiting node.Types.digest
  in
  if not already then begin
    match
      Shoalpp_dag.Validation.validate_proposal ~lane:0 ~committee:r.setup.committee
        ~verify_signatures:r.setup.verify_signatures node
    with
    | Error _ -> ()
    | Ok () ->
      Hashtbl.replace r.received node.Types.digest node;
      let missing =
        List.filter (fun p -> not (Store.mem_ref r.store p)) node.Types.parents
      in
      if missing = [] then process r node
      else begin
        r.stalled <- r.stalled + 1;
        Hashtbl.replace r.waiting node.Types.digest node;
        Hashtbl.replace r.missing_count node.Types.digest (ref (List.length missing));
        List.iter
          (fun (p : Types.node_ref) ->
            (match Hashtbl.find_opt r.dependents p.Types.ref_digest with
            | Some l -> l := node.Types.digest :: !l
            | None -> Hashtbl.replace r.dependents p.Types.ref_digest (ref [ node.Types.digest ]));
            if not (Hashtbl.mem r.waiting p.Types.ref_digest) then start_fetch r p)
          missing
      end
  end

let handle_message r msg =
  if not r.crashed then begin
    match msg with
    | Block node -> on_block r node
    | Fetch_req { wanted; requester } -> (
      match Hashtbl.find_opt r.received wanted.Types.ref_digest with
      | Some node -> send r ~dst:requester (Fetch_resp node)
      | None -> ())
    | Fetch_resp node -> on_block r node
  end

(* -------------------------------------------------------------------- *)
(* Cluster hooks: the shared harness runs everything else.               *)

let hooks =
  {
    Harness.start = (fun r -> propose r 0);
    crash =
      (fun r ->
        if not r.crashed then begin
          r.crashed <- true;
          Obs.incr_c r.c_crashes;
          Obs.event r.obs ~time:(Backend.now r.backend) (Trace.Replica_crashed { replica = r.id })
        end);
    (* Warm in-memory resume: the public Mysticeti prototype forgoes the
       WAL, so recovery keeps the pre-crash DAG and relies on critical-path
       fetches to pull the missed rounds (an asymmetry vs Shoal++'s WAL
       replay). *)
    recover =
      (fun r ~wipe:_ ->
        if r.crashed then begin
          r.crashed <- false;
          Obs.incr_c r.c_recoveries;
          Obs.event r.obs ~time:(Backend.now r.backend)
            (Trace.Replica_recovered { replica = r.id; replayed = 0 });
          propose r (max (r.proposed_round + 1) (Store.highest_round r.store + 1))
        end);
    replays_log = false;
    base_seq = (fun _ -> 0);
    commit_counts = (fun r -> Harness.driver_counts [ Driver.stats r.driver ]);
  }

let make_replica (run : setup Cluster.gen_setup) ~backend ~telemetry id ~mempool ~on_commit
    ~on_caught_up:_ =
  let setup = run.Cluster.protocol in
  let committee = setup.committee in
  let store =
    Store.create ~n:committee.Committee.n ~genesis_digest:committee.Committee.genesis
  in
  let obs = Obs.make ?trace:run.Cluster.trace ~telemetry ~replica:id ~instance:0 () in
  let next_seq = ref 0 in
  let replica_ref = ref None in
  let driver_cfg =
    {
      (Driver.default_config ~committee) with
      Driver.mode = Anchors.All_eligible;
      fast_commit = false;
      direct_threshold = Committee.fast_quorum committee;
      reputation_enabled = false;
    }
  in
  let driver =
    Driver.create ~obs driver_cfg
      {
        Driver.now = (fun () -> Backend.now backend);
        cert_ref =
          (fun ~round ~author ->
            Option.map
              (fun (cn : Types.certified_node) -> Types.ref_of_node cn.Types.cn_node)
              (Store.get store ~round ~author));
        request_fetch =
          (fun wanted ->
            match !replica_ref with Some r -> start_fetch r wanted | None -> ());
        on_segment =
          (fun segment ->
            let seq = !next_seq in
            incr next_seq;
            on_commit
              (Harness.commit_of_segment segment ~seq ~ordered_at:(Backend.now backend)));
        request_gc = (fun ~round -> ignore (Store.prune_below store ~round));
        (* Cordial-Miners certificate pattern: a direct decision needs the
           round r+2 "certificate" blocks to be visible, making the commit
           path 3 best-effort rounds (proposal, votes, certificates). *)
        direct_guard =
          Some
            (fun ~round ~author:_ ->
              Store.count_at store ~round:(round + 2) >= Committee.fast_quorum committee);
      }
      ~store
  in
  let r =
    {
      id;
      setup;
      backend;
      mempool;
      store;
      driver;
      kp = Committee.keypair committee id;
      rng = Rng.create (run.Cluster.seed + (id * 131));
      received = Hashtbl.create 256;
      waiting = Hashtbl.create 64;
      missing_count = Hashtbl.create 64;
      dependents = Hashtbl.create 64;
      fetching = Hashtbl.create 64;
      proposed_round = -1;
      round_started_at = 0.0;
      round_timer = None;
      fetches = 0;
      stalled = 0;
      crashed = false;
      byzantine = Faults.byzantine_for run.Cluster.scenario ~n:committee.Committee.n ~replica:id;
      obs;
      c_crashes = Obs.counter obs "fault.crashes";
      c_recoveries = Obs.counter obs "fault.recoveries";
      c_proposals = Obs.counter obs "dag.proposals";
      c_fetches = Obs.counter obs "dag.fetches";
      c_timeouts = Obs.counter obs "dag.timeouts";
      c_equiv = Obs.counter obs "fault.equivocations";
      c_withheld = Obs.counter obs "fault.withheld_proposals";
      c_delayed = Obs.counter obs "fault.delayed_votes";
    }
  in
  replica_ref := Some r;
  Backend.set_handler backend id (fun ~src:_ msg -> handle_message r msg);
  r

type cluster = (msg, replica) Cluster.gen

let create run =
  Cluster.make run ~name:"mysticeti" ~n:run.Cluster.protocol.committee.Committee.n ~num_dags:1
    ~hooks ~make_replica:(make_replica run)

let sum_replicas f c = Array.fold_left (fun acc r -> acc + f r) 0 (Cluster.replicas c)
let fetches_sent = sum_replicas (fun r -> r.fetches)
let blocks_stalled = sum_replicas (fun r -> r.stalled)
let rounds_reached c =
  Array.fold_left (fun acc r -> max acc r.proposed_round) 0 (Cluster.replicas c)
