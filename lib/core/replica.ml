module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Instance = Shoalpp_dag.Instance
module Committee = Shoalpp_dag.Committee
module Driver = Shoalpp_consensus.Driver
module Backend = Shoalpp_backend.Backend
module Faults = Shoalpp_sim.Faults
module Mempool = Shoalpp_workload.Mempool
module Wal = Shoalpp_storage.Wal
module Batch = Shoalpp_workload.Batch
module Obs = Shoalpp_sim.Obs
module Trace = Shoalpp_sim.Trace
module Telemetry = Shoalpp_support.Telemetry
module Signer = Shoalpp_crypto.Signer
module Digest32 = Shoalpp_crypto.Digest32
module Checkpoint = Shoalpp_storage.Checkpoint
module Sync = Shoalpp_sync.Sync
module Seen = Shoalpp_support.Seen

type envelope = { dag_id : int; payload : Types.message }

let envelope_size e = 1 + Types.message_size e.payload

let send_on backend ~src ~dst ~dag_id payload =
  let env = { dag_id; payload } in
  Backend.send backend ~src ~dst ~size:(envelope_size env) env

(* Control-plane envelopes (checkpoint votes) ride dag id 255: routed by the
   replica itself, never handed to a DAG instance. On the simulated backend
   they travel the out-of-band control transport, which draws no RNG and
   mutates no queue cursors — the reason commit sequences stay byte-identical
   with checkpointing on or off. *)
let control_dag_id = 255

type ordered = { global_seq : int; segment : Driver.segment; ordered_at : float }

(* Multicore wiring (the realtime node's --domains mode): each DAG lane
   runs on its own executor domain, so the lane needs a backend whose
   timers fire there, an observability sink owned by that domain, and a
   way to hand cross-lane work (the sequenced commit merge) back to the
   single merge domain. Absent (the default), every lane shares the
   replica's backend and obs and [le_post_main] degenerates to immediate
   invocation — byte-for-byte the single-domain behaviour. *)
type lane_env = {
  le_backend : int -> envelope Backend.t; (* dag_id -> that lane's backend *)
  le_obs : int -> Obs.t; (* dag_id -> obs owned by that lane's domain *)
  le_post_main : (unit -> unit) -> unit; (* run on the merge domain *)
}

(* The lanes' phase (the paper's third augmentation runs the k DAGs about a
   round/k apart). Each lane publishes the round it last entered, when, and
   its round period: an EWMA (weight 1/8) of its interval between round
   entries, divided by the rounds skipped. P, the round period the gate
   uses, is the largest of the lanes' periods: the lanes share one
   network, so when rounds slow down (a peer crashes and rounds run to
   their timeout) the first lane to see it spaces the others at once,
   not a lane-0 round later. The lanes form a cycle: lane j >= 1 may
   enter round r no earlier than 3/4 P/k after lane j-1 entered r, and
   lane 0 may enter r no earlier than 3/4 P/k after lane k-1 entered
   r-1. No lane is held more than P past the moment it became ready. In
   phase, lane k-1 enters a round (k-1) 3/4 P/k after lane 0, so lane
   0's own round (P) always outlasts its wait (3/4 P) and it is never
   held; it is held only while a lane has fallen a round behind, which is
   the only way that lane gets back in phase, since rounds are
   network-bound. The gate only times proposals: what the lanes commit
   and how {!Merge} orders it do not depend on it. A phase is written by
   its lane's domain only and read by the others', hence the atomics. *)
type phase = { round : int; at : float; period : float }

let no_phase = { round = -1; at = 0.0; period = 0.0 }

let phase_earliest phases dag_id ~round ~ready =
  let k = Array.length phases in
  let prev, round =
    if dag_id = 0 then (Atomic.get phases.(k - 1), round - 1)
    else (Atomic.get phases.(dag_id - 1), round)
  in
  (* P, but no more than this lane's own latest round (entry to
     readiness): when rounds speed up (a crashed peer returns) the EWMA
     lags, and a hold sized by it would outlast the predecessor's next
     round and push this lane a round behind. *)
  let slowest = Array.fold_left (fun acc ph -> Float.max acc (Atomic.get ph).period) 0.0 phases in
  let p = Float.min slowest (ready -. (Atomic.get phases.(dag_id)).at) in
  if k = 1 || p <= 0.0 || prev.round > round then neg_infinity
  else
    let opens = if prev.round = round then prev.at +. (0.75 *. p /. float_of_int k) else infinity in
    Float.min opens (ready +. p)

(* Lane [dag_id] entered [round] at [now], [held] ms after it was ready
   to. Every entry updates the lane's period; lane 0's entries also sample
   the lanes' round offset. *)
let phase_entered phases dag_id ~obs ~now ~round ~held =
  let last = Atomic.get phases.(dag_id) in
  let period =
    if last.round < 0 || round <= last.round then last.period
    else
      let sample = (now -. last.at) /. float_of_int (round - last.round) in
      if last.period <= 0.0 then sample else last.period +. ((sample -. last.period) /. 8.0)
  in
  Atomic.set phases.(dag_id) { round; at = now; period };
  if Array.length phases > 1 then begin
    if held > 0.0 then Obs.observe obs "lane.gate_held_ms" held;
    if period > 0.0 then Obs.observe obs "lane.period_ms" period;
    if dag_id = 0 then begin
      let lo = ref round and hi = ref round in
      Array.iter
        (fun ph ->
          let r = (Atomic.get ph).round in
          if r >= 0 then begin
            lo := min !lo r;
            hi := max !hi r
          end)
        phases;
      Obs.observe obs "lane.round_offset" (float_of_int (!hi - !lo))
    end
  end

type dag_lane = {
  store : Store.t;
  instance : Instance.t;
  driver : Driver.t;
  lane_wal : Wal.t; (* the shared replica WAL, or per-lane under lane_env *)
  server : Sync.Server.t; (* answers peers' catch-up requests from our store *)
}

type t = {
  cfg : Config.t;
  id : int;
  backend : envelope Backend.t;
  mempool : Mempool.t;
  wal : Wal.t;
  lane_env : lane_env option;
  mutable lanes : dag_lane array;
  phases : phase Atomic.t array; (* by lane *)
  on_ordered : (ordered -> unit) option;
  obs : Obs.t;
  merge : Merge.t; (* Alg. 3: the lanes' committed segments, by anchor round *)
  mutable global_seq : int;
  mutable txns_ordered : int;
  mutable requeued : int;
  committed_own : Seen.t; (* own-origin txn ids already ordered *)
  mutable crashed : bool;
  (* Scenario-driven misbehaviour, queried at send time: None = honest. *)
  byzantine : float -> Faults.byz_kind option;
  mutable replaying : bool; (* WAL replay in progress: sends muted *)
  ck : Ck_manager.t option; (* Some iff checkpoint_interval > 0 *)
  mutable base_seq : int; (* first global seq of the post-recovery log (audit offset) *)
  sync : Sync.Client.t option; (* the catch-up loop: Some iff [ck] is, with peers *)
  on_caught_up : (unit -> unit) option;
  c_equivocations : Telemetry.counter option;
  c_withheld : Telemetry.counter option;
  c_delayed : Telemetry.counter option;
  c_crashes : Telemetry.counter option;
  c_recoveries : Telemetry.counter option;
}

(* Alg. 3: append the lanes' committed segments in {!Merge}'s round-major
   order, as far as they go. The end of every merged round is offered to
   the checkpoint manager as a possible seam. *)
let rec drain t =
  if not t.crashed then begin
    let on_round round =
      Option.iter
        (fun m ->
          Ck_manager.round_merged m ~replaying:t.replaying ~seq:(t.global_seq - 1) ~round)
        t.ck
    in
    match Merge.pop t.merge ~on_round with
    | None -> ()
    | Some segment ->
      let seq = t.global_seq in
      t.global_seq <- t.global_seq + 1;
      let ordered_at = Backend.now t.backend in
      let ntx = ref 0 in
      (* Own-origin transactions only ever travel in our own nodes (the
         mempool feeds only our proposals), so only those are marked: a
         peer's node claiming our origin cannot grow the id set. *)
      List.iter
        (fun (cn : Types.certified_node) ->
          let batch = cn.Types.cn_node.Types.batch in
          ntx := !ntx + Batch.length batch;
          if cn.Types.cn_node.Types.author = t.id then
            Batch.iter batch (fun _ ~id ~size:_ ~origin ->
                if origin = t.id then ignore (Seen.mark t.committed_own id)))
        segment.Driver.nodes;
      t.txns_ordered <- t.txns_ordered + !ntx;
      if Obs.tracing t.obs then
        Obs.event
          (Obs.with_instance t.obs ~instance:segment.Driver.dag_id)
          ~time:ordered_at
          (Trace.Segment_interleaved
             {
               global_seq = seq;
               round = segment.Driver.anchor.Types.ref_round;
               anchor = segment.Driver.anchor.Types.ref_author;
               txns = !ntx;
             });
      Option.iter (fun m -> Ck_manager.observe m segment) t.ck;
      (match t.on_ordered with
      | Some f -> f { global_seq = seq; segment; ordered_at }
      | None -> ());
      drain t
  end

(* Equivocation twin: same round and parent edges, but an empty batch —
   hence a different digest — re-signed with our own key, so it passes
   proposal validation at every correct replica of its [lane]. Skipped
   when the original batch is already empty (the digests would coincide). *)
let equivocation_twin t ~lane (node : Types.node) =
  if Batch.is_empty node.Types.batch then None
  else begin
    let batch = Batch.empty ~created_at:node.Types.batch.Batch.created_at in
    let digest =
      Types.node_digest ~lane ~round:node.Types.round ~author:node.Types.author
        ~batch_digest:batch.Batch.digest ~parents:node.Types.parents
        ~weak_parents:node.Types.weak_parents
    in
    let kp = Committee.keypair t.cfg.Config.committee t.id in
    Some { node with Types.batch; digest; signature = Signer.sign kp (Digest32.raw digest) }
  end

let make_lane t dag_id =
  let cfg = t.cfg in
  let committee = cfg.Config.committee in
  (* Single-domain: the lane lives on the replica's backend/obs and
     [post_main] is a direct call. Multicore: timers, instance callbacks
     and instance-side observability belong to the lane's domain, the WAL
     is per-lane (its sync timers must fire on the lane's executor), and
     anything touching cross-lane state is shipped to the merge domain. *)
  let lane_bk, lane_obs, post_main =
    match t.lane_env with
    | None -> (t.backend, t.obs, fun f -> f ())
    | Some env -> (env.le_backend dag_id, env.le_obs dag_id, env.le_post_main)
  in
  let wal =
    match t.lane_env with
    | None -> t.wal
    | Some _ ->
      Wal.create ~timers:lane_bk.Backend.timers ~sync_latency_ms:cfg.Config.wal_sync_ms ()
  in
  let store = Store.create ~n:committee.Shoalpp_dag.Committee.n ~genesis_digest:committee.Shoalpp_dag.Committee.genesis in
  (* The instance and driver reference each other; tie the knot with
     mutable options resolved before use. *)
  let instance_ref = ref None in
  let driver_ref = ref None in
  let the_instance () = Option.get !instance_ref in
  let the_driver () = Option.get !driver_ref in
  let driver =
    Driver.create ~obs:lane_obs
      (Config.driver_config cfg ~dag_id)
      {
        Driver.now = (fun () -> Backend.now lane_bk);
        cert_ref =
          (fun ~round ~author -> Instance.cert_ref_at (the_instance ()) ~round ~author);
        request_fetch = (fun node_ref -> Instance.fetch_missing (the_instance ()) node_ref);
        on_segment =
          (fun segment ->
            (* Cross-lane state (ready queues, the merge cursor, the
               global sequence) belongs to the merge domain: the segment
               is enqueued and interleaved there, by round and lane, never
               by arrival order across lanes. *)
            post_main (fun () ->
                Merge.push t.merge segment;
                drain t));
        request_gc =
          (fun ~round ->
            (* Narwhal-style GC drops unordered nodes below the horizon; a
               production mempool re-proposes their transactions (quorum-
               store expiration). Requeue own-origin, still-uncommitted
               transactions from our orphaned proposals before pruning.
               Two phases: the store/driver reads happen here (lane
               domain), the [committed_own] filter and requeue on the
               merge domain, which owns that table. *)
            let lowest = Store.lowest_retained store in
            let orphaned = ref [] in
            for r = lowest to round - 1 do
              match Store.get store ~round:r ~author:t.id with
              | Some cn when not (Driver.is_ordered (the_driver ()) ~round:r ~author:t.id) ->
                orphaned := Batch.txns cn.Types.cn_node.Types.batch :: !orphaned
              | _ -> ()
            done;
            (match List.rev !orphaned with
            | [] -> ()
            | batches ->
              post_main (fun () ->
                  List.iter
                    (List.iter (fun (tx : Shoalpp_workload.Transaction.t) ->
                         if
                           not (Seen.mem t.committed_own tx.Shoalpp_workload.Transaction.id)
                         then begin
                           t.requeued <- t.requeued + 1;
                           ignore (Shoalpp_workload.Mempool.submit t.mempool tx)
                         end))
                    batches));
            Instance.gc_upto (the_instance ()) ~round;
            (* Ordered-set entries below the store floor can never be read
               again (causal traversal stops at the floor), so dropping
               them bounds driver memory alongside the store GC. *)
            let pruned = Driver.prune_ordered (the_driver ()) ~below:round in
            if pruned > 0 then Obs.incr ~by:pruned lane_obs "gc.pruned_ordered";
            Obs.set lane_obs "gc.ordered_entries"
              (float_of_int (Driver.ordered_size (the_driver ()))));
        direct_guard = None;
      }
      ~store
  in
  driver_ref := Some driver;
  let plain_broadcast payload =
    let env = { dag_id; payload } in
    Backend.broadcast t.backend ~src:t.id ~size:(envelope_size env) env
  in
  let plain_send ~dst payload = send_on t.backend ~src:t.id ~dst ~dag_id payload in
  (* Byzantine misbehaviour is injected at the send boundary so the instance
     and driver stay honest-path only; during WAL replay all sends are muted
     (a recovering replica must not re-broadcast history). *)
  let byz_broadcast payload =
    if t.replaying then ()
    else begin
      let now = Backend.now lane_bk in
      match (payload, t.byzantine now) with
      | Types.Proposal node, Some Faults.Silent_anchor when node.Types.author = t.id ->
        (* Withhold our proposal from everyone but ourselves. *)
        Obs.incr_c t.c_withheld;
        Obs.event t.obs ~time:now (Trace.Anchor_withheld { round = node.Types.round });
        plain_send ~dst:t.id payload
      | Types.Proposal node, Some Faults.Equivocate when node.Types.author = t.id -> (
        match equivocation_twin t ~lane:dag_id node with
        | None -> plain_broadcast payload
        | Some twin ->
          Obs.incr_c t.c_equivocations;
          Obs.event t.obs ~time:now (Trace.Equivocation_sent { round = node.Types.round });
          (* Split the committee: even ids (and ourselves) see the original,
             odd ids the twin. Vote-once at correct replicas guarantees at
             most one version certifies. *)
          let twin_payload = Types.Proposal twin in
          for dst = 0 to Backend.n t.backend - 1 do
            if dst = t.id || dst mod 2 = 0 then plain_send ~dst payload
            else plain_send ~dst twin_payload
          done)
      | Types.Vote v, Some (Faults.Delay_votes delay) ->
        Obs.incr_c t.c_delayed;
        Obs.event t.obs ~time:now
          (Trace.Votes_delayed { round = v.Types.vote_round; delay_ms = int_of_float delay });
        ignore
          (Backend.schedule lane_bk ~after:delay (fun () ->
               if not t.crashed then plain_broadcast payload))
      | _ -> plain_broadcast payload
    end
  in
  let byz_send ~dst payload =
    if t.replaying then ()
    else begin
      let now = Backend.now lane_bk in
      match (payload, t.byzantine now) with
      | Types.Vote v, Some (Faults.Delay_votes delay) ->
        Obs.incr_c t.c_delayed;
        Obs.event t.obs ~time:now
          (Trace.Votes_delayed { round = v.Types.vote_round; delay_ms = int_of_float delay });
        ignore
          (Backend.schedule lane_bk ~after:delay (fun () ->
               if not t.crashed then plain_send ~dst payload))
      | _ -> plain_send ~dst payload
    end
  in
  let callbacks =
    {
      Instance.broadcast = byz_broadcast;
      send = byz_send;
      now = (fun () -> Backend.now lane_bk);
      schedule = (fun ~after f -> Backend.schedule lane_bk ~after f);
      pull_batch = (fun ~max -> Mempool.pull t.mempool ~max);
      anchors_of_round = (fun round -> Driver.anchors_of_round (the_driver ()) round);
      persist =
        (fun msg cb ->
          (* During replay the entry is already durable: complete instantly
             (the voted table was rebuilt before this point, and the muted
             send layer swallows the re-externalized votes). *)
          if t.replaying then cb ()
          else if Wal.retains wal then
            let round =
              match msg with
              | Types.Proposal node -> node.Types.round
              | Types.Certificate c -> c.Types.cert_ref.Types.ref_round
              | _ -> invalid_arg "Replica: only proposals and certificates are persisted"
            in
            (* Encoded only if a recovery ever replays it. *)
            let payload () = Types.encode_message msg in
            Wal.append wal ~entry:{ Wal.lane = dag_id; round; payload } cb
          else Wal.append wal cb);
      on_proposal_noted = (fun _node -> Driver.notify (the_driver ()));
      on_certified = (fun _cn -> Driver.notify (the_driver ()));
      on_cert_meta = (fun _ref -> Driver.notify (the_driver ()));
      earliest = (fun ~round ~ready -> phase_earliest t.phases dag_id ~round ~ready);
      entered =
        (fun ~round ~held ->
          phase_entered t.phases dag_id ~obs:lane_obs ~now:(Backend.now lane_bk) ~round ~held;
          (* Wake the successor the gate may hold for this entry, on its
             own domain. *)
          let k = cfg.Config.num_dags in
          let next = (dag_id + 1) mod k in
          if k > 1 then
            match t.lane_env with
            | None -> Instance.poke t.lanes.(next).instance
            | Some env ->
              ignore
                (Backend.schedule (env.le_backend next) ~after:0.0 (fun () ->
                     Instance.poke t.lanes.(next).instance)));
    }
  in
  let instance =
    Instance.create ~obs:lane_obs
      (Config.instance_config cfg ~replica:t.id ~dag_id)
      callbacks ~store
  in
  (* Bounded-memory lifecycle on: physical deletion waits for a certified
     checkpoint from the start (gate 0), so history a restarting peer may
     need stays serveable. Without checkpointing no gate is ever installed
     and pruning behaves exactly as before. *)
  if Option.is_some t.ck then Instance.set_retain_gate instance ~round:0;
  instance_ref := Some instance;
  {
    store;
    instance;
    driver;
    lane_wal = wal;
    server =
      Sync.Server.create ~store
        ~checkpoint:(fun () -> Option.bind t.ck Ck_manager.served_blob)
        ();
  }

(* --- peer catch-up -------------------------------------------------------
   After a restart the local WAL only covers the retained window; what the
   cluster committed since our last certified checkpoint (or since we went
   down) is pulled from peers by the one catch-up loop, {!Sync.Client}: a
   peer's newer checkpoint if there is one, then the WAL replay, then
   ceil(gap/page) range requests per lane. Requests/responses ride normal
   per-lane envelopes — they only flow while a replica is recovering, a
   regime where golden determinism is not asserted. *)

(* Rewind the merge and every lane to a certified checkpoint: global
   sequencing resumes at seq+1 with the cursor at lane 0 of the round after
   the seam (every lane closed the seam round there), each driver resumes
   from its snapshot blob, and each instance's store floor is raised to
   the driver's restored floor. *)
let rewind t ~seq lanes =
  t.global_seq <- seq + 1;
  t.base_seq <- t.global_seq;
  Merge.restart t.merge
    ~round:(1 + List.fold_left (fun r (l : Checkpoint.lane) -> max r l.Checkpoint.round) 0 lanes);
  List.iter
    (fun (l : Checkpoint.lane) ->
      if l.Checkpoint.dag_id < Array.length t.lanes then begin
        let lane = t.lanes.(l.Checkpoint.dag_id) in
        let floor = Driver.restore lane.driver l.Checkpoint.resume in
        if floor > 0 then Instance.gc_upto lane.instance ~round:floor
      end)
    lanes

let replay_wal t =
  t.replaying <- true;
  let replayed = ref 0 in
  List.iter
    (fun (dag_id, entry) ->
      if dag_id < Array.length t.lanes then
        match Types.decode_message ~lane:dag_id entry with
        | Ok msg ->
          incr replayed;
          (* Proposals must appear to come from their author (the
             src/author check of handle_proposal); everything else is
             our own durable state. *)
          let src = match msg with Types.Proposal node -> node.Types.author | _ -> t.id in
          Instance.handle_message t.lanes.(dag_id).instance ~src msg
        | Error _ -> ())
    (Wal.entries t.wal);
  t.replaying <- false;
  Obs.event t.obs ~time:(Backend.now t.backend)
    (Trace.Replica_recovered { replica = t.id; replayed = !replayed })

let caught_up t = match t.on_caught_up with Some f -> f () | None -> ()

let sync_stats t =
  match t.sync with
  | Some c -> (Sync.Client.requests_sent c, Sync.Client.certs_ingested c)
  | None -> (0, 0)

(* The catch-up loop's effects. The WAL replay waits for the adopt phase
   to resolve (adopted, stale, or given up), so that replayed commits can
   never land below a frontier adopted afterwards — the ordered log stays
   contiguous from [base_seq]. Timers are dropped while crashed. *)
let sync_hooks the_t m =
  {
    Sync.Client.send =
      (fun ~dst ~lane req ->
        let t = the_t () in
        send_on t.backend ~src:t.id ~dst ~dag_id:lane
          (Types.Sync_request { sq_requester = t.id; sq_req = req }));
    schedule =
      (fun ~after f ->
        let t = the_t () in
        ignore (Backend.schedule t.backend ~after (fun () -> if not t.crashed then f ())));
    adopt = (fun blob -> Ck_manager.adopt m ~global_seq:(the_t ()).global_seq blob);
    replay =
      (fun () ->
        let t = the_t () in
        replay_wal t;
        (* Resume wherever local knowledge ends: the restored checkpoint
           floor, or the highest round the WAL replay reconstructed. *)
        let from =
          Array.map
            (fun lane ->
              max 0 (max (Instance.lowest_round lane.instance) (Store.highest_round lane.store)))
            t.lanes
        in
        Obs.event t.obs ~time:(Backend.now t.backend)
          (Trace.Sync_started { replica = t.id; from_round = from.(0) });
        from);
    ingest = (fun ~lane cn -> Instance.ingest_certified (the_t ()).lanes.(lane).instance cn);
    on_caught_up =
      (fun () ->
        let t = the_t () in
        Array.iter (fun lane -> Instance.resume lane.instance) t.lanes;
        let requests, certs = sync_stats t in
        if requests > 0 then Obs.incr ~by:requests t.obs "sync.requests";
        if certs > 0 then Obs.incr ~by:certs t.obs "sync.certs_ingested";
        Obs.event t.obs ~time:(Backend.now t.backend)
          (Trace.Sync_completed { replica = t.id; certs; requests });
        caught_up t);
  }

let handle_sync_request t ~dag_id ~src req =
  send_on t.backend ~src:t.id ~dst:src ~dag_id
    (Types.Sync_response
       { sp_responder = t.id; sp_resp = Sync.Server.handle t.lanes.(dag_id).server req })

(* Single inbound dispatch for every transport: control-plane envelopes
   (dag 255) carry checkpoint votes, lane envelopes carry either sync
   traffic or protocol messages for that DAG instance. *)
let route t ~src (env : envelope) =
  if not t.crashed then begin
    if env.dag_id = control_dag_id then begin
      match env.payload with
      | Types.Checkpoint_vote _ as vote -> (
        match t.ck with
        | Some m -> Ck_manager.on_vote m ~global_seq:t.global_seq vote
        | None -> ())
      | _ -> () (* only checkpoint votes ride the control plane *)
    end
    else if env.dag_id >= 0 && env.dag_id < Array.length t.lanes then begin
      match env.payload with
      | Types.Sync_request { sq_req; _ } -> handle_sync_request t ~dag_id:env.dag_id ~src sq_req
      | Types.Sync_response { sp_resp; _ } ->
        Option.iter (fun c -> Sync.Client.handle_response c ~lane:env.dag_id sp_resp) t.sync
      | payload -> Instance.handle_message t.lanes.(env.dag_id).instance ~src payload
    end
  end

let create ~config ~replica_id ~backend ~mempool ?on_ordered ?on_caught_up ?trace ?telemetry
    ?(byzantine = fun _ -> None) ?(retain_wal = false) ?lane_env () =
  let obs = Obs.make ?trace ?telemetry ~replica:replica_id ~instance:0 () in
  (* The checkpoint manager's effects reach the replica built below. *)
  let self = ref None in
  let the_t () = Option.get !self in
  let ck =
    Ck_manager.create ~config ~replica_id ~obs
      ~device:
        (Wal.create ~timers:backend.Backend.timers ~sync_latency_ms:config.Config.wal_sync_ms
           ~retain:true ())
      {
        Ck_manager.now = (fun () -> Backend.now backend);
        broadcast_vote =
          (fun payload ->
            let env = { dag_id = control_dag_id; payload } in
            Backend.control_broadcast backend ~src:replica_id ~size:(envelope_size env) env);
        (* Lane instances and per-lane WALs belong to their lanes' domains
           at [--domains N]; single-domain, everything is a direct call. *)
        on_lane =
          (match lane_env with
          | None -> fun _ f -> f obs
          | Some env ->
            fun d f ->
              ignore (Backend.schedule (env.le_backend d) ~after:0.0 (fun () -> f (env.le_obs d))));
        set_gate = (fun d ~round -> Instance.set_retain_gate (the_t ()).lanes.(d).instance ~round);
        wal =
          (fun d ->
            match lane_env with None -> (the_t ()).wal | Some _ -> (the_t ()).lanes.(d).lane_wal);
        rewind = (fun ~seq lanes -> rewind (the_t ()) ~seq lanes);
      }
  in
  let t =
    {
      cfg = config;
      id = replica_id;
      backend;
      mempool;
      wal =
        Wal.create ~timers:backend.Backend.timers
          ~sync_latency_ms:config.Config.wal_sync_ms ~retain:retain_wal ();
      lane_env;
      lanes = [||];
      phases = Array.init config.Config.num_dags (fun _ -> Atomic.make no_phase);
      on_ordered;
      obs;
      merge = Merge.create ~lanes:config.Config.num_dags;
      global_seq = 0;
      txns_ordered = 0;
      requeued = 0;
      committed_own = Seen.create ();
      crashed = false;
      byzantine;
      replaying = false;
      ck;
      base_seq = 0;
      sync =
        (match ck with
        | Some m when Backend.n backend > 1 ->
          Some
            (Sync.Client.create ~n:(Backend.n backend) ~self:replica_id
               ~lanes:config.Config.num_dags (sync_hooks the_t m))
        | _ -> None);
      on_caught_up;
      c_equivocations = Obs.counter obs "fault.equivocations";
      c_withheld = Obs.counter obs "fault.withheld_proposals";
      c_delayed = Obs.counter obs "fault.delayed_votes";
      c_crashes = Obs.counter obs "fault.crashes";
      c_recoveries = Obs.counter obs "fault.recoveries";
    }
  in
  self := Some t;
  t.lanes <- Array.init config.Config.num_dags (fun dag_id -> make_lane t dag_id);
  (* Under a lane_env the harness owns message routing (inbound messages
     must cross the verify pool and land on the right lane's domain), so
     the replica does not claim the transport slot itself. *)
  (match lane_env with
  | Some _ -> ()
  | None -> Backend.set_handler backend replica_id (fun ~src env -> route t ~src env));
  t

let deliver t ~dag_id ~src payload = route t ~src { dag_id; payload }

(* Under a [lane_env] the start is scheduled: Instance.start must run on
   the lane's own domain, not the caller's. *)
let start t =
  Array.iteri
    (fun dag_id lane ->
      match t.lane_env with
      | Some env ->
        ignore
          (Backend.schedule (env.le_backend dag_id) ~after:0.0 (fun () ->
               Instance.start lane.instance))
      | None -> Instance.start lane.instance)
    t.lanes

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    Obs.incr_c t.c_crashes;
    Obs.event t.obs ~time:(Backend.now t.backend) (Trace.Replica_crashed { replica = t.id });
    Array.iter (fun lane -> Instance.crash lane.instance) t.lanes
  end

(* Restart after a crash: rebuild every lane from scratch, rewind to the
   newest certified checkpoint (if any), then replay the retained WAL
   entries through the fresh instances. Replay reconstructs the DAG stores,
   the vote-once table (so we cannot double-vote positions we voted before
   the crash), and — via the drivers — the committed suffix, which is a
   pure function of the replayed DAG above the checkpoint. Sends are muted
   while [replaying] is set. With peers and a checkpoint manager, the
   catch-up loop first asks peers for a newer certified checkpoint, then
   replays and pulls the missed history; once every lane's history is in,
   all lanes resume together and [on_caught_up] fires. [wipe] simulates
   total disk loss: both WAL devices are cleared, so the adopt phase is
   what restores a frontier. *)
let recover ?(wipe = false) t =
  if t.crashed then begin
    t.crashed <- false;
    Merge.restart t.merge ~round:0;
    Array.iter (fun ph -> Atomic.set ph no_phase) t.phases;
    t.global_seq <- 0;
    t.base_seq <- 0;
    if wipe then Wal.clear t.wal;
    t.lanes <- Array.init t.cfg.Config.num_dags (fun dag_id -> make_lane t dag_id);
    Option.iter (Ck_manager.recover ~wipe) t.ck;
    Obs.incr_c t.c_recoveries;
    match t.sync with
    | Some c -> Sync.Client.start c
    | None ->
      replay_wal t;
      Array.iter (fun lane -> Instance.resume lane.instance) t.lanes;
      caught_up t
  end

let replica_id t = t.id
let config t = t.cfg
let log_length t = t.global_seq
let txns_ordered t = t.txns_ordered
let driver_stats t = Array.to_list (Array.map (fun lane -> Driver.stats lane.driver) t.lanes)
let store t ~dag_id = t.lanes.(dag_id).store
let driver t ~dag_id = t.lanes.(dag_id).driver

let invalid_dropped t =
  Array.fold_left (fun acc lane -> acc + Instance.invalid_dropped lane.instance) 0 t.lanes

let instance_stats t =
  Array.to_list
    (Array.map
       (fun lane ->
         ( Instance.proposals_made lane.instance,
           Instance.votes_cast lane.instance,
           Instance.certs_formed lane.instance,
           Instance.fetches_sent lane.instance ))
       t.lanes)

let current_rounds t =
  Array.to_list (Array.map (fun lane -> Instance.proposed_round lane.instance) t.lanes)

let wal t = t.wal
let requeued t = t.requeued
let pending_segments t = Merge.pending t.merge
let base_seq t = t.base_seq

let catching_up t = match t.sync with Some c -> Sync.Client.active c | None -> false
let latest_checkpoint t = Option.bind t.ck Ck_manager.latest

let sync_requests_served t =
  Array.fold_left (fun acc lane -> acc + Sync.Server.requests_served lane.server) 0 t.lanes
