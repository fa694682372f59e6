module Digest32 = Shoalpp_crypto.Digest32
module Committee = Shoalpp_dag.Committee
module Backend = Shoalpp_backend.Backend
module Faults = Shoalpp_sim.Faults
module Transaction = Shoalpp_workload.Transaction
module Mempool = Shoalpp_workload.Mempool
module Cluster = Shoalpp_runtime.Cluster
module Harness = Shoalpp_runtime.Harness
module Anchors = Shoalpp_consensus.Anchors
module Obs = Shoalpp_sim.Obs
module Trace = Shoalpp_sim.Trace
module Telemetry = Shoalpp_support.Telemetry

type qc = { qc_round : int; qc_digest : Digest32.t; qc_signers : int list }

type block = {
  jb_round : int;
  jb_author : int;
  jb_txns : Transaction.t list;
  jb_justify : qc;
  jb_digest : Digest32.t;
  jb_created_at : float;  (** for stage attribution; not on the wire *)
}

type msg =
  | Block of block
  | Vote of { v_round : int; v_digest : Digest32.t; v_voter : int }
  | Timeout of { t_round : int; t_high_qc : qc; t_voter : int }
  | Gossip of Transaction.t list
  | Sync_req of { s_digest : Digest32.t; s_requester : int }
  | Sync_resp of block

let qc_size q = 8 + 32 + 48 + ((List.length q.qc_signers + 7) / 8)

let message_size = function
  | Block b ->
    1 + 8 + 2 + 48
    + List.fold_left (fun acc tx -> acc + Transaction.wire_size tx) 0 b.jb_txns
    + qc_size b.jb_justify
  | Vote _ -> 1 + 8 + 32 + 2 + 48
  | Timeout t -> 1 + 8 + 2 + 48 + qc_size t.t_high_qc
  | Gossip txns -> 1 + 4 + List.fold_left (fun acc tx -> acc + Transaction.wire_size tx) 0 txns
  | Sync_req _ -> 1 + 32 + 2
  | Sync_resp b ->
    2 + 8 + 2 + 48
    + List.fold_left (fun acc tx -> acc + Transaction.wire_size tx) 0 b.jb_txns
    + qc_size b.jb_justify

let block_digest ~round ~author ~justify ~txns =
  let ids = List.map (fun (tx : Transaction.t) -> string_of_int tx.Transaction.id) txns in
  Digest32.of_string
    (Printf.sprintf "jblock/%d/%d/%s/%s" round author
       (Digest32.hex justify.qc_digest)
       (String.concat "," ids))

type setup = {
  committee : Committee.t;
  round_timeout_ms : float;
  gossip_interval_ms : float;
  max_block_txns : int;
}

let default_setup ~committee =
  { committee; round_timeout_ms = 1500.0; gossip_interval_ms = 10.0; max_block_txns = 100 * 500 }

(* Per-transaction shared-mempool bookkeeping. *)
type tx_state = { tx : Transaction.t; mutable included_round : int (* -1 = free *) }

type replica = {
  id : int;
  setup : setup;
  backend : msg Backend.t;
  mempool : Mempool.t; (* client arrivals, drained by the gossip loop *)
  on_commit : Harness.commit -> unit; (* the harness's commit sink *)
  mutable ordered_seq : int; (* position of the next committed block = blocks committed *)
  genesis_qc : qc;
  pool : (int, tx_state) Hashtbl.t; (* txid -> state *)
  pool_order : int Queue.t; (* FIFO of txids for proposal order *)
  blocks : (Digest32.t, block) Hashtbl.t;
  mutable high_qc : qc;
  mutable current_round : int;
  mutable voted_round : int;
  votes : (int, (Digest32.t, int list ref) Hashtbl.t) Hashtbl.t; (* as next-round leader *)
  mutable qc_formed : (int, unit) Hashtbl.t; (* rounds for which we aggregated *)
  timeouts : (int, int list ref) Hashtbl.t;
  mutable sent_timeout : (int, unit) Hashtbl.t;
  committed_ids : (int, unit) Hashtbl.t; (* executed txns: the sink and the pool skip them *)
  mutable committed_round : int;
  (* Reputation inputs: (block round, author, qc signers) of committed
     blocks, newest first. *)
  mutable committed_meta : (int * int * int list) list;
  mutable round_timer : Backend.timer option;
  mutable ntimeouts : int;
  mutable crashed : bool;
  (* State sync: commits whose justify chain has holes (missed while
     partitioned / crashed / given the other half of an equivocation) wait
     in [pending_commit] until the missing blocks are synced from peers. *)
  syncing : (Digest32.t, float) Hashtbl.t; (* digest -> last Sync_req time *)
  pending_commit : (Digest32.t, unit) Hashtbl.t;
  (* 2-chain checks deferred because the certified block itself was missing:
     replayed when the block arrives, or the commit decision would be lost. *)
  pending_qcs : (Digest32.t, qc) Hashtbl.t;
  byzantine : float -> Faults.byz_kind option;
  obs : Obs.t;
  c_crashes : Telemetry.counter option;
  c_recoveries : Telemetry.counter option;
  c_commits : Telemetry.counter option;
  c_timeouts : Telemetry.counter option;
  c_equiv : Telemetry.counter option;
  c_withheld : Telemetry.counter option;
  c_delayed : Telemetry.counter option;
  c_syncs : Telemetry.counter option;
}

let rep_lag = 6
let rep_window = 12

(* Deterministic rotating-leader schedule over replicas recently seen alive
   in the committed chain (QC signers + authors), with a round lag so all
   replicas agree in steady state. *)
let leader_of t r =
  let n = t.setup.committee.Committee.n in
  let actives =
    List.fold_left
      (fun acc (br, author, signers) ->
        if br <= r - rep_lag && br >= r - rep_lag - rep_window then
          List.fold_left (fun acc s -> if List.mem s acc then acc else s :: acc)
            (if List.mem author acc then acc else author :: acc)
            signers
        else acc)
      [] t.committed_meta
  in
  match List.sort compare actives with
  | [] -> r mod n
  | actives -> List.nth actives (r mod List.length actives)

let quorum t = Committee.quorum t.setup.committee

let broadcast t msg = Backend.broadcast t.backend ~src:t.id ~size:(message_size msg) msg
let send t ~dst msg = Backend.send t.backend ~src:t.id ~dst ~size:(message_size msg) msg
let byz_now t = t.byzantine (Backend.now t.backend)

let commit_block t (b : block) =
  t.committed_round <- max t.committed_round b.jb_round;
  (* Keep enough history for any future round's [r - lag - window, r - lag]
     lookback; prune strictly older entries. *)
  t.committed_meta <-
    (b.jb_round, b.jb_author, b.jb_justify.qc_signers)
    :: List.filter
         (fun (br, _, _) -> br >= b.jb_round - ((2 * rep_window) + rep_lag))
         t.committed_meta;
  let now = Backend.now t.backend in
  let seq = t.ordered_seq in
  t.ordered_seq <- seq + 1;
  Obs.incr_c t.c_commits;
  Obs.event t.obs ~time:now
    (Trace.Anchor_direct_certified { round = b.jb_round; anchor = b.jb_author });
  (* A block may re-carry a transaction an earlier block committed (the
     pool re-offers it until it sees the commit); only first executions
     reach the sink. *)
  let fresh =
    List.filter
      (fun (tx : Transaction.t) ->
        let first = not (Hashtbl.mem t.committed_ids tx.Transaction.id) in
        if first then Hashtbl.replace t.committed_ids tx.Transaction.id ();
        first)
      b.jb_txns
  in
  (* Chain protocol: block creation is both batching and inclusion, and a
     2-chain commit is final order — those stages collapse to 0, which is
     exactly what the attribution should show. *)
  t.on_commit
    {
      Harness.anchor =
        { Harness.sdag = 0; sround = b.jb_round; sauthor = b.jb_author; sdigest = b.jb_digest };
      rule = Anchors.Certified_direct;
      seq;
      committed_at = now;
      ordered_at = now;
      batches = Harness.Block { created_at = b.jb_created_at; txns = fresh };
    }

(* A request in flight during a partition is dropped silently, so dedup
   must expire: re-ask once a round timeout has passed without a response,
   or a partitioned minority can never refill its chain holes after the
   heal (and its [leader_of] view never reconverges with the majority's). *)
let request_sync t digest =
  let now = Backend.now t.backend in
  let due =
    match Hashtbl.find_opt t.syncing digest with
    | None -> true
    | Some last -> now -. last >= t.setup.round_timeout_ms
  in
  if due then begin
    Hashtbl.replace t.syncing digest now;
    Obs.incr_c t.c_syncs;
    broadcast t (Sync_req { s_digest = digest; s_requester = t.id })
  end

(* Every uncommitted ancestor of [digest] is locally available. Missing
   ones are requested from peers as a side effect. *)
let rec chain_ready t digest =
  if Digest32.equal digest t.genesis_qc.qc_digest then true
  else
    match Hashtbl.find_opt t.blocks digest with
    | None ->
      request_sync t digest;
      false
    | Some b ->
      b.jb_round <= t.committed_round || chain_ready t b.jb_justify.qc_digest

(* Commit [digest] and all its uncommitted ancestors, oldest first. If the
   chain has holes, park the tip until state sync fills them — committing
   over a hole would silently diverge this replica's log. *)
let rec commit_chain t digest =
  if chain_ready t digest then begin
    Hashtbl.remove t.pending_commit digest;
    commit_complete_chain t digest
  end
  else Hashtbl.replace t.pending_commit digest ()

and commit_complete_chain t digest =
  if not (Digest32.equal digest t.genesis_qc.qc_digest) then begin
    match Hashtbl.find_opt t.blocks digest with
    | None -> ()
    | Some b ->
      if b.jb_round > t.committed_round then begin
        commit_complete_chain t b.jb_justify.qc_digest;
        commit_block t b
      end
  end

let retry_pending_commits t =
  if Hashtbl.length t.pending_commit > 0 then begin
    (* Sorted-key traversal: the retry order decides which chain commits
       first when several tips unblock at once, and commits feed the trace
       and the replica log — hash order would leak into emitted bytes. *)
    let tips = Shoalpp_support.Sorted_tbl.keys ~cmp:Digest32.compare t.pending_commit in
    List.iter (fun d -> commit_chain t d) tips
  end

let rec enter_round t r =
  if r > t.current_round then begin
    t.current_round <- r;
    (match t.round_timer with Some timer -> Backend.cancel timer | None -> ());
    t.round_timer <-
      Some
        (Backend.schedule t.backend ~after:t.setup.round_timeout_ms (fun () ->
             if (not t.crashed) && t.current_round = r then begin
               t.ntimeouts <- t.ntimeouts + 1;
               Obs.incr_c t.c_timeouts;
               Obs.event t.obs ~time:(Backend.now t.backend) (Trace.Timeout_fired { round = r });
               send_timeout t r
             end));
    if leader_of t r = t.id then propose t r
  end

and send_timeout t r =
  if not (Hashtbl.mem t.sent_timeout r) then begin
    Hashtbl.replace t.sent_timeout r ();
    broadcast t (Timeout { t_round = r; t_high_qc = t.high_qc; t_voter = t.id })
  end

and process_qc t (q : qc) =
  if q.qc_round > t.high_qc.qc_round then t.high_qc <- q;
  (* 2-chain commit: QC over B' whose parent is from the previous round
     commits the parent (and its ancestors). *)
  (match Hashtbl.find_opt t.blocks q.qc_digest with
  | Some b' when b'.jb_justify.qc_round = b'.jb_round - 1 ->
    commit_chain t b'.jb_justify.qc_digest
  | Some _ -> ()
  | None ->
    (* A certified block we never received (we were partitioned or slow):
       fetch it and stash the QC so the 2-chain check replays on arrival,
       walking the hole backwards one block per response. *)
    if q.qc_round > t.committed_round && not (Digest32.equal q.qc_digest t.genesis_qc.qc_digest)
    then begin
      Hashtbl.replace t.pending_qcs q.qc_digest q;
      request_sync t q.qc_digest
    end);
  enter_round t (q.qc_round + 1)

and propose t r =
  (* Pull eligible transactions in arrival order: not committed, not
     recently included in another (possibly still-pending) block. *)
  let txns = ref [] in
  let count = ref 0 in
  let requeue = ref [] in
  while !count < t.setup.max_block_txns && not (Queue.is_empty t.pool_order) do
    let id = Queue.pop t.pool_order in
    match Hashtbl.find_opt t.pool id with
    | None -> ()
    | Some st ->
      if Hashtbl.mem t.committed_ids id then Hashtbl.remove t.pool id
      else if st.included_round >= 0 && st.included_round > r - 8 then requeue := id :: !requeue
      else begin
        st.included_round <- r;
        incr count;
        txns := st.tx :: !txns;
        requeue := id :: !requeue
      end
  done;
  (* Keep every still-live txn in the queue for later leaders / retries. *)
  List.iter (fun id -> Queue.push id t.pool_order) (List.rev !requeue);
  let txns = List.rev !txns in
  let justify = t.high_qc in
  let digest = block_digest ~round:r ~author:t.id ~justify ~txns in
  let now = Backend.now t.backend in
  let b =
    {
      jb_round = r;
      jb_author = t.id;
      jb_txns = txns;
      jb_justify = justify;
      jb_digest = digest;
      jb_created_at = now;
    }
  in
  Obs.event t.obs ~time:now (Trace.Proposal_created { round = r; txns = List.length txns });
  match byz_now t with
  | Some Faults.Silent_anchor ->
    (* Withholding leader: the block exists only locally, so the round can
       only advance through the pacemaker. *)
    Obs.incr_c t.c_withheld;
    Obs.event t.obs ~time:now (Trace.Anchor_withheld { round = r });
    send t ~dst:t.id (Block b)
  | Some Faults.Equivocate when txns <> [] ->
    (* Two signed blocks for the same round: the full one to even-id peers,
       an empty twin to odd ids. Votes split per digest, so no QC can form
       from a mixed electorate and at most one version ever commits. *)
    let twin_digest = block_digest ~round:r ~author:t.id ~justify ~txns:[] in
    let twin = { b with jb_txns = []; jb_digest = twin_digest } in
    Obs.incr_c t.c_equiv;
    Obs.event t.obs ~time:now (Trace.Equivocation_sent { round = r });
    for dst = 0 to t.setup.committee.Committee.n - 1 do
      send t ~dst (Block (if dst = t.id || dst mod 2 = 0 then b else twin))
    done
  | _ -> broadcast t (Block b)

let pool_add t (tx : Transaction.t) =
  if
    (not (Hashtbl.mem t.committed_ids tx.Transaction.id))
    && not (Hashtbl.mem t.pool tx.Transaction.id)
  then begin
    Hashtbl.replace t.pool tx.Transaction.id { tx; included_round = -1 };
    Queue.push tx.Transaction.id t.pool_order
  end

let replay_pending_qc t (b : block) =
  match Hashtbl.find_opt t.pending_qcs b.jb_digest with
  | Some q ->
    Hashtbl.remove t.pending_qcs b.jb_digest;
    process_qc t q
  | None -> ()

let handle_block t (b : block) =
  if b.jb_round >= t.current_round - 1 then begin
    Hashtbl.replace t.blocks b.jb_digest b;
    Hashtbl.remove t.syncing b.jb_digest;
    replay_pending_qc t b;
    retry_pending_commits t;
    process_qc t b.jb_justify;
    (* Txns we see in blocks are known to the pool too (so a later leader
       does not need the gossip to have arrived first). *)
    List.iter (fun tx -> pool_add t tx) b.jb_txns;
    if b.jb_round > t.voted_round && leader_of t b.jb_round = b.jb_author then begin
      t.voted_round <- b.jb_round;
      enter_round t b.jb_round;
      let next_leader = leader_of t (b.jb_round + 1) in
      let vote = Vote { v_round = b.jb_round; v_digest = b.jb_digest; v_voter = t.id } in
      match byz_now t with
      | Some (Faults.Delay_votes delay_ms) ->
        Obs.incr_c t.c_delayed;
        Obs.event t.obs ~time:(Backend.now t.backend)
          (Trace.Votes_delayed { round = b.jb_round; delay_ms = int_of_float delay_ms });
        ignore
          (Backend.schedule t.backend ~after:delay_ms (fun () ->
               if not t.crashed then send t ~dst:next_leader vote))
      | _ -> send t ~dst:next_leader vote
    end
  end

let handle_vote t ~v_round ~v_digest ~v_voter =
  if (not (Hashtbl.mem t.qc_formed v_round)) && leader_of t (v_round + 1) = t.id then begin
    let per_round =
      match Hashtbl.find_opt t.votes v_round with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.replace t.votes v_round h;
        h
    in
    let voters =
      match Hashtbl.find_opt per_round v_digest with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace per_round v_digest l;
        l
    in
    if not (List.mem v_voter !voters) then begin
      voters := v_voter :: !voters;
      if List.length !voters >= quorum t then begin
        Hashtbl.replace t.qc_formed v_round ();
        process_qc t { qc_round = v_round; qc_digest = v_digest; qc_signers = !voters }
      end
    end
  end

let handle_timeout t ~t_round ~t_high_qc ~t_voter =
  process_qc t t_high_qc;
  if t_round >= t.current_round then begin
    let voters =
      match Hashtbl.find_opt t.timeouts t_round with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace t.timeouts t_round l;
        l
    in
    if not (List.mem t_voter !voters) then begin
      voters := t_voter :: !voters;
      (* Echo once f+1 peers are timing out, so stragglers converge. *)
      if List.length !voters >= Committee.weak_quorum t.setup.committee then send_timeout t t_round;
      if List.length !voters >= quorum t then enter_round t (t_round + 1)
    end
  end

let handle_message t msg =
  if not t.crashed then begin
    match msg with
    | Block b -> handle_block t b
    | Vote { v_round; v_digest; v_voter } -> handle_vote t ~v_round ~v_digest ~v_voter
    | Timeout { t_round; t_high_qc; t_voter } -> handle_timeout t ~t_round ~t_high_qc ~t_voter
    | Gossip txns -> List.iter (fun tx -> pool_add t tx) txns
    | Sync_req { s_digest; s_requester } -> (
      match Hashtbl.find_opt t.blocks s_digest with
      | Some b when s_requester <> t.id -> send t ~dst:s_requester (Sync_resp b)
      | _ -> ())
    | Sync_resp b ->
      (* No round recency filter: synced blocks are exactly the old history
         a lagging replica is missing. *)
      Hashtbl.replace t.blocks b.jb_digest b;
      Hashtbl.remove t.syncing b.jb_digest;
      (* Replay the commit decisions this block unblocks: the QC that was
         waiting for it, and its own embedded justify QC — this is how a
         healed minority re-derives commits whose live QC pairs it missed
         (and so reconverges its reputation-based [leader_of] view). *)
      replay_pending_qc t b;
      process_qc t b.jb_justify;
      retry_pending_commits t
  end

(* -------------------------------------------------------------------- *)
(* Cluster hooks: the shared harness runs everything else.               *)

let rec arm_gossip t =
  ignore
    (Backend.schedule t.backend ~after:t.setup.gossip_interval_ms (fun () ->
         if not t.crashed then begin
           let txns = Mempool.pull t.mempool ~max:max_int in
           if txns <> [] then begin
             List.iter (fun tx -> pool_add t tx) txns;
             broadcast t (Gossip txns)
           end;
           arm_gossip t
         end))

let hooks =
  {
    Harness.start =
      (fun t ->
        arm_gossip t;
        enter_round t 0);
    crash =
      (fun t ->
        if not t.crashed then begin
          t.crashed <- true;
          Obs.incr_c t.c_crashes;
          Obs.event t.obs ~time:(Backend.now t.backend) (Trace.Replica_crashed { replica = t.id })
        end);
    (* Warm in-memory resume: Jolteon keeps no WAL, so a recovered replica
       rejoins with its pre-crash state and catches up from peers' QCs and
       timeout messages (a documented asymmetry vs Shoal++'s WAL replay). *)
    recover =
      (fun t ~wipe:_ ->
        if t.crashed then begin
          t.crashed <- false;
          Obs.incr_c t.c_recoveries;
          Obs.event t.obs ~time:(Backend.now t.backend)
            (Trace.Replica_recovered { replica = t.id; replayed = 0 });
          arm_gossip t;
          send_timeout t t.current_round
        end);
    replays_log = false;
    base_seq = (fun _ -> 0);
    commit_counts =
      (fun t -> { Harness.fast = 0; direct = t.ordered_seq; indirect = 0; skipped = 0 });
  }

type cluster = (msg, replica) Cluster.gen

let create (run : setup Cluster.gen_setup) =
  let setup = run.Cluster.protocol in
  let committee = setup.committee in
  let n = committee.Committee.n in
  let genesis_qc =
    { qc_round = -1; qc_digest = committee.Committee.genesis; qc_signers = [] }
  in
  Cluster.make run ~name:"jolteon" ~n ~num_dags:1 ~hooks
    ~make_replica:(fun ~backend ~telemetry id ~mempool ~on_commit ~on_caught_up:_ ->
      let obs = Obs.make ?trace:run.Cluster.trace ~telemetry ~replica:id ~instance:0 () in
      let r =
        {
          id;
          setup;
          backend;
          mempool;
          on_commit;
          ordered_seq = 0;
          genesis_qc;
          pool = Hashtbl.create 4096;
          pool_order = Queue.create ();
          blocks = Hashtbl.create 4096;
          high_qc = genesis_qc;
          current_round = -1;
          voted_round = -1;
          votes = Hashtbl.create 64;
          qc_formed = Hashtbl.create 64;
          timeouts = Hashtbl.create 16;
          sent_timeout = Hashtbl.create 16;
          committed_ids = Hashtbl.create 4096;
          committed_round = -1;
          committed_meta = [];
          round_timer = None;
          ntimeouts = 0;
          crashed = false;
          syncing = Hashtbl.create 16;
          pending_qcs = Hashtbl.create 16;
          pending_commit = Hashtbl.create 16;
          byzantine = Faults.byzantine_for run.Cluster.scenario ~n ~replica:id;
          obs;
          c_crashes = Obs.counter obs "fault.crashes";
          c_recoveries = Obs.counter obs "fault.recoveries";
          c_commits = Obs.counter obs "commit.certified_direct";
          c_timeouts = Obs.counter obs "dag.timeouts";
          c_equiv = Obs.counter obs "fault.equivocations";
          c_withheld = Obs.counter obs "fault.withheld_proposals";
          c_delayed = Obs.counter obs "fault.delayed_votes";
          c_syncs = Obs.counter obs "dag.fetches";
        }
      in
      Backend.set_handler backend id (fun ~src:_ msg -> handle_message r msg);
      r)

let timeouts_fired c = Array.fold_left (fun acc r -> acc + r.ntimeouts) 0 (Cluster.replicas c)
let rounds_reached c = Array.fold_left (fun acc r -> max acc r.current_round) 0 (Cluster.replicas c)
