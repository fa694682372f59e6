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
module Multisig = Shoalpp_crypto.Multisig
module Checkpoint = Shoalpp_storage.Checkpoint
module Validation = Shoalpp_dag.Validation
module Sync = Shoalpp_sync.Sync

type envelope = { dag_id : int; payload : Types.message }

let envelope_size e = 1 + Types.message_size e.payload

(* Control-plane envelopes (checkpoint votes) ride dag id 255: routed by the
   replica itself, never handed to a DAG instance. On the simulated backend
   they travel the out-of-band control transport, which draws no RNG and
   mutates no queue cursors — the reason commit sequences stay byte-identical
   with checkpointing on or off. *)
let control_dag_id = 255

(* How far (in global sequence numbers) ahead of local progress a
   checkpoint vote may be and still be buffered rather than dropped. *)
let ck_vote_horizon = 4096

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

type dag_lane = {
  store : Store.t;
  instance : Instance.t;
  driver : Driver.t;
  ready : Driver.segment Queue.t; (* committed, awaiting interleave *)
  lane_wal : Wal.t; (* the shared replica WAL, or per-lane under lane_env *)
  server : Sync.Server.t; (* answers peers' catch-up requests from our store *)
  mutable sync_client : Sync.Client.t option; (* present while catching up *)
  mutable ck_marks : int list; (* WAL segment ids opened at checkpoints, newest first *)
}

(* Checkpoint manager: runs at the Alg. 3 merge point (the only place the
   global sequence exists), so it is owned by whichever domain owns the
   merge — the main domain under [--domains N]. The certified-checkpoint
   log is a {e separate} WAL device: interleaving its writes into the
   protocol WAL would perturb the group-commit timing every vote/proposal
   persist depends on. *)
type ck_mgr = {
  ck_interval : int; (* effective interval: > 0, multiple of num_dags *)
  ck_wal : Wal.t; (* certified checkpoints only; always retains *)
  mutable ck_state : Digest32.t; (* running commit-stream digest *)
  ck_lane_latest : (int * string) option array; (* (anchor round, resume) per lane *)
  mutable ck_candidate : Checkpoint.candidate option; (* ours, pending quorum *)
  ck_votes : (int, (int * Digest32.t * Signer.signature) list ref) Hashtbl.t;
  mutable ck_latest : Checkpoint.t option; (* newest certified checkpoint *)
  mutable ck_main_marks : int list; (* shared-WAL rotation marks (no lane_env) *)
}

type t = {
  cfg : Config.t;
  id : int;
  backend : envelope Backend.t;
  mempool : Mempool.t;
  wal : Wal.t;
  lane_env : lane_env option;
  mutable lanes : dag_lane array;
  on_ordered : (ordered -> unit) option;
  obs : Obs.t;
  mutable next_lane : int; (* round-robin cursor of Alg. 3 *)
  mutable global_seq : int;
  mutable txns_ordered : int;
  mutable requeued : int;
  committed_own : (int, unit) Hashtbl.t; (* own-origin txn ids already ordered *)
  mutable crashed : bool;
  (* Scenario-driven misbehaviour, queried at send time: None = honest. *)
  byzantine : float -> Faults.byz_kind option;
  mutable replaying : bool; (* WAL replay in progress: sends muted *)
  ck : ck_mgr option; (* Some iff checkpoint_interval > 0 *)
  mutable base_seq : int; (* first global seq of the post-recovery log (audit offset) *)
  mutable catching_up : bool; (* peer sync in progress *)
  mutable syncing_lanes : int; (* lanes whose sync client has not finished *)
  mutable ck_fetch_attempt : int; (* peer rotation for checkpoint adoption; -1 = idle *)
  on_caught_up : (unit -> unit) option;
  c_equivocations : Telemetry.counter option;
  c_withheld : Telemetry.counter option;
  c_delayed : Telemetry.counter option;
  c_crashes : Telemetry.counter option;
  c_recoveries : Telemetry.counter option;
}

(* --- commit-certified checkpoints (tentpole of the bounded-memory
   lifecycle): every [ck_interval] merged segments, fold the committed
   stream into a running digest, form a candidate from the per-lane driver
   snapshots, vote on its digest over the control plane, and certify on a
   quorum of matching votes. Only a certified checkpoint authorizes WAL
   rotation/truncation. All inputs are deterministic functions of the
   committed prefix, so every correct replica votes for the same digest. *)

let ck_truncate t m =
  let rotate_one wal marks =
    let seg = Wal.rotate wal in
    let marks = seg :: marks in
    (match marks with
    | _cur :: prev :: _ ->
      let dropped = Wal.truncate_below wal ~seg:prev in
      if dropped > 0 then Obs.incr ~by:dropped t.obs "ck.wal_truncated_entries"
    | _ -> ());
    (* Two marks bound retention to the last two checkpoint windows: replay
       starts from the latest checkpoint, and the window before it still
       covers any round that was in flight when the boundary committed. *)
    match marks with a :: b :: _ -> [ a; b ] | l -> l
  in
  match t.lane_env with
  | None -> m.ck_main_marks <- rotate_one t.wal m.ck_main_marks
  | Some env ->
    (* Per-lane WALs belong to their lanes' domains; rotation is pure list
       bookkeeping but must not race that domain's appends. *)
    Array.iteri
      (fun dag_id lane ->
        ignore
          (Backend.schedule (env.le_backend dag_id) ~after:0.0 (fun () ->
               lane.ck_marks <- rotate_one lane.lane_wal lane.ck_marks)))
      t.lanes

(* Checkpoint-anchored physical pruning: raise each lane's retain gate to
   [ck]'s per-lane resume floor, releasing the rounds whose deletion the
   previous gate deferred. Ordering is untouched — the logical GC floor
   advances with commit progress exactly as without checkpointing — but
   physical deletion waits for certification, so a peer restoring from a
   served checkpoint can always bridge from its floor to the live rounds.
   Lane instances belong to their lanes' domains at [--domains N]. *)
let ck_apply_gates t ck =
  List.iter
    (fun (l : Checkpoint.lane) ->
      if l.Checkpoint.dag_id < Array.length t.lanes then begin
        let lane = t.lanes.(l.Checkpoint.dag_id) in
        match Driver.snapshot_floor l.Checkpoint.resume with
        | floor when floor > 0 -> (
          let apply () = Instance.set_retain_gate lane.instance ~round:floor in
          match t.lane_env with
          | None -> apply ()
          | Some env ->
            ignore (Backend.schedule (env.le_backend l.Checkpoint.dag_id) ~after:0.0 apply))
        | _ -> ()
        | exception Shoalpp_codec.Wire.Reader.Malformed _ -> ()
      end)
    (Checkpoint.lanes ck)

let ck_install t m ck =
  (* Gates advance to the {e superseded} checkpoint's floors: retention
     always covers the last two certified checkpoints, so a peer that just
     adopted the previous one can still pull every round it needs while we
     certify the next. *)
  (match m.ck_latest with Some prev -> ck_apply_gates t prev | None -> ());
  m.ck_latest <- Some ck;
  m.ck_candidate <- None;
  let seq = Checkpoint.seq ck in
  let doomed =
    Hashtbl.fold (fun s _ acc -> if s <= seq then s :: acc else acc) m.ck_votes []
  in
  List.iter (Hashtbl.remove m.ck_votes) doomed;
  Wal.append m.ck_wal ~size:(Checkpoint.wire_size ck) ~payload:(fun () -> Checkpoint.encode ck)
    ignore;
  Obs.incr t.obs "ck.certified";
  Obs.set t.obs "ck.latest_seq" (float_of_int seq);
  Obs.event t.obs ~time:(Backend.now t.backend)
    (Trace.Checkpoint_certified { seq; signers = Multisig.num_signers (Checkpoint.cert ck) });
  ck_truncate t m

let ck_try_certify t m ~seq =
  match m.ck_candidate with
  | Some cand when cand.Checkpoint.seq = seq -> (
    match Hashtbl.find_opt m.ck_votes seq with
    | None -> ()
    | Some votes ->
      let digest = Checkpoint.digest cand in
      let matching = List.filter (fun (_, d, _) -> Digest32.equal d digest) !votes in
      let committee = t.cfg.Config.committee in
      let quorum = Committee.quorum committee in
      if List.length matching >= quorum then begin
        let sigs =
          List.sort
            (fun (a, _) (b, _) -> Int.compare a b)
            (List.map (fun (v, _, s) -> (v, s)) matching)
        in
        let ck = Checkpoint.certify ~n:committee.Shoalpp_dag.Committee.n cand sigs in
        (* Refuse to prune on anything but a verified certificate. *)
        if
          Checkpoint.verify ~keys:committee.Shoalpp_dag.Committee.keys
            ~quorum ck
        then ck_install t m ck
        else Obs.incr t.obs "ck.cert_rejected"
      end)
  | _ -> ()

let handle_checkpoint_vote t ~ck_seq ~ck_digest ~ck_voter ~ck_signature =
  match t.ck with
  | None -> ()
  | Some m ->
    let stale =
      match m.ck_latest with Some ck -> ck_seq <= Checkpoint.seq ck | None -> false
    in
    let committee = t.cfg.Config.committee in
    (* Buffer votes for boundaries up to a fixed horizon ahead of whichever
       is further along: our own merge position or the last certified
       checkpoint. Anchoring the horizon to [ck_latest] matters under real
       time: replicas drift by more than a few intervals of merge progress,
       and a vote dropped here is never re-sent — a horizon relative only
       to [global_seq] would let certification stall cluster-wide (and with
       it checkpoint-anchored pruning). The buffer stays bounded at
       [horizon / interval] boundaries of at most [n] votes each. *)
    let horizon =
      (match m.ck_latest with
      | Some ck -> max t.global_seq (Checkpoint.seq ck + 1)
      | None -> t.global_seq)
      + ck_vote_horizon + (4 * m.ck_interval)
    in
    if
      (not stale)
      && ck_seq < horizon
      && Committee.valid_replica committee ck_voter
    then begin
      if Validation.checkpoint_vote_signature_ok ~committee ~ck_digest ~ck_voter ~ck_signature
      then begin
        let votes =
          match Hashtbl.find_opt m.ck_votes ck_seq with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.replace m.ck_votes ck_seq l;
            l
        in
        if not (List.exists (fun (v, _, _) -> Int.equal v ck_voter) !votes) then begin
          votes := (ck_voter, ck_digest, ck_signature) :: !votes;
          ck_try_certify t m ~seq:ck_seq
        end
      end
      else Obs.incr t.obs "ck.votes_rejected"
    end

let ck_boundary t m ~seq =
  (* The interval is a multiple of the lane count, so by the time the merge
     reaches a boundary every lane's last segment of the window carried a
     driver snapshot (snapshot_every = interval / num_dags). *)
  if Array.for_all Option.is_some m.ck_lane_latest then begin
    let lanes =
      Array.to_list
        (Array.mapi
           (fun dag_id latest ->
             match latest with
             | Some (round, resume) -> { Checkpoint.dag_id; round; resume }
             | None -> assert false)
           m.ck_lane_latest)
    in
    let cand = Checkpoint.candidate ~seq ~lanes ~state:m.ck_state in
    m.ck_candidate <- Some cand;
    if not t.replaying then begin
      let committee = t.cfg.Config.committee in
      let kp = Committee.keypair committee t.id in
      let payload =
        Types.Checkpoint_vote
          {
            ck_seq = seq;
            ck_digest = Checkpoint.digest cand;
            ck_voter = t.id;
            ck_signature = Checkpoint.sign kp cand;
          }
      in
      let env = { dag_id = control_dag_id; payload } in
      Backend.control_broadcast t.backend ~src:t.id ~size:(envelope_size env) env
    end;
    (* faster peers' votes may already be buffered *)
    ck_try_certify t m ~seq
  end

let ck_observe t ~seq (segment : Driver.segment) =
  match t.ck with
  | None -> ()
  | Some m ->
    let anchor = segment.Driver.anchor in
    m.ck_state <-
      Checkpoint.fold_segment m.ck_state ~dag_id:segment.Driver.dag_id
        ~round:anchor.Types.ref_round ~author:anchor.Types.ref_author;
    (match segment.Driver.resume with
    | Some blob ->
      m.ck_lane_latest.(segment.Driver.dag_id) <- Some (anchor.Types.ref_round, blob)
    | None -> ());
    if (seq + 1) mod m.ck_interval = 0 then ck_boundary t m ~seq

(* Alg. 3: append exactly one available segment per DAG, cycling; stop at
   the first DAG whose next segment is not yet available. *)
let rec drain t =
  if not t.crashed then begin
    let lane = t.lanes.(t.next_lane) in
    if not (Queue.is_empty lane.ready) then begin
      let segment = Queue.pop lane.ready in
      let seq = t.global_seq in
      t.global_seq <- t.global_seq + 1;
      t.next_lane <- (t.next_lane + 1) mod Array.length t.lanes;
      let ordered_at = Backend.now t.backend in
      let ntx = ref 0 in
      List.iter
        (fun (cn : Types.certified_node) ->
          List.iter
            (fun (tx : Shoalpp_workload.Transaction.t) ->
              incr ntx;
              if tx.Shoalpp_workload.Transaction.origin = t.id then
                Hashtbl.replace t.committed_own tx.Shoalpp_workload.Transaction.id ())
            cn.Types.cn_node.Types.batch.Batch.txns)
        segment.Driver.nodes;
      t.txns_ordered <- t.txns_ordered + !ntx;
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
      ck_observe t ~seq segment;
      (match t.on_ordered with
      | Some f -> f { global_seq = seq; segment; ordered_at }
      | None -> ());
      drain t
    end
  end

(* Equivocation twin: same round and parent edges, but an empty batch —
   hence a different digest — re-signed with our own key, so it passes
   proposal validation at every correct replica. Skipped when the original
   batch is already empty (the digests would coincide). *)
let equivocation_twin t (node : Types.node) =
  if node.Types.batch.Batch.txns = [] then None
  else begin
    let batch = Batch.make ~txns:[] ~created_at:node.Types.batch.Batch.created_at in
    let digest =
      Types.node_digest ~round:node.Types.round ~author:node.Types.author
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
  let ready = Queue.create () in
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
            (* Cross-lane state (ready queues, the round-robin cursor, the
               global sequence) belongs to the merge domain: the segment
               is enqueued and interleaved there, by sequence, never by
               arrival order across lanes. *)
            post_main (fun () ->
                Queue.push segment ready;
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
                orphaned := cn.Types.cn_node.Types.batch.Batch.txns :: !orphaned
              | _ -> ()
            done;
            (match List.rev !orphaned with
            | [] -> ()
            | batches ->
              post_main (fun () ->
                  List.iter
                    (List.iter (fun (tx : Shoalpp_workload.Transaction.t) ->
                         if
                           not (Hashtbl.mem t.committed_own tx.Shoalpp_workload.Transaction.id)
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
  let plain_send ~dst payload =
    let env = { dag_id; payload } in
    Backend.send t.backend ~src:t.id ~dst ~size:(envelope_size env) env
  in
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
        match equivocation_twin t node with
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
          else begin
            let size = Types.message_size msg in
            if Wal.retains wal then
              (* Encoded only if a recovery ever replays it. *)
              let payload () =
                String.make 1 (Char.chr (dag_id land 0xff)) ^ Types.encode_message msg
              in
              Wal.append wal ~size ~payload cb
            else Wal.append wal ~size cb
          end);
      on_proposal_noted = (fun _node -> Driver.notify (the_driver ()));
      on_certified = (fun _cn -> Driver.notify (the_driver ()));
      on_cert_meta = (fun _ref -> Driver.notify (the_driver ()));
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
    ready;
    lane_wal = wal;
    server =
      Sync.Server.create ~store
        ~checkpoint:(fun () ->
          match t.ck with
          | Some m -> Option.map Checkpoint.encode m.ck_latest
          | None -> None)
        ();
    sync_client = None;
    ck_marks = [];
  }

(* --- peer catch-up sync -------------------------------------------------
   After a restart the local WAL only covers the retained window; everything
   committed cluster-wide since our last certified checkpoint (or since we
   went down) is pulled from peers in O(gap) messages: one round-probe plus
   ceil(gap/page) range requests per lane. Requests/responses ride normal
   per-lane envelopes — they only flow while a replica is recovering, a
   regime where golden determinism is not asserted. *)

(* Rewind the merge and every lane to a certified checkpoint: global
   sequencing resumes at seq+1 on lane 0 (the interval is a multiple of the
   lane count, so the boundary seq always lands on the last lane), each
   driver resumes from its snapshot blob, and each instance's store floor
   is raised to the driver's restored floor. *)
let ck_restore_from t m ck =
  m.ck_latest <- Some ck;
  m.ck_candidate <- None;
  Hashtbl.reset m.ck_votes;
  m.ck_state <- Checkpoint.state ck;
  Array.fill m.ck_lane_latest 0 (Array.length m.ck_lane_latest) None;
  t.global_seq <- Checkpoint.seq ck + 1;
  t.base_seq <- t.global_seq;
  t.next_lane <- 0;
  List.iter
    (fun (l : Checkpoint.lane) ->
      if l.Checkpoint.dag_id < Array.length t.lanes then begin
        let lane = t.lanes.(l.Checkpoint.dag_id) in
        let floor = Driver.restore lane.driver l.Checkpoint.resume in
        if floor > 0 then Instance.gc_upto lane.instance ~round:floor
      end)
    (Checkpoint.lanes ck);
  (* Everything below the restored floors is vouched for by the adopted
     certificate; physical retention restarts there. *)
  ck_apply_gates t ck

let replay_wal t =
  t.replaying <- true;
  let replayed = ref 0 in
  List.iter
    (fun entry ->
      if String.length entry > 1 then begin
        let dag_id = Char.code entry.[0] in
        if dag_id < Array.length t.lanes then begin
          match Types.decode_message ~pos:1 entry with
          | Ok msg ->
            incr replayed;
            (* Proposals must appear to come from their author (the
               src/author check of handle_proposal); everything else is
               our own durable state. *)
            let src = match msg with Types.Proposal node -> node.Types.author | _ -> t.id in
            Instance.handle_message t.lanes.(dag_id).instance ~src msg
          | Error _ -> ()
        end
      end)
    (Wal.entries t.wal);
  t.replaying <- false;
  !replayed

let rec start_catch_up t =
  t.catching_up <- true;
  t.syncing_lanes <- Array.length t.lanes;
  let from_round0 = ref 0 in
  Array.iteri
    (fun dag_id lane ->
      let hooks =
        {
          Sync.Client.send =
            (fun ~dst req ->
              let payload = Types.Sync_request { sq_requester = t.id; sq_req = req } in
              let env = { dag_id; payload } in
              Backend.send t.backend ~src:t.id ~dst ~size:(envelope_size env) env);
          ingest = (fun cn -> Instance.ingest_certified lane.instance cn);
          schedule = (fun ~after f -> ignore (Backend.schedule t.backend ~after f));
          on_caught_up = (fun () -> lane_caught_up t dag_id);
        }
      in
      let client = Sync.Client.create ~n:(Backend.n t.backend) ~self:t.id hooks in
      lane.sync_client <- Some client;
      (* Resume wherever local knowledge ends: the restored checkpoint
         floor, or the highest round the WAL replay reconstructed. *)
      let from =
        max 0 (max (Instance.lowest_round lane.instance) (Store.highest_round lane.store))
      in
      if dag_id = 0 then from_round0 := from;
      Sync.Client.start client ~from)
    t.lanes;
  Obs.event t.obs ~time:(Backend.now t.backend)
    (Trace.Sync_started { replica = t.id; from_round = !from_round0 })

and lane_caught_up t dag_id =
  Instance.resume t.lanes.(dag_id).instance;
  t.syncing_lanes <- t.syncing_lanes - 1;
  if t.syncing_lanes = 0 then begin
    t.catching_up <- false;
    let requests, certs =
      Array.fold_left
        (fun (rq, cs) lane ->
          match lane.sync_client with
          | Some c -> (rq + Sync.Client.requests_sent c, cs + Sync.Client.certs_ingested c)
          | None -> (rq, cs))
        (0, 0) t.lanes
    in
    if requests > 0 then Obs.incr ~by:requests t.obs "sync.requests";
    if certs > 0 then Obs.incr ~by:certs t.obs "sync.certs_ingested";
    Obs.event t.obs ~time:(Backend.now t.backend)
      (Trace.Sync_completed { replica = t.id; certs; requests });
    match t.on_caught_up with Some f -> f () | None -> ()
  end

(* Deferred tail of a checkpoint-aware recovery: replay the retained WAL
   through the fresh instances, then pull the missed history via the sync
   protocol. Runs after the peer-checkpoint probe resolves (adopted, stale,
   or given up) so that replayed commits can never land below a frontier
   adopted afterwards — the ordered log stays contiguous from [base_seq]. *)
let finish_recovery t =
  let replayed = replay_wal t in
  Obs.event t.obs ~time:(Backend.now t.backend)
    (Trace.Replica_recovered { replica = t.id; replayed });
  start_catch_up t

(* Peer-checkpoint probe, run on every checkpoint-aware restart (not just
   total disk loss): peers prune history below their own certified
   checkpoints, so an outage longer than the retained window can only be
   bridged by first adopting a frontier at least as new as the serving
   peer's floor. Peers are asked in deterministic rotation with a retry on
   silence; only a blob that verifies against the committee is adopted, and
   only when strictly newer than local durable state. If every peer answers
   [None] (the cluster never certified one), fall back to replay plus
   syncing the full history from round 0. *)
let rec ck_request_checkpoint t =
  let n = Backend.n t.backend in
  if t.ck_fetch_attempt >= 2 * n then begin
    t.ck_fetch_attempt <- -1;
    finish_recovery t
  end
  else begin
    let dst =
      let p = (t.id + 1 + t.ck_fetch_attempt) mod n in
      if p = t.id then (p + 1) mod n else p
    in
    let payload = Types.Sync_request { sq_requester = t.id; sq_req = Types.Get_checkpoint } in
    let env = { dag_id = 0; payload } in
    let attempt = t.ck_fetch_attempt in
    Backend.send t.backend ~src:t.id ~dst ~size:(envelope_size env) env;
    ignore
      (Backend.schedule t.backend ~after:400.0 (fun () ->
           if t.ck_fetch_attempt = attempt && not t.crashed then begin
             t.ck_fetch_attempt <- attempt + 1;
             ck_request_checkpoint t
           end))
  end

and ck_adopt t m blob_opt =
  match blob_opt with
  | None ->
    t.ck_fetch_attempt <- t.ck_fetch_attempt + 1;
    ck_request_checkpoint t
  | Some blob ->
    let committee = t.cfg.Config.committee in
    let quorum = Committee.quorum committee in
    let ck =
      match
        Checkpoint.decode ~n:committee.Committee.n blob
      with
      | ck ->
        if Checkpoint.verify ~keys:committee.Committee.keys ~quorum ck then
          Some ck
        else None
      | exception Shoalpp_codec.Wire.Reader.Malformed _ -> None
    in
    (match ck with
    | None ->
      (* Unverifiable blob: never adopt — rotate to the next peer. *)
      Obs.incr t.obs "ck.adopt_rejected";
      t.ck_fetch_attempt <- t.ck_fetch_attempt + 1;
      ck_request_checkpoint t
    | Some ck ->
      t.ck_fetch_attempt <- -1;
      (* A peer frontier at or below our own adds nothing — keep local
         state (its WAL coverage is contiguous with it) and move on. *)
      if Checkpoint.seq ck + 1 > t.global_seq then begin
        ck_restore_from t m ck;
        Wal.append m.ck_wal ~size:(Checkpoint.wire_size ck)
          ~payload:(fun () -> Checkpoint.encode ck)
          ignore
      end;
      finish_recovery t)

let handle_sync_request t ~dag_id ~src req =
  let lane = t.lanes.(dag_id) in
  let payload =
    Types.Sync_response { sp_responder = t.id; sp_resp = Sync.Server.handle lane.server req }
  in
  let env = { dag_id; payload } in
  Backend.send t.backend ~src:t.id ~dst:src ~size:(envelope_size env) env

let handle_sync_response t ~dag_id resp =
  match (resp, t.ck) with
  | Types.Checkpoint_blob { cb_blob }, Some m when t.ck_fetch_attempt >= 0 ->
    ck_adopt t m cb_blob
  | _ -> (
    match t.lanes.(dag_id).sync_client with
    | Some c -> Sync.Client.handle_response c resp
    | None -> ())

(* Single inbound dispatch for every transport: control-plane envelopes
   (dag 255) carry checkpoint votes, lane envelopes carry either sync
   traffic or protocol messages for that DAG instance. *)
let route t ~src (env : envelope) =
  if not t.crashed then begin
    if env.dag_id = control_dag_id then begin
      match env.payload with
      | Types.Checkpoint_vote { ck_seq; ck_digest; ck_voter; ck_signature } ->
        handle_checkpoint_vote t ~ck_seq ~ck_digest ~ck_voter ~ck_signature
      | _ -> () (* only checkpoint votes ride the control plane *)
    end
    else if env.dag_id >= 0 && env.dag_id < Array.length t.lanes then begin
      match env.payload with
      | Types.Sync_request { sq_req; _ } -> handle_sync_request t ~dag_id:env.dag_id ~src sq_req
      | Types.Sync_response { sp_resp; _ } -> handle_sync_response t ~dag_id:env.dag_id sp_resp
      | payload -> Instance.handle_message t.lanes.(env.dag_id).instance ~src payload
    end
  end

let create ~config ~replica_id ~backend ~mempool ?on_ordered ?on_caught_up ?trace ?telemetry
    ?(byzantine = fun _ -> None) ?(retain_wal = false) ?lane_env () =
  let obs = Obs.make ?trace ?telemetry ~replica:replica_id ~instance:0 () in
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
      on_ordered;
      obs;
      next_lane = 0;
      global_seq = 0;
      txns_ordered = 0;
      requeued = 0;
      committed_own = Hashtbl.create 4096;
      crashed = false;
      byzantine;
      replaying = false;
      ck =
        (let interval = Config.effective_checkpoint_interval config in
         if interval = 0 then None
         else
           Some
             {
               ck_interval = interval;
               (* Separate always-retaining device: certified checkpoints
                  must survive protocol-WAL truncation, and their writes
                  must not perturb its group-commit timing. *)
               ck_wal =
                 Wal.create ~timers:backend.Backend.timers
                   ~sync_latency_ms:config.Config.wal_sync_ms ~retain:true ();
               ck_state = Digest32.zero;
               ck_lane_latest = Array.make config.Config.num_dags None;
               ck_candidate = None;
               ck_votes = Hashtbl.create 8;
               ck_latest = None;
               ck_main_marks = [];
             });
      base_seq = 0;
      catching_up = false;
      syncing_lanes = 0;
      ck_fetch_attempt = -1;
      on_caught_up;
      c_equivocations = Obs.counter obs "fault.equivocations";
      c_withheld = Obs.counter obs "fault.withheld_proposals";
      c_delayed = Obs.counter obs "fault.delayed_votes";
      c_crashes = Obs.counter obs "fault.crashes";
      c_recoveries = Obs.counter obs "fault.recoveries";
    }
  in
  t.lanes <- Array.init config.Config.num_dags (fun dag_id -> make_lane t dag_id);
  (* Under a lane_env the harness owns message routing (inbound messages
     must cross the verify pool and land on the right lane's domain), so
     the replica does not claim the transport slot itself. *)
  (match lane_env with
  | Some _ -> ()
  | None -> Backend.set_handler backend replica_id (fun ~src env -> route t ~src env));
  t

let deliver t ~dag_id ~src payload = route t ~src { dag_id; payload }

let start t =
  Array.iteri
    (fun dag_id lane ->
      let delay = float_of_int dag_id *. t.cfg.Config.stagger_ms in
      match t.lane_env with
      | Some env ->
        (* Even an undelayed start is scheduled: Instance.start must run on
           the lane's own domain, not the caller's. *)
        ignore
          (Backend.schedule (env.le_backend dag_id) ~after:(Float.max 0.0 delay) (fun () ->
               Instance.start lane.instance))
      | None ->
        if delay <= 0.0 then Instance.start lane.instance
        else
          ignore
            (Backend.schedule t.backend ~after:delay (fun () -> Instance.start lane.instance)))
    t.lanes

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    Obs.incr_c t.c_crashes;
    Obs.event t.obs ~time:(Backend.now t.backend) (Trace.Replica_crashed { replica = t.id });
    Array.iter (fun lane -> Instance.crash lane.instance) t.lanes
  end

(* Newest locally durable checkpoint that still verifies against the
   committee: anything malformed or under-signed in the device is skipped,
   never trusted. *)
let latest_local_checkpoint t =
  match t.ck with
  | None -> None
  | Some m ->
    let committee = t.cfg.Config.committee in
    let quorum = Committee.quorum committee in
    List.fold_left
      (fun acc blob ->
        match
          Checkpoint.decode ~n:committee.Committee.n blob
        with
        | ck ->
          if
            Checkpoint.verify ~keys:committee.Committee.keys ~quorum ck
            && match acc with Some prev -> Checkpoint.seq ck > Checkpoint.seq prev | None -> true
          then Some ck
          else acc
        | exception Shoalpp_codec.Wire.Reader.Malformed _ -> acc)
      None (Wal.entries m.ck_wal)

(* Restart after a crash: rebuild every lane from scratch, rewind to the
   newest certified checkpoint (if any), then replay the retained WAL
   entries through the fresh instances. Replay reconstructs the DAG stores,
   the vote-once table (so we cannot double-vote positions we voted before
   the crash), and — via the drivers — the committed suffix, which is a
   pure function of the replayed DAG above the checkpoint. Sends are muted
   while [replaying] is set. With peers and a checkpoint manager, recovery
   then pulls the missed history via the sync protocol; instances resume
   lane-by-lane as their catch-up completes and [on_caught_up] fires once
   all lanes are live. [wipe] simulates total disk loss: both WAL devices
   are cleared and the replica adopts a peer's certified checkpoint before
   syncing. *)
let recover ?(wipe = false) t =
  if t.crashed then begin
    t.crashed <- false;
    t.next_lane <- 0;
    t.global_seq <- 0;
    t.base_seq <- 0;
    if wipe then Wal.clear t.wal;
    (match t.ck with
    | Some m ->
      if wipe then begin
        Wal.clear m.ck_wal;
        m.ck_latest <- None;
        m.ck_main_marks <- []
      end;
      (* Vote state never survives a restart; the running digest restarts
         from zero (or from the restored checkpoint's state below). *)
      m.ck_candidate <- None;
      Hashtbl.reset m.ck_votes;
      m.ck_state <- Digest32.zero;
      Array.fill m.ck_lane_latest 0 (Array.length m.ck_lane_latest) None
    | None -> ());
    t.lanes <- Array.init t.cfg.Config.num_dags (fun dag_id -> make_lane t dag_id);
    let ck = if wipe then None else latest_local_checkpoint t in
    (match (t.ck, ck) with Some m, Some ck -> ck_restore_from t m ck | _ -> ());
    Obs.incr_c t.c_recoveries;
    match t.ck with
    | Some _ when Backend.n t.backend > 1 ->
      (* Probe a peer for its newest certified checkpoint before replaying:
         peers prune below their own checkpoints, so a restart longer than
         the retained sync window is only bridgeable from an adopted
         (newer) frontier. Replay and catch-up follow in [finish_recovery]
         once the probe resolves. *)
      t.catching_up <- true;
      t.ck_fetch_attempt <- 0;
      ck_request_checkpoint t
    | _ ->
      let replayed = replay_wal t in
      Obs.event t.obs ~time:(Backend.now t.backend)
        (Trace.Replica_recovered { replica = t.id; replayed });
      Array.iter (fun lane -> Instance.resume lane.instance) t.lanes;
      (match t.on_caught_up with Some f -> f () | None -> ())
  end

let replica_id t = t.id
let config t = t.cfg
let log_length t = t.global_seq
let txns_ordered t = t.txns_ordered
let driver_stats t = Array.to_list (Array.map (fun lane -> Driver.stats lane.driver) t.lanes)
let store t ~dag_id = t.lanes.(dag_id).store
let driver t ~dag_id = t.lanes.(dag_id).driver

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
let pending_segments t = Array.fold_left (fun acc lane -> acc + Queue.length lane.ready) 0 t.lanes
let base_seq t = t.base_seq
let catching_up t = t.catching_up
let latest_checkpoint t = match t.ck with Some m -> m.ck_latest | None -> None
let checkpoint_wal t = Option.map (fun m -> m.ck_wal) t.ck

let sync_stats t =
  Array.fold_left
    (fun (reqs, certs) lane ->
      match lane.sync_client with
      | Some c -> (reqs + Sync.Client.requests_sent c, certs + Sync.Client.certs_ingested c)
      | None -> (reqs, certs))
    (0, 0) t.lanes

let sync_requests_served t =
  Array.fold_left (fun acc lane -> acc + Sync.Server.requests_served lane.server) 0 t.lanes
