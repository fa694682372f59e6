module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Batch = Shoalpp_workload.Batch
module Backend = Shoalpp_backend.Backend
module Obs = Shoalpp_sim.Obs
module Trace = Shoalpp_sim.Trace
module Rng = Shoalpp_support.Rng

type wait_policy = Quorum_only | Anchors_or_timeout of float | All_or_timeout of float

type config = {
  committee : Committee.t;
  replica : int;
  dag_id : int;
  batch_cap : int;
  wait_policy : wait_policy;
  all_to_all_votes : bool;
  verify_signatures : bool;
  fetch_delay_ms : float;
  seed : int;
}

let default_config ~committee ~replica =
  {
    committee;
    replica;
    dag_id = 0;
    batch_cap = 500;
    wait_policy = All_or_timeout 600.0;
    all_to_all_votes = false;
    verify_signatures = true;
    fetch_delay_ms = 20.0;
    seed = 1;
  }

type callbacks = {
  broadcast : Types.message -> unit;
  send : dst:int -> Types.message -> unit;
  now : unit -> float;
  schedule : after:float -> (unit -> unit) -> Backend.timer;
  pull_batch : max:int -> Shoalpp_workload.Transaction.t list;
  anchors_of_round : int -> int list;
  persist : Types.message -> (unit -> unit) -> unit;
  on_proposal_noted : Types.node -> unit;
  on_certified : Types.certified_node -> unit;
  on_cert_meta : Types.node_ref -> unit;
}

(* Vote accumulation for this replica's own proposal of a round. *)
type vote_acc = {
  digest : Digest32.t;
  mutable sigs : (int * Signer.signature) list;
  mutable cert_done : bool;
}

type t = {
  cfg : config;
  cb : callbacks;
  store : Store.t;
  kp : Signer.keypair;
  rng : Rng.t;
  obs : Obs.t;
  c_proposals : Obs.Telemetry.counter option;
  c_votes : Obs.Telemetry.counter option;
  c_certs_formed : Obs.Telemetry.counter option;
  c_certs_received : Obs.Telemetry.counter option;
  c_timeouts : Obs.Telemetry.counter option;
  c_fetches : Obs.Telemetry.counter option;
  mutable alive : bool;
  mutable proposed_round : int;
  mutable round_started_at : float;
  mutable round_timer : Backend.timer option;
  mutable timeout_backoff : float; (* multiplier on the round timeout *)
  mutable lowest_round : int; (* GC horizon *)
  mutable table_low : int;
      (* no round- or position-keyed table below holds an entry under this
         round: GC walks the rounds from here to its new floor. It trails
         [lowest_round] only when an entry lands under the floor (an own
         proposal's late loopback). *)
  own_votes : (int, vote_acc) Hashtbl.t; (* by round *)
  (* Position-keyed tables below pack (round, author) into the int
     [round * n + author]: these are touched on every received message, and
     int keys make lookups allocation-free (tuple keys cost 3 words each). *)
  (* All-to-all mode: vote accumulators for every position. *)
  a2a_votes : (int, (Digest32.t, (int * Signer.signature) list ref) Hashtbl.t) Hashtbl.t;
  voted : (int, Digest32.t) Hashtbl.t; (* position -> digest voted *)
  data : Types.node Shoalpp_storage.Kvstore.t; (* proposals by digest *)
  data_rounds : (int, Digest32.t list) Hashtbl.t; (* round -> digests in [data] *)
  mutable data_low : int; (* no [data_rounds] entry under this round *)
  cert_meta : (int, Types.node_ref) Hashtbl.t;
  (* Certificates no node we have seen references yet — candidates for weak
     edges in our next proposal (DAG-Rider validity mechanism). *)
  unreferenced : (int, Types.node_ref) Hashtbl.t;
  certs_per_round : (int, int) Hashtbl.t;
  awaiting_data : (Digest32.t, Types.certificate) Hashtbl.t;
  (* Refs the consensus driver needs but whose certificates never reached us
     (e.g. the certificate broadcast itself was dropped). *)
  fetching_refs : (int, unit) Hashtbl.t;
  mutable proposals_made : int;
  mutable votes_cast : int;
  mutable certs_formed : int;
  mutable fetches_sent : int;
  mutable invalid_dropped : int;
}

let create ?(obs = Obs.none) cfg cb ~store =
  let obs = Obs.with_instance { obs with Obs.replica = cfg.replica } ~instance:cfg.dag_id in
  {
    cfg;
    cb;
    store;
    kp = Committee.keypair cfg.committee cfg.replica;
    rng = Rng.create (cfg.seed + (cfg.replica * 1009) + (cfg.dag_id * 31));
    obs;
    c_proposals = Obs.counter obs "dag.proposals";
    c_votes = Obs.counter obs "dag.votes";
    c_certs_formed = Obs.counter obs "dag.certs_formed";
    c_certs_received = Obs.counter obs "dag.certs_received";
    c_timeouts = Obs.counter obs "dag.timeouts";
    c_fetches = Obs.counter obs "dag.fetches";
    alive = true;
    proposed_round = -1;
    round_started_at = 0.0;
    round_timer = None;
    timeout_backoff = 1.0;
    lowest_round = 0;
    table_low = 0;
    own_votes = Hashtbl.create 32;
    a2a_votes = Hashtbl.create 64;
    voted = Hashtbl.create 256;
    data = Shoalpp_storage.Kvstore.create ();
    data_rounds = Hashtbl.create 32;
    data_low = 0;
    cert_meta = Hashtbl.create 256;
    unreferenced = Hashtbl.create 64;
    certs_per_round = Hashtbl.create 32;
    awaiting_data = Hashtbl.create 16;
    fetching_refs = Hashtbl.create 16;
    proposals_made = 0;
    votes_cast = 0;
    certs_formed = 0;
    fetches_sent = 0;
    invalid_dropped = 0;
  }

let proposed_round t = t.proposed_round
(* Packed position key; [pos_round] recovers the round from a key. *)
let pos t ~round ~author = (round * t.cfg.committee.Committee.n) + author
let pos_round t k = k / t.cfg.committee.Committee.n

let cert_known t ~round ~author = Hashtbl.mem t.cert_meta (pos t ~round ~author)
let cert_ref_at t ~round ~author = Hashtbl.find_opt t.cert_meta (pos t ~round ~author)
let certs_known_at t ~round = Option.value ~default:0 (Hashtbl.find_opt t.certs_per_round round)
let proposals_made t = t.proposals_made
let votes_cast t = t.votes_cast
let certs_formed t = t.certs_formed
let fetches_sent t = t.fetches_sent
let invalid_dropped t = t.invalid_dropped
let crash t = t.alive <- false

let quorum t = Committee.quorum t.cfg.committee

(* Keep a received proposal, indexed by round for GC. A fetched node may
   land under the current floor; the index walk still reaches it. *)
let put_data t (node : Types.node) =
  let digest = node.Types.digest and round = node.Types.round in
  if not (Shoalpp_storage.Kvstore.mem t.data digest) then begin
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.data_rounds round) in
    Hashtbl.replace t.data_rounds round (digest :: prev);
    if round < t.data_low then t.data_low <- round
  end;
  Shoalpp_storage.Kvstore.put t.data digest node

(* Drop proposal data for rounds below [floor]; returns entries dropped. *)
let prune_data t ~floor =
  let dropped = ref 0 in
  for round = t.data_low to floor - 1 do
    match Hashtbl.find_opt t.data_rounds round with
    | Some digests ->
      List.iter
        (fun d ->
          Shoalpp_storage.Kvstore.remove t.data d;
          incr dropped)
        digests;
      Hashtbl.remove t.data_rounds round
    | None -> ()
  done;
  if floor > t.data_low then t.data_low <- floor;
  !dropped

let mark_referenced t (node : Types.node) =
  let unref (p : Types.node_ref) =
    Hashtbl.remove t.unreferenced (pos t ~round:p.Types.ref_round ~author:p.Types.ref_author)
  in
  List.iter unref node.Types.parents;
  List.iter unref node.Types.weak_parents

(* ---------------------------------------------------------------- *)
(* Round advancement.                                                *)

let round_wait_satisfied t round =
  let have = certs_known_at t ~round in
  if have >= Store.n t.store then true
  else begin
    match t.cfg.wait_policy with
    | Quorum_only -> true
    | Anchors_or_timeout timeout ->
      (* Bullshark's liveness waits: an anchor round holds until the round's
         anchor certificate arrives; the following (voting) round holds
         until f+1 of its certificates reference the previous round's
         anchor — so the anchor can commit directly. Timeout bounds both. *)
      let anchors_present =
        List.for_all (fun a -> cert_known t ~round ~author:a) (t.cb.anchors_of_round round)
      in
      let votes_present =
        List.for_all
          (fun a ->
            Store.certified_refs t.store ~round:(round - 1) ~author:a
            >= Committee.weak_quorum t.cfg.committee)
          (if round = 0 then [] else t.cb.anchors_of_round (round - 1))
      in
      (anchors_present && votes_present) || t.cb.now () >= t.round_started_at +. timeout
    | All_or_timeout timeout -> t.cb.now () >= t.round_started_at +. timeout
  end

let rec propose t round =
  t.proposed_round <- round;
  t.round_started_at <- t.cb.now ();
  (* Progress: any successful proposal resets the adaptive backoff. *)
  t.timeout_backoff <- 1.0;
  (match t.round_timer with Some timer -> Backend.cancel timer | None -> ());
  t.round_timer <- None;
  let parents =
    if round = 0 then []
    else
      List.init (Store.n t.store) (fun a -> Hashtbl.find_opt t.cert_meta (pos t ~round:(round - 1) ~author:a))
      |> List.filter_map Fun.id
  in
  (* Weak edges: adopt certificates that nothing we have seen references,
     oldest first, so orphaned (slow replicas') nodes still get ordered. *)
  let weak_parents =
    if round < 2 then []
    else begin
      Hashtbl.fold
        (fun k node_ref acc -> if pos_round t k < round - 1 then node_ref :: acc else acc)
        t.unreferenced []
      |> List.sort Types.compare_ref
      |> List.filteri (fun i _ -> i < Types.max_weak_parents)
    end
  in
  List.iter
    (fun (p : Types.node_ref) ->
      Hashtbl.remove t.unreferenced (pos t ~round:p.Types.ref_round ~author:p.Types.ref_author))
    weak_parents;
  let txns = t.cb.pull_batch ~max:t.cfg.batch_cap in
  let created_at = t.cb.now () in
  let batch = Batch.make ~txns ~created_at in
  let digest =
    Types.node_digest ~round ~author:t.cfg.replica ~batch_digest:batch.Batch.digest ~parents
      ~weak_parents
  in
  let node =
    {
      Types.round;
      author = t.cfg.replica;
      batch;
      parents;
      weak_parents;
      digest;
      signature = Signer.sign t.kp (Digest32.raw digest);
      created_at;
    }
  in
  t.proposals_made <- t.proposals_made + 1;
  Obs.incr_c t.c_proposals;
  Obs.event t.obs ~time:created_at (Trace.Proposal_created { round; txns = List.length txns });
  (* Durably log own proposal (asynchronously; the local vote, like any
     other vote, is gated on persistence in handle_proposal). *)
  t.cb.broadcast (Types.Proposal node);
  (* Arm the round timeout so the wait policy re-fires even with no new
     certificate arrivals. *)
  match t.cfg.wait_policy with
  | Quorum_only -> ()
  | Anchors_or_timeout timeout | All_or_timeout timeout -> arm_round_timer t timeout

and arm_round_timer t timeout =
  t.round_timer <-
    Some
      (t.cb.schedule ~after:(timeout *. t.timeout_backoff) (fun () ->
           if t.alive then begin
             Obs.incr_c t.c_timeouts;
             Obs.event t.obs ~time:(t.cb.now ())
               (Trace.Timeout_fired { round = t.proposed_round });
             let before = t.proposed_round in
             maybe_advance t;
             (* Timeouts are routine under All_or_timeout (rounds close on
                the timer at low load), so backoff keys on stalling, not on
                firing: only when the timeout brings no progress at all —
                no certificate quorum, e.g. the minority side of a
                partition or repeated anchor misses — double the timer
                (capped) before re-arming, so a cut-off replica doesn't
                spin hot while the network is unreachable. *)
             if t.alive && t.proposed_round = before then begin
               t.timeout_backoff <- Float.min 8.0 (t.timeout_backoff *. 2.0);
               arm_round_timer t timeout
             end
           end))

and maybe_advance t =
  if t.alive && t.proposed_round >= 0 then begin
    (* Catch-up: find the highest round with a certificate quorum at or
       above our current round, then check its wait policy. *)
    let rec best r best_so_far =
      if r > Store.highest_round t.store + 1 && Hashtbl.find_opt t.certs_per_round r = None then
        best_so_far
      else begin
        let next = if certs_known_at t ~round:r >= quorum t then Some r else best_so_far in
        if r > t.proposed_round + 64 then next else best (r + 1) next
      end
    in
    match best t.proposed_round None with
    | Some r when r >= t.proposed_round && round_wait_satisfied t r -> propose t (r + 1)
    | _ -> ()
  end

(* ---------------------------------------------------------------- *)
(* Certified-node delivery.                                          *)

let try_deliver t (cert : Types.certificate) =
  let r = cert.Types.cert_ref in
  match Shoalpp_storage.Kvstore.get t.data r.Types.ref_digest with
  | Some node ->
    Hashtbl.remove t.awaiting_data r.Types.ref_digest;
    if Store.add_certified t.store { Types.cn_node = node; cn_cert = cert } then
      t.cb.on_certified { Types.cn_node = node; cn_cert = cert };
    true
  | None -> false

let rec arm_fetch t (cert : Types.certificate) =
  (* Off-critical-path fetch (§7): ask one of the f+1 correct signers that
     must hold the data; rotate targets on retry to balance load. *)
  ignore
    (t.cb.schedule ~after:t.cfg.fetch_delay_ms (fun () ->
         let digest = cert.Types.cert_ref.Types.ref_digest in
         if t.alive && Hashtbl.mem t.awaiting_data digest then
           if cert.Types.cert_ref.Types.ref_round < t.lowest_round then
             (* GC passed the round: its data is never needed again (and
                peers may have pruned it), so stop polling. *)
             Hashtbl.remove t.awaiting_data digest
           else begin
             let signers = Shoalpp_support.Bitset.to_list (Multisig.signers cert.Types.multisig) in
             let candidates = List.filter (fun s -> s <> t.cfg.replica) signers in
             (match candidates with
             | [] -> ()
             | _ ->
               let target = List.nth candidates (Rng.int t.rng (List.length candidates)) in
               t.fetches_sent <- t.fetches_sent + 1;
               Obs.incr_c t.c_fetches;
               t.cb.send ~dst:target
                 (Types.Fetch_request { wanted = cert.Types.cert_ref; requester = t.cfg.replica }));
             arm_fetch t cert
           end))

(* Recover a node we know only by reference (a parent edge of some received
   node): ask random peers until the certified node arrives. At least f+1
   correct replicas hold any certified node, so random polling terminates. *)
let fetch_missing t (wanted : Types.node_ref) =
  let key = pos t ~round:wanted.Types.ref_round ~author:wanted.Types.ref_author in
  if
    wanted.Types.ref_round >= t.lowest_round
    && (not (Hashtbl.mem t.cert_meta key))
    && not (Hashtbl.mem t.fetching_refs key)
  then begin
    Hashtbl.replace t.fetching_refs key ();
    Obs.event t.obs ~time:(t.cb.now ())
      (Trace.Fetch_requested { round = wanted.Types.ref_round; author = wanted.Types.ref_author });
    let rec attempt () =
      if
        t.alive
        && Hashtbl.mem t.fetching_refs key
        && (not (Hashtbl.mem t.cert_meta key))
        && wanted.Types.ref_round >= t.lowest_round
      then begin
        let n = t.cfg.committee.Committee.n in
        let dst = (t.cfg.replica + 1 + Rng.int t.rng (n - 1)) mod n in
        t.fetches_sent <- t.fetches_sent + 1;
        Obs.incr_c t.c_fetches;
        t.cb.send ~dst (Types.Fetch_request { wanted; requester = t.cfg.replica });
        ignore (t.cb.schedule ~after:(2.0 *. t.cfg.fetch_delay_ms) attempt)
      end
      else Hashtbl.remove t.fetching_refs key
    in
    ignore (t.cb.schedule ~after:t.cfg.fetch_delay_ms attempt)
  end

let accept_certificate t (cert : Types.certificate) =
  let r = cert.Types.cert_ref in
  let key = pos t ~round:r.Types.ref_round ~author:r.Types.ref_author in
  if (not (Hashtbl.mem t.cert_meta key)) && r.Types.ref_round >= t.lowest_round then begin
    Obs.incr_c t.c_certs_received;
    Hashtbl.replace t.cert_meta key r;
    Hashtbl.remove t.fetching_refs key;
    Hashtbl.replace t.unreferenced key r;
    Hashtbl.replace t.certs_per_round r.Types.ref_round (certs_known_at t ~round:r.Types.ref_round + 1);
    (* Persist the certificate (group-committed; does not gate progress). *)
    t.cb.persist (Types.Certificate cert) (fun () -> ());
    if not (try_deliver t cert) then begin
      Hashtbl.replace t.awaiting_data r.Types.ref_digest cert;
      arm_fetch t cert
    end;
    t.cb.on_cert_meta r;
    maybe_advance t
  end

(* ---------------------------------------------------------------- *)
(* Message handlers.                                                 *)

let handle_proposal t ~src (node : Types.node) =
  if src <> node.Types.author then t.invalid_dropped <- t.invalid_dropped + 1
  else begin
    match
      Validation.validate_proposal ~committee:t.cfg.committee
        ~verify_signatures:t.cfg.verify_signatures node
    with
    | Error _ -> t.invalid_dropped <- t.invalid_dropped + 1
    | Ok () ->
      if node.Types.round >= t.lowest_round then begin
        let key = pos t ~round:node.Types.round ~author:node.Types.author in
        put_data t node;
        mark_referenced t node;
        (* Weak votes: only the first proposal per (round, author). *)
        if Store.note_proposal t.store node then begin
          t.cb.on_proposal_noted node;
          (* Efficient fetching (§7): certified edges we have never seen the
             certificate for are recovered asynchronously, off the critical
             path — we vote regardless. *)
          List.iter
            (fun (p : Types.node_ref) ->
              if
                not
                  (Hashtbl.mem t.cert_meta
                     (pos t ~round:p.Types.ref_round ~author:p.Types.ref_author))
              then fetch_missing t p)
            node.Types.parents
        end;
        (* A certificate may have arrived before the data. *)
        (match Hashtbl.find_opt t.awaiting_data node.Types.digest with
        | Some cert -> ignore (try_deliver t cert)
        | None -> ());
        (* Vote at most once per position; equivocating second proposals
           are ignored (§3.1 step 2). The vote is externalized only after
           the proposal is durably persisted. *)
        if not (Hashtbl.mem t.voted key) then begin
          Hashtbl.replace t.voted key node.Types.digest;
          let preimage =
            Types.vote_preimage ~round:node.Types.round ~author:node.Types.author
              ~digest:node.Types.digest
          in
          let vote =
            {
              Types.vote_round = node.Types.round;
              vote_author = node.Types.author;
              vote_digest = node.Types.digest;
              voter = t.cfg.replica;
              vote_signature = Signer.sign t.kp preimage;
            }
          in
          t.cb.persist (Types.Proposal node) (fun () ->
              if t.alive then begin
                t.votes_cast <- t.votes_cast + 1;
                Obs.incr_c t.c_votes;
                if t.cfg.all_to_all_votes then t.cb.broadcast (Types.Vote vote)
                else t.cb.send ~dst:node.Types.author (Types.Vote vote)
              end)
        end
      end
  end

(* All-to-all certification (§5.4): every replica aggregates every
   position's certificate locally from broadcast votes — no certificate
   forwarding step, saving one message delay per round. *)
let handle_vote_a2a t (v : Types.vote) =
  let key = pos t ~round:v.Types.vote_round ~author:v.Types.vote_author in
  if (not (Hashtbl.mem t.cert_meta key)) && v.Types.vote_round >= t.lowest_round then begin
    match
      Validation.validate_vote ~committee:t.cfg.committee
        ~verify_signatures:t.cfg.verify_signatures v
    with
    | Error _ -> t.invalid_dropped <- t.invalid_dropped + 1
    | Ok () ->
      let per_pos =
        match Hashtbl.find_opt t.a2a_votes key with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 4 in
          Hashtbl.replace t.a2a_votes key h;
          h
      in
      let sigs =
        match Hashtbl.find_opt per_pos v.Types.vote_digest with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace per_pos v.Types.vote_digest l;
          l
      in
      if not (List.mem_assoc v.Types.voter !sigs) then begin
        sigs := (v.Types.voter, v.Types.vote_signature) :: !sigs;
        if List.length !sigs >= quorum t then begin
          t.certs_formed <- t.certs_formed + 1;
          Obs.incr_c t.c_certs_formed;
          Obs.event t.obs ~time:(t.cb.now ())
            (Trace.Cert_formed { round = v.Types.vote_round; author = v.Types.vote_author });
          Hashtbl.remove t.a2a_votes key;
          let multisig = Multisig.aggregate ~n:t.cfg.committee.Committee.n !sigs in
          let cert_ref =
            {
              Types.ref_round = v.Types.vote_round;
              ref_author = v.Types.vote_author;
              ref_digest = v.Types.vote_digest;
            }
          in
          accept_certificate t { Types.cert_ref; multisig }
        end
      end
  end

let handle_vote t (v : Types.vote) =
  if t.cfg.all_to_all_votes then handle_vote_a2a t v
  else if v.Types.vote_author = t.cfg.replica then begin
    match
      Validation.validate_vote ~committee:t.cfg.committee
        ~verify_signatures:t.cfg.verify_signatures v
    with
    | Error _ -> t.invalid_dropped <- t.invalid_dropped + 1
    | Ok () -> (
      match Hashtbl.find_opt t.own_votes v.Types.vote_round with
      | Some acc
        when Digest32.equal acc.digest v.Types.vote_digest
             && (not acc.cert_done)
             && not (List.mem_assoc v.Types.voter acc.sigs) ->
        acc.sigs <- (v.Types.voter, v.Types.vote_signature) :: acc.sigs;
        if List.length acc.sigs >= quorum t then begin
          acc.cert_done <- true;
          t.certs_formed <- t.certs_formed + 1;
          Obs.incr_c t.c_certs_formed;
          Obs.event t.obs ~time:(t.cb.now ())
            (Trace.Cert_formed { round = v.Types.vote_round; author = t.cfg.replica });
          let multisig = Multisig.aggregate ~n:t.cfg.committee.Committee.n acc.sigs in
          let cert_ref =
            {
              Types.ref_round = v.Types.vote_round;
              ref_author = t.cfg.replica;
              ref_digest = acc.digest;
            }
          in
          t.cb.broadcast (Types.Certificate { Types.cert_ref; multisig })
        end
      | _ -> ())
  end

let handle_certificate t (cert : Types.certificate) =
  match
    Validation.validate_certificate ~committee:t.cfg.committee
      ~verify_signatures:t.cfg.verify_signatures cert
  with
  | Error _ -> t.invalid_dropped <- t.invalid_dropped + 1
  | Ok () -> accept_certificate t cert

let handle_fetch_request t ~src (wanted : Types.node_ref) =
  (* A zero digest means "whatever certified node sits at this position" —
     used when the requester never received the certificate at all. The
     certified DAG has at most one node per position, so this is safe, and
     the requester validates the response's certificate anyway. *)
  let found =
    if Digest32.equal wanted.Types.ref_digest Digest32.zero then
      Store.get t.store ~round:wanted.Types.ref_round ~author:wanted.Types.ref_author
    else Store.get_by_ref t.store wanted
  in
  match found with
  | Some cn -> t.cb.send ~dst:src (Types.Fetch_response cn)
  | None -> ()

let handle_fetch_response t (cn : Types.certified_node) =
  match
    Validation.validate_certified_node ~committee:t.cfg.committee
      ~verify_signatures:t.cfg.verify_signatures cn
  with
  | Error _ -> t.invalid_dropped <- t.invalid_dropped + 1
  | Ok () ->
    let node = cn.Types.cn_node in
    put_data t node;
    mark_referenced t node;
    if Store.note_proposal t.store node then t.cb.on_proposal_noted node;
    accept_certificate t cn.Types.cn_cert;
    (match Hashtbl.find_opt t.awaiting_data node.Types.digest with
    | Some cert -> ignore (try_deliver t cert)
    | None -> ())

let handle_message t ~src msg =
  if t.alive then begin
    match msg with
    | Types.Proposal node ->
      handle_proposal t ~src node;
      (* The author votes for its own proposal like everyone else; register
         our vote accumulator when the loopback copy arrives. *)
      if node.Types.author = t.cfg.replica && not (Hashtbl.mem t.own_votes node.Types.round)
      then begin
        Hashtbl.replace t.own_votes node.Types.round
          { digest = node.Types.digest; sigs = []; cert_done = false };
        if node.Types.round < t.table_low then t.table_low <- node.Types.round
      end
    | Types.Vote v -> handle_vote t v
    | Types.Certificate c -> handle_certificate t c
    | Types.Fetch_request { wanted; requester } ->
      handle_fetch_request t ~src:requester wanted;
      ignore src
    | Types.Fetch_response cn -> handle_fetch_response t cn
    (* Control-plane traffic (checkpoint votes, catch-up sync) is routed by
       the replica's checkpoint/sync managers before the instance sees it;
       anything that slips through is dropped, not crashed on. *)
    | Types.Checkpoint_vote _ | Types.Sync_request _ | Types.Sync_response _ ->
      t.invalid_dropped <- t.invalid_dropped + 1
  end

let start t =
  if t.alive && t.proposed_round < 0 then propose t 0

(* Post-replay restart: propose strictly above everything the replayed WAL
   reconstructed — our own highest proposal voted on (the [voted] table is
   rebuilt by replay, so we cannot double-vote), any certificate round, and
   the store's highest certified round. An empty log resumes at round 0. *)
let resume t =
  if t.alive && t.proposed_round < 0 then begin
    let highest = Store.highest_round t.store in
    let highest =
      Hashtbl.fold
        (fun k _ acc ->
          if k mod t.cfg.committee.Committee.n = t.cfg.replica then max (pos_round t k) acc
          else acc)
        t.voted highest
    in
    let highest = Hashtbl.fold (fun k _ acc -> max (pos_round t k) acc) t.cert_meta highest in
    propose t (highest + 1)
  end

let timeout_backoff t = t.timeout_backoff

let ingest_certified t cn = if t.alive then handle_fetch_response t cn

let lowest_round t = t.lowest_round

let awaiting_data t = Hashtbl.length t.awaiting_data

let set_retain_gate t ~round =
  let swept = Store.set_retain_gate t.store ~round in
  if swept > 0 then begin
    let floor = Store.lowest_stored t.store in
    let pruned_data = prune_data t ~floor in
    Obs.incr ~by:swept t.obs "gc.pruned_vertices";
    Obs.incr ~by:pruned_data t.obs "gc.pruned_data";
    Obs.set t.obs "gc.retained_rounds"
      (float_of_int (max 0 (Store.highest_round t.store - floor + 1)))
  end

let gc_upto t ~round =
  if round > t.lowest_round then begin
    t.lowest_round <- round;
    Obs.event t.obs ~time:(t.cb.now ()) (Trace.Gc_pruned { below = round });
    let pruned_vertices = Store.prune_below t.store ~round in
    (* Proposal data deletes at the {e physical} floor, like the store: a
       checkpoint retain gate keeps rounds (with their batches, which the
       sync server ships whole) serveable after the logical floor has
       passed them. *)
    let floor = Store.lowest_stored t.store in
    let pruned_data = prune_data t ~floor in
    Obs.incr ~by:pruned_vertices t.obs "gc.pruned_vertices";
    Obs.incr ~by:pruned_data t.obs "gc.pruned_data";
    Obs.set t.obs "gc.floor" (float_of_int round);
    Obs.set t.obs "gc.retained_rounds"
      (float_of_int (max 0 (Store.highest_round t.store - floor + 1)));
    (* Every table below is keyed by round or by position: walk the rounds
       under the new floor instead of folding the tables. *)
    for r = t.table_low to round - 1 do
      for author = 0 to t.cfg.committee.Committee.n - 1 do
        let k = pos t ~round:r ~author in
        Hashtbl.remove t.cert_meta k;
        Hashtbl.remove t.unreferenced k;
        Hashtbl.remove t.voted k;
        Hashtbl.remove t.a2a_votes k
      done;
      Hashtbl.remove t.certs_per_round r;
      Hashtbl.remove t.own_votes r
    done;
    t.table_low <- round
  end
