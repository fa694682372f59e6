module Backend = Shoalpp_backend.Backend
module Replica = Shoalpp_core.Replica
module Driver = Shoalpp_consensus.Driver
module Anchors = Shoalpp_consensus.Anchors
module Mempool = Shoalpp_workload.Mempool
module Client = Shoalpp_workload.Client
module Transaction = Shoalpp_workload.Transaction
module Batch = Shoalpp_workload.Batch
module Types = Shoalpp_dag.Types
module Digest32 = Shoalpp_crypto.Digest32
module Telemetry = Shoalpp_support.Telemetry

(* Anchor identity of one ordered unit — what the audit compares across
   replicas (node sets differ only transiently). *)
type seg_id = { sdag : int; sround : int; sauthor : int; sdigest : Digest32.t }

let equal_seg a b =
  Int.equal a.sdag b.sdag && Int.equal a.sround b.sround && Int.equal a.sauthor b.sauthor
  && Digest32.equal a.sdigest b.sdigest

type batch = { batched_at : float; included_at : float; txns : Transaction.t list }

type commit = {
  anchor : seg_id;
  rule : Anchors.rule;
  seq : int;
  committed_at : float;
  ordered_at : float;
  batches : batch list;
}

let commit_of_segment (seg : Driver.segment) ~seq ~ordered_at =
  let a = seg.Driver.anchor in
  {
    anchor =
      {
        sdag = seg.Driver.dag_id;
        sround = a.Types.ref_round;
        sauthor = a.Types.ref_author;
        sdigest = a.Types.ref_digest;
      };
    rule = Ledger.rule_of_kind seg.Driver.kind;
    seq;
    committed_at = seg.Driver.committed_at;
    ordered_at;
    batches =
      List.map
        (fun (cn : Types.certified_node) ->
          let node = cn.Types.cn_node in
          let b = node.Types.batch in
          {
            batched_at = b.Batch.created_at;
            included_at = node.Types.created_at;
            txns = b.Batch.txns;
          })
        seg.Driver.nodes;
  }

let commit_of_ordered (o : Replica.ordered) =
  commit_of_segment o.Replica.segment ~seq:o.Replica.global_seq ~ordered_at:o.Replica.ordered_at

type commit_counts = { fast : int; direct : int; indirect : int; skipped : int }

let driver_counts stats =
  List.fold_left
    (fun c (s : Driver.stats) ->
      {
        fast = c.fast + s.Driver.fast_commits;
        direct = c.direct + s.Driver.direct_commits;
        indirect = c.indirect + s.Driver.indirect_commits;
        skipped = c.skipped + s.Driver.skipped_anchors;
      })
    { fast = 0; direct = 0; indirect = 0; skipped = 0 }
    stats

type 'r hooks = {
  start : 'r -> unit;
  crash : 'r -> unit;
  recover : 'r -> wipe:bool -> unit;
  replays_log : bool;
  base_seq : 'r -> int;
  commit_counts : 'r -> commit_counts;
}

let replica_hooks =
  {
    start = Replica.start;
    crash = Replica.crash;
    recover = (fun r ~wipe -> Replica.recover ~wipe r);
    replays_log = true;
    base_seq = Replica.base_seq;
    commit_counts = (fun r -> driver_counts (Replica.driver_stats r));
  }

type audit = {
  consistent_prefixes : bool;
  prefix_length : int;
  total_segments : int;
  duplicate_orders : int;
  recovery_prefix_ok : bool;
  anchors_per_lane : int array;
}

let ok a = a.consistent_prefixes && a.duplicate_orders = 0 && a.recovery_prefix_ok

(* A checkpoint-recovered replica's log starts at its base sequence, not 0,
   so every comparison runs in global-sequence coordinates: pairwise
   agreement is checked over each pair's overlapping seq range. *)
let prefixes_agree ~bases logs =
  let top i = bases.(i) + Array.length logs.(i) in
  let consistent = ref true in
  for a = 0 to Array.length logs - 1 do
    for b = a + 1 to Array.length logs - 1 do
      for seq = max bases.(a) bases.(b) to min (top a) (top b) - 1 do
        if not (equal_seg logs.(a).(seq - bases.(a)) logs.(b).(seq - bases.(b))) then
          consistent := false
      done
    done
  done;
  !consistent

let audit_logs ~num_dags ~logs ~bases ~pre_recovery ~duplicate_orders =
  let n = Array.length logs in
  let top i = bases.(i) + Array.length logs.(i) in
  (* Each recovered replica's rebuilt log must extend what it had ordered
     before the crash — replay + catch-up may not lose or reorder history.
     Entries below the post-recovery base were pruned under a certified
     checkpoint and are vouched for by its digest, not by replay. *)
  let recovery_ok = ref true in
  Array.iteri
    (fun i snapshot ->
      match snapshot with
      | None -> ()
      | Some (pre_base, pre) ->
        if top i < pre_base + Array.length pre then recovery_ok := false
        else
          Array.iteri
            (fun k s ->
              let seq = pre_base + k in
              if seq >= bases.(i) && not (equal_seg logs.(i).(seq - bases.(i)) s) then
                recovery_ok := false)
            pre)
    pre_recovery;
  let lanes = Array.make (max 1 num_dags) 0 in
  if n > 0 then
    Array.iter
      (fun s -> if s.sdag < Array.length lanes then lanes.(s.sdag) <- lanes.(s.sdag) + 1)
      logs.(0);
  let tops = Array.init n top in
  {
    consistent_prefixes = prefixes_agree ~bases logs;
    prefix_length = (if n = 0 then 0 else Array.fold_left min max_int tops);
    total_segments = Array.fold_left max 0 tops;
    duplicate_orders;
    recovery_prefix_ok = !recovery_ok;
    anchors_per_lane = lanes;
  }

(* One replica's set of ordered transaction ids: one bit per id. Client ids
   are dense — one shared counter, or disjoint stride-n counters in
   multicore mode — so the bits stay packed, and the array is a few
   unboxed blocks the major GC never has to walk entry by entry. It grows
   by doubling to cover the largest id seen. *)
module Seen = struct
  type t = { mutable bits : Bytes.t }

  let initial_bytes = 1024

  let create () = { bits = Bytes.make initial_bytes '\000' }

  (* Record [id]; true if it was already there. *)
  let mark t id =
    if id < 0 then invalid_arg "Harness.Seen.mark: negative id";
    let byte = id lsr 3 and bit = 1 lsl (id land 7) in
    let len = Bytes.length t.bits in
    if byte >= len then begin
      let grown = Bytes.make (max (2 * len) (byte + 1)) '\000' in
      Bytes.blit t.bits 0 grown 0 len;
      t.bits <- grown
    end;
    let cur = Bytes.get_uint8 t.bits byte in
    if cur land bit <> 0 then true
    else begin
      Bytes.set_uint8 t.bits byte (cur lor bit);
      false
    end

  let reset t = t.bits <- Bytes.make initial_bytes '\000'
end

type ('msg, 'r) t = {
  backend : 'msg Backend.t;
  hooks : 'r hooks;
  num_dags : int;
  load_tps : float;
  tx_size : int;
  seed : int;
  track_logs : bool;
  mutable replicas : 'r array;
  mempools : Mempool.t array;
  clients : Client.t option array;
  telemetry : Telemetry.t;
  ledger : Ledger.t; (* the one latency sink, fed from on_commit *)
  logs : seg_id list ref array; (* newest first; only when track_logs *)
  ordered_seen : Seen.t array; (* per-replica txn dedup *)
  recovering : bool array; (* replay/catch-up in progress: ledger/dedup muted *)
  (* Pre-crash (base seq, log snapshot) per recovered replica: the rebuilt
     log must extend it above the restored checkpoint. *)
  pre_recovery : (int * seg_id list) option array;
  mutable duplicate_orders : int;
}

let on_commit t replica_id (c : commit) =
  if t.track_logs then t.logs.(replica_id) := c.anchor :: !(t.logs.(replica_id));
  List.iter
    (fun b ->
      List.iter
        (fun (tx : Transaction.t) ->
          (* Replay/catch-up re-orders history by design; only a repeat
             outside recovery is a safety violation. *)
          if
            t.track_logs
            && Seen.mark t.ordered_seen.(replica_id) tx.Transaction.id
            && not t.recovering.(replica_id)
          then t.duplicate_orders <- t.duplicate_orders + 1;
          if tx.Transaction.origin = replica_id && not t.recovering.(replica_id) then
            Ledger.record t.ledger
              {
                Ledger.le_tx = tx.Transaction.id;
                le_origin = replica_id;
                le_dag = c.anchor.sdag;
                le_rule = c.rule;
                le_seq = c.seq;
                le_submitted = tx.Transaction.submitted_at;
                le_batched = b.batched_at;
                le_included = b.included_at;
                le_committed = c.committed_at;
                le_ordered = c.ordered_at;
              })
        b.txns)
    c.batches

let create ~backend ~n ~num_dags ~load_tps ~tx_size ~seed ~warmup_ms ~track_logs ~telemetry
    ?client_group ~hooks ~make_replica () =
  let group =
    match client_group with
    | Some f -> f
    | None ->
      let shared = Mempool.group ~clock:backend.Backend.clock () in
      fun _ -> shared
  in
  let t =
    {
      backend;
      hooks;
      num_dags;
      load_tps;
      tx_size;
      seed;
      track_logs;
      replicas = [||];
      mempools = Array.init n (fun i -> Mempool.create ~group:(group i) ());
      clients = Array.make n None;
      telemetry;
      ledger = Ledger.create ~telemetry ~warmup_ms ~num_dags ();
      logs = Array.init n (fun _ -> ref []);
      ordered_seen = Array.init n (fun _ -> Seen.create ());
      recovering = Array.make n false;
      pre_recovery = Array.make n None;
      duplicate_orders = 0;
    }
  in
  (* The sink closures capture [t] and mutate its counters, so the replicas
     are installed by mutation — a functional record copy here would leave
     the closures updating a dead record. *)
  t.replicas <-
    Array.init n (fun i ->
        make_replica i ~mempool:t.mempools.(i) ~on_commit:(on_commit t i)
          (* Recovery completion is asynchronous once peer catch-up sync is
             involved: the ledger and dedup stay muted until every lane is
             live. *)
          ~on_caught_up:(fun () -> t.recovering.(i) <- false));
  t

let backend t = t.backend
let replicas t = t.replicas
let hooks t = t.hooks
let telemetry t = t.telemetry
let ledger t = t.ledger
let recovering t i = t.recovering.(i)

let start_client t i =
  let rate_tps = t.load_tps /. float_of_int (Array.length t.replicas) in
  if rate_tps > 0.0 then
    t.clients.(i) <-
      Some
        (Client.start ~mempool:t.mempools.(i) ~origin:i ~rate_tps ~tx_size:t.tx_size
           ~seed:(t.seed + i) ())

let stop_client t i =
  (match t.clients.(i) with Some c -> Client.stop c | None -> ());
  t.clients.(i) <- None

let stop_clients t = Array.iteri (fun i _ -> stop_client t i) t.clients

let crash t i =
  t.hooks.crash t.replicas.(i);
  stop_client t i

let recover ?(wipe = false) t i =
  (* The rebuilt log must re-derive everything ordered before the crash
     (above the restored checkpoint): snapshot it for the audit, then let
     replay + catch-up repopulate. [recovering] clears in the replica's
     on_caught_up callback — synchronously for a local-only recovery,
     after peer sync completes otherwise. A warm resume keeps its log, so
     the snapshot is a prefix by construction. *)
  t.pre_recovery.(i) <- Some (t.hooks.base_seq t.replicas.(i), !(t.logs.(i)));
  if t.hooks.replays_log then begin
    t.logs.(i) := [];
    Seen.reset t.ordered_seen.(i);
    t.recovering.(i) <- true
  end;
  t.hooks.recover t.replicas.(i) ~wipe;
  start_client t i

let ordered_ids t ~replica =
  List.rev_map (fun s -> (s.sdag, s.sround, s.sauthor)) !(t.logs.(replica))

let audit t =
  let oldest_first l = Array.of_list (List.rev l) in
  audit_logs ~num_dags:t.num_dags
    ~logs:(Array.map (fun l -> oldest_first !l) t.logs)
    ~bases:(Array.map t.hooks.base_seq t.replicas)
    ~pre_recovery:(Array.map (Option.map (fun (base, l) -> (base, oldest_first l))) t.pre_recovery)
    ~duplicate_orders:t.duplicate_orders

let report t ~name ~duration_ms ~telemetry ~trace_dropped =
  let net_stats = Backend.stats t.backend in
  let counts = Array.map t.hooks.commit_counts t.replicas in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 counts in
  let submitted = Array.fold_left (fun acc m -> acc + Mempool.submitted m) 0 t.mempools in
  Report.make ~name ~n:(Array.length t.replicas) ~load_tps:t.load_tps ~duration_ms ~submitted
    ~ledger:t.ledger
    ~fast_commits:(sum (fun c -> c.fast))
    ~direct_commits:(sum (fun c -> c.direct))
    ~indirect_commits:(sum (fun c -> c.indirect))
    ~skipped_anchors:(sum (fun c -> c.skipped))
    ~messages_sent:net_stats.Backend.Transport.sent
    ~messages_dropped:(net_stats.Backend.Transport.dropped + net_stats.Backend.Transport.partitioned)
    ~bytes_sent:net_stats.Backend.Transport.bytes ~telemetry ~trace_dropped ()
