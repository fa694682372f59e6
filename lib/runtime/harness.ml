module Backend = Shoalpp_backend.Backend
module Replica = Shoalpp_core.Replica
module Driver = Shoalpp_consensus.Driver
module Mempool = Shoalpp_workload.Mempool
module Client = Shoalpp_workload.Client
module Transaction = Shoalpp_workload.Transaction
module Batch = Shoalpp_workload.Batch
module Types = Shoalpp_dag.Types
module Telemetry = Shoalpp_support.Telemetry

(* Anchor identity of one ordered segment — what the audit compares across
   replicas (node sets differ only transiently). *)
type seg_id = { sdag : int; sround : int; sauthor : int }

let equal_seg a b =
  Int.equal a.sdag b.sdag && Int.equal a.sround b.sround && Int.equal a.sauthor b.sauthor

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
let prefixes_agree ~equal ?bases logs =
  let bases = match bases with Some b -> b | None -> Array.map (fun _ -> 0) logs in
  let top i = bases.(i) + Array.length logs.(i) in
  let consistent = ref true in
  for a = 0 to Array.length logs - 1 do
    for b = a + 1 to Array.length logs - 1 do
      for seq = max bases.(a) bases.(b) to min (top a) (top b) - 1 do
        if not (equal logs.(a).(seq - bases.(a)) logs.(b).(seq - bases.(b))) then
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
    consistent_prefixes = prefixes_agree ~equal:equal_seg ~bases logs;
    prefix_length = (if n = 0 then 0 else Array.fold_left min max_int tops);
    total_segments = Array.fold_left max 0 tops;
    duplicate_orders;
    recovery_prefix_ok = !recovery_ok;
    anchors_per_lane = lanes;
  }

type t = {
  backend : Replica.envelope Backend.t;
  num_dags : int;
  load_tps : float;
  tx_size : int;
  seed : int;
  track_logs : bool;
  client_env : int -> Backend.Clock.t * Backend.Timers.t * int ref * int;
  mutable replicas : Replica.t array;
  mempools : Mempool.t array;
  clients : Client.t option array;
  telemetry : Telemetry.t;
  ledger : Ledger.t; (* the one latency sink, fed from on_ordered *)
  logs : seg_id list ref array; (* newest first; only when track_logs *)
  ordered_seen : (int, unit) Hashtbl.t array; (* per-replica txn dedup *)
  recovering : bool array; (* replay/catch-up in progress: ledger/dedup muted *)
  (* Pre-crash (base seq, log snapshot) per recovered replica: the rebuilt
     log must extend it above the restored checkpoint. *)
  pre_recovery : (int * seg_id list) option array;
  mutable duplicate_orders : int;
}

let on_ordered t replica_id (o : Replica.ordered) =
  let seg = o.Replica.segment in
  if t.track_logs then begin
    let anchor = seg.Driver.anchor in
    t.logs.(replica_id) :=
      { sdag = seg.Driver.dag_id; sround = anchor.Types.ref_round; sauthor = anchor.Types.ref_author }
      :: !(t.logs.(replica_id))
  end;
  List.iter
    (fun (cn : Types.certified_node) ->
      let node = cn.Types.cn_node in
      let batch = node.Types.batch in
      List.iter
        (fun (tx : Transaction.t) ->
          if t.track_logs then begin
            if Hashtbl.mem t.ordered_seen.(replica_id) tx.Transaction.id then begin
              (* Replay/catch-up re-orders history by design; only a repeat
                 outside recovery is a safety violation. *)
              if not t.recovering.(replica_id) then t.duplicate_orders <- t.duplicate_orders + 1
            end
            else Hashtbl.replace t.ordered_seen.(replica_id) tx.Transaction.id ()
          end;
          if tx.Transaction.origin = replica_id && not t.recovering.(replica_id) then
            Ledger.record t.ledger
              {
                Ledger.le_tx = tx.Transaction.id;
                le_origin = replica_id;
                le_dag = seg.Driver.dag_id;
                le_rule = Ledger.rule_of_kind seg.Driver.kind;
                le_seq = o.Replica.global_seq;
                le_submitted = tx.Transaction.submitted_at;
                le_batched = batch.Batch.created_at;
                le_included = node.Types.created_at;
                le_committed = seg.Driver.committed_at;
                le_ordered = o.Replica.ordered_at;
              })
        batch.Batch.txns)
    seg.Driver.nodes

let create ~backend ~n ~num_dags ~load_tps ~tx_size ~seed ~warmup_ms ~track_logs ~telemetry
    ?client_env ~make_replica () =
  let next_id = ref 0 in
  let t =
    {
      backend;
      num_dags;
      load_tps;
      tx_size;
      seed;
      track_logs;
      client_env =
        (match client_env with
        | Some f -> f
        | None -> fun _ -> (backend.Backend.clock, backend.Backend.timers, next_id, 1));
      replicas = [||];
      mempools = Array.init n (fun _ -> Mempool.create ());
      clients = Array.make n None;
      telemetry;
      ledger = Ledger.create ~telemetry ~warmup_ms ~num_dags ();
      logs = Array.init n (fun _ -> ref []);
      ordered_seen = Array.init n (fun _ -> Hashtbl.create 256);
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
        make_replica i ~mempool:t.mempools.(i) ~on_ordered:(on_ordered t i)
          (* Recovery completion is asynchronous once peer catch-up sync is
             involved: the ledger and dedup stay muted until every lane is
             live. *)
          ~on_caught_up:(fun () -> t.recovering.(i) <- false));
  t

let backend t = t.backend
let replicas t = t.replicas
let telemetry t = t.telemetry
let ledger t = t.ledger
let recovering t i = t.recovering.(i)

let start_client t i =
  let rate_tps = t.load_tps /. float_of_int (Array.length t.replicas) in
  if rate_tps > 0.0 then begin
    let clock, timers, next_id, stride = t.client_env i in
    t.clients.(i) <-
      Some
        (Client.start ~clock ~timers ~mempool:t.mempools.(i) ~origin:i ~rate_tps
           ~tx_size:t.tx_size ~seed:(t.seed + i) ~next_id ~stride ())
  end

let stop_client t i =
  (match t.clients.(i) with Some c -> Client.stop c | None -> ());
  t.clients.(i) <- None

let stop_clients t = Array.iteri (fun i _ -> stop_client t i) t.clients

let crash t i =
  Replica.crash t.replicas.(i);
  stop_client t i

let recover ?wipe t i =
  (* The rebuilt log must re-derive everything ordered before the crash
     (above the restored checkpoint): snapshot it for the audit, then let
     replay + catch-up repopulate. [recovering] clears in the replica's
     on_caught_up callback — synchronously for a local-only recovery,
     after peer sync completes otherwise. *)
  t.pre_recovery.(i) <- Some (Replica.base_seq t.replicas.(i), !(t.logs.(i)));
  t.logs.(i) := [];
  Hashtbl.reset t.ordered_seen.(i);
  t.recovering.(i) <- true;
  Replica.recover ?wipe t.replicas.(i);
  start_client t i

let ordered_ids t ~replica =
  List.rev_map (fun s -> (s.sdag, s.sround, s.sauthor)) !(t.logs.(replica))

let audit t =
  let oldest_first l = Array.of_list (List.rev l) in
  audit_logs ~num_dags:t.num_dags
    ~logs:(Array.map (fun l -> oldest_first !l) t.logs)
    ~bases:(Array.map Replica.base_seq t.replicas)
    ~pre_recovery:(Array.map (Option.map (fun (base, l) -> (base, oldest_first l))) t.pre_recovery)
    ~duplicate_orders:t.duplicate_orders

let report t ~name ~duration_ms ~telemetry ~trace_dropped =
  let net_stats = Backend.stats t.backend in
  let sum f =
    Array.fold_left
      (fun acc r -> List.fold_left (fun acc s -> acc + f s) acc (Replica.driver_stats r))
      0 t.replicas
  in
  let submitted = Array.fold_left (fun acc m -> acc + Mempool.submitted m) 0 t.mempools in
  Report.make ~name ~n:(Array.length t.replicas) ~load_tps:t.load_tps ~duration_ms ~submitted
    ~ledger:t.ledger
    ~fast_commits:(sum (fun s -> s.Driver.fast_commits))
    ~direct_commits:(sum (fun s -> s.Driver.direct_commits))
    ~indirect_commits:(sum (fun s -> s.Driver.indirect_commits))
    ~skipped_anchors:(sum (fun s -> s.Driver.skipped_anchors))
    ~messages_sent:net_stats.Backend.Transport.sent
    ~messages_dropped:(net_stats.Backend.Transport.dropped + net_stats.Backend.Transport.partitioned)
    ~bytes_sent:net_stats.Backend.Transport.bytes ~telemetry ~trace_dropped ()
