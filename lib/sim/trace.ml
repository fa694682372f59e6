(* Typed in-memory event tracing.

   Events carry a structured [kind] (commit-path attribution: which rule
   fired, which round, which DAG instance) instead of pre-rendered strings,
   so exporters and tests can consume them without parsing. *)

type kind =
  | Proposal_created of { round : int; txns : int }
  | Vote_cast of { round : int; author : int }
  | Cert_formed of { round : int; author : int }
  | Cert_received of { round : int; author : int }
  | Anchor_direct_fast of { round : int; anchor : int }
  | Anchor_direct_certified of { round : int; anchor : int }
  | Anchor_indirect of { round : int; anchor : int }
  | Anchor_skipped of { round : int; anchor : int }
  | Segment_committed of { round : int; anchor : int; nodes : int }
  | Segment_interleaved of { global_seq : int; round : int; anchor : int; txns : int }
  | Timeout_fired of { round : int }
  | Fetch_requested of { round : int; author : int }
  | Gc_pruned of { below : int }
  | Partition_opened of { groups : string }
  | Partition_healed of { groups : string }
  | Replica_crashed of { replica : int }
  | Replica_recovered of { replica : int; replayed : int }
  | Checkpoint_certified of { seq : int; signers : int }
  | Sync_started of { replica : int; from_round : int }
  | Sync_completed of { replica : int; certs : int; requests : int }
  | Equivocation_sent of { round : int }
  | Anchor_withheld of { round : int }
  | Votes_delayed of { round : int; delay_ms : int }
  | Custom of { tag : string; detail : string }

let tag = function
  | Proposal_created _ -> "proposal_created"
  | Vote_cast _ -> "vote_cast"
  | Cert_formed _ -> "cert_formed"
  | Cert_received _ -> "cert_received"
  | Anchor_direct_fast _ -> "anchor_direct_fast"
  | Anchor_direct_certified _ -> "anchor_direct_certified"
  | Anchor_indirect _ -> "anchor_indirect"
  | Anchor_skipped _ -> "anchor_skipped"
  | Segment_committed _ -> "segment_committed"
  | Segment_interleaved _ -> "segment_interleaved"
  | Timeout_fired _ -> "timeout_fired"
  | Fetch_requested _ -> "fetch_requested"
  | Gc_pruned _ -> "gc_pruned"
  | Partition_opened _ -> "partition_opened"
  | Partition_healed _ -> "partition_healed"
  | Replica_crashed _ -> "replica_crashed"
  | Replica_recovered _ -> "replica_recovered"
  | Checkpoint_certified _ -> "checkpoint_certified"
  | Sync_started _ -> "sync_started"
  | Sync_completed _ -> "sync_completed"
  | Equivocation_sent _ -> "equivocation_sent"
  | Anchor_withheld _ -> "anchor_withheld"
  | Votes_delayed _ -> "votes_delayed"
  | Custom { tag; _ } -> tag

type field = I of int | S of string

let fields = function
  | Proposal_created { round; txns } -> [ ("round", I round); ("txns", I txns) ]
  | Vote_cast { round; author }
  | Cert_formed { round; author }
  | Cert_received { round; author }
  | Fetch_requested { round; author } -> [ ("round", I round); ("author", I author) ]
  | Anchor_direct_fast { round; anchor }
  | Anchor_direct_certified { round; anchor }
  | Anchor_indirect { round; anchor }
  | Anchor_skipped { round; anchor } -> [ ("round", I round); ("anchor", I anchor) ]
  | Segment_committed { round; anchor; nodes } ->
    [ ("round", I round); ("anchor", I anchor); ("nodes", I nodes) ]
  | Segment_interleaved { global_seq; round; anchor; txns } ->
    [ ("seq", I global_seq); ("round", I round); ("anchor", I anchor); ("txns", I txns) ]
  | Timeout_fired { round } -> [ ("round", I round) ]
  | Gc_pruned { below } -> [ ("below", I below) ]
  | Partition_opened { groups } | Partition_healed { groups } -> [ ("groups", S groups) ]
  | Replica_crashed { replica } -> [ ("replica", I replica) ]
  | Replica_recovered { replica; replayed } ->
    [ ("replica", I replica); ("replayed", I replayed) ]
  | Checkpoint_certified { seq; signers } -> [ ("seq", I seq); ("signers", I signers) ]
  | Sync_started { replica; from_round } ->
    [ ("replica", I replica); ("from_round", I from_round) ]
  | Sync_completed { replica; certs; requests } ->
    [ ("replica", I replica); ("certs", I certs); ("requests", I requests) ]
  | Equivocation_sent { round } | Anchor_withheld { round } -> [ ("round", I round) ]
  | Votes_delayed { round; delay_ms } -> [ ("round", I round); ("delay_ms", I delay_ms) ]
  | Custom { detail; _ } -> [ ("detail", S detail) ]

(* Inverse of [tag] + [fields]; used by exporters' round-trip decoding. *)
let kind_of_fields ~tag:t fs =
  let int k = match List.assoc_opt k fs with Some (I v) -> Some v | _ -> None in
  let str k = match List.assoc_opt k fs with Some (S v) -> Some v | _ -> None in
  let ( let* ) = Option.bind in
  match t with
  | "proposal_created" ->
    let* round = int "round" in
    let* txns = int "txns" in
    Some (Proposal_created { round; txns })
  | "vote_cast" | "cert_formed" | "cert_received" | "fetch_requested" ->
    let* round = int "round" in
    let* author = int "author" in
    Some
      (match t with
      | "vote_cast" -> Vote_cast { round; author }
      | "cert_formed" -> Cert_formed { round; author }
      | "cert_received" -> Cert_received { round; author }
      | _ -> Fetch_requested { round; author })
  | "anchor_direct_fast" | "anchor_direct_certified" | "anchor_indirect" | "anchor_skipped" ->
    let* round = int "round" in
    let* anchor = int "anchor" in
    Some
      (match t with
      | "anchor_direct_fast" -> Anchor_direct_fast { round; anchor }
      | "anchor_direct_certified" -> Anchor_direct_certified { round; anchor }
      | "anchor_indirect" -> Anchor_indirect { round; anchor }
      | _ -> Anchor_skipped { round; anchor })
  | "segment_committed" ->
    let* round = int "round" in
    let* anchor = int "anchor" in
    let* nodes = int "nodes" in
    Some (Segment_committed { round; anchor; nodes })
  | "segment_interleaved" ->
    let* global_seq = int "seq" in
    let* round = int "round" in
    let* anchor = int "anchor" in
    let* txns = int "txns" in
    Some (Segment_interleaved { global_seq; round; anchor; txns })
  | "timeout_fired" ->
    let* round = int "round" in
    Some (Timeout_fired { round })
  | "gc_pruned" ->
    let* below = int "below" in
    Some (Gc_pruned { below })
  | "partition_opened" | "partition_healed" ->
    let* groups = str "groups" in
    Some
      (if t = "partition_opened" then Partition_opened { groups }
       else Partition_healed { groups })
  | "replica_crashed" ->
    let* replica = int "replica" in
    Some (Replica_crashed { replica })
  | "replica_recovered" ->
    let* replica = int "replica" in
    let* replayed = int "replayed" in
    Some (Replica_recovered { replica; replayed })
  | "checkpoint_certified" ->
    let* seq = int "seq" in
    let* signers = int "signers" in
    Some (Checkpoint_certified { seq; signers })
  | "sync_started" ->
    let* replica = int "replica" in
    let* from_round = int "from_round" in
    Some (Sync_started { replica; from_round })
  | "sync_completed" ->
    let* replica = int "replica" in
    let* certs = int "certs" in
    let* requests = int "requests" in
    Some (Sync_completed { replica; certs; requests })
  | "equivocation_sent" | "anchor_withheld" ->
    let* round = int "round" in
    Some
      (if t = "equivocation_sent" then Equivocation_sent { round }
       else Anchor_withheld { round })
  | "votes_delayed" ->
    let* round = int "round" in
    let* delay_ms = int "delay_ms" in
    Some (Votes_delayed { round; delay_ms })
  | tag ->
    let detail = Option.value ~default:"" (str "detail") in
    Some (Custom { tag; detail })

type event = { time : float; replica : int; instance : int; kind : kind }

type t = {
  enabled : bool;
  capacity : int;
  buf : event option array;
  mutable next : int;
  mutable total : int;
}

let create ?(enabled = false) ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  { enabled; capacity; buf = Array.make capacity None; next = 0; total = 0 }

let enabled t = t.enabled

let record_event t ~time ~replica ?(instance = 0) kind =
  if t.enabled then begin
    t.buf.(t.next) <- Some { time; replica; instance; kind };
    t.next <- (t.next + 1) mod t.capacity;
    t.total <- t.total + 1
  end

(* Only the last [capacity] events are retained; older ones are dropped
   (see [dropped]). Walk exactly the retained window, oldest first. *)
let events t =
  let retained = min t.total t.capacity in
  let start = (t.next - retained + t.capacity) mod t.capacity in
  List.init retained (fun i ->
      match t.buf.((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false (* within the retained window *))

let count t = t.total
let retained t = min t.total t.capacity
let dropped t = max 0 (t.total - t.capacity)
