(** Typed in-memory event tracing.

    Disabled traces cost one branch per call, so protocol code can trace
    freely. Enabled traces retain the most recent [capacity] events for
    post-mortem inspection, export and tests; older events are dropped
    (see {!dropped}).

    Events carry a structured {!kind} — the commit-path taxonomy of the
    paper's latency accounting — rather than pre-rendered strings, so the
    JSONL / Chrome-trace exporters and tests consume them without parsing.

    Invariants:
    - recording never drops silently: when the ring is full the oldest
      event is evicted and {!dropped} is incremented, so
      [recorded = retained + dropped] always holds;
    - retained events are returned oldest first, in recording order;
    - [kind_of_fields (tag k) (fields k)] round-trips every non-[Custom]
      kind, which is what keeps the JSONL export lossless. *)

(** Event taxonomy. [instance] on the event identifies the parallel DAG
    (Shoal++ runs k staggered instances); [anchor]/[author] are replica
    indices. *)
type kind =
  | Proposal_created of { round : int; txns : int }
  | Vote_cast of { round : int; author : int }
  | Cert_formed of { round : int; author : int }
  | Cert_received of { round : int; author : int }
  | Anchor_direct_fast of { round : int; anchor : int }
      (** §5.1 fast rule: 2f+1 round r+1 proposals reference the anchor *)
  | Anchor_direct_certified of { round : int; anchor : int }
      (** Bullshark direct rule: f+1 certified children *)
  | Anchor_indirect of { round : int; anchor : int }
  | Anchor_skipped of { round : int; anchor : int }
  | Segment_committed of { round : int; anchor : int; nodes : int }
  | Segment_interleaved of { global_seq : int; round : int; anchor : int; txns : int }
      (** a committed segment entered the round-major global log (Alg. 3) *)
  | Timeout_fired of { round : int }
  | Fetch_requested of { round : int; author : int }
  | Gc_pruned of { below : int }
  | Partition_opened of { groups : string }
      (** a scheduled partition became active; [groups] renders the split *)
  | Partition_healed of { groups : string }
  | Replica_crashed of { replica : int }
  | Replica_recovered of { replica : int; replayed : int }
      (** restart finished; [replayed] WAL entries were re-applied *)
  | Checkpoint_certified of { seq : int; signers : int }
      (** a quorum certified the checkpoint ending at global seq [seq] *)
  | Sync_started of { replica : int; from_round : int }
      (** a recovering replica began pulling certified history from peers *)
  | Sync_completed of { replica : int; certs : int; requests : int }
      (** catch-up done: [certs] ingested across [requests] sync requests *)
  | Equivocation_sent of { round : int }
      (** a Byzantine replica sent conflicting proposals for [round] *)
  | Anchor_withheld of { round : int }
      (** a Byzantine replica suppressed its own proposal for [round] *)
  | Votes_delayed of { round : int; delay_ms : int }
  | Custom of { tag : string; detail : string }
      (** what {!kind_of_fields} decodes an unknown tag to *)

val tag : kind -> string
(** Stable snake_case name of the variant ([Custom] returns its tag). *)

(** Structured field view for exporters; [kind_of_fields] inverts it
    (unknown tags decode as [Custom]). *)
type field = I of int | S of string

val fields : kind -> (string * field) list
val kind_of_fields : tag:string -> (string * field) list -> kind option

type event = { time : float; replica : int; instance : int; kind : kind }

type t

val create : ?enabled:bool -> ?capacity:int -> unit -> t
val enabled : t -> bool

val record_event : t -> time:float -> replica:int -> ?instance:int -> kind -> unit

val events : t -> event list
(** Oldest first; exactly the retained window (the last
    [min count capacity] events). *)

val count : t -> int
(** Total events recorded, including dropped ones. *)

val retained : t -> int
val dropped : t -> int
(** [count - retained]: events evicted by ring-buffer wraparound. *)
