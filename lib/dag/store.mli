(** A replica's local view of one certified DAG.

    Everything is kept by position, (round, author): the certified node,
    the proposals seen there (certified or not, so a certificate finds its
    data whichever arrives first), and the two reference counters
    consensus needs in O(1):

    - {e certified references}: for position (r, a), how many {e certified}
      nodes of round r+1 list (r, a) among their parents — the input to
      Bullshark's Direct Commit rule (>= f+1);
    - {e weak votes}: how many round r+1 {e proposals} (first per author,
      certified or not) reference (r, a) — the input to Shoal++'s Fast
      Direct Commit rule (>= 2f+1), Alg. 2 of the paper.

    Certified nodes whose parents are not yet locally present are still
    inserted (certified edges guarantee availability; fetching is off the
    critical path, §7) — causal traversal reports which ancestors are
    missing so ordering can wait for / fetch exactly those.

    Invariants:
    - the certified-reference and weak-vote counters are maintained
      incrementally but always equal what a full recount would give;
    - causal-history traversal reports missing ancestors exactly, and
      returns nodes sorted by (round, author) under explicit [Int.compare]
      — never in table iteration order;
    - traversals ({!causal_history}, {!is_ancestor}, {!position_ancestor})
      visit each position at most once per call by writing a fresh
      generation stamp into its round slot: they allocate no visited table,
      create no slot, and answer exactly as a per-call visited set keyed by
      (round, author) would;
    - rounds are kept in an int-keyed table ([Int_tbl]) walked only by
      round number, never iterated;
    - a round slot holds at most one proposal per (author, digest): at
      most two per author, and two only under equivocation;
    - GC below round r removes only state strictly below r — certified
      nodes and proposals alike — and every slot below it, a slot opened
      under an earlier floor included, by walking the rounds from the
      lowest slot up, never the table. *)

type t

val create : n:int -> genesis_digest:Shoalpp_crypto.Digest32.t -> t
(** [n] = committee size. Round 0 nodes must reference the genesis digest as
    their sole virtual parent (handled by validation, not the store). *)

val n : t -> int

val add_certified : t -> Types.certified_node -> bool
(** Insert a certified node. Returns [false] (no-op) if the position was
    already filled — certified DAGs cannot have two nodes per position, so a
    duplicate is idempotent. Updates certified-reference counters. *)

val note_proposal : t -> Types.node -> bool
(** Keep a proposal in its round slot (a second copy of a stored digest
    replaces it) and count its weak votes if it is the first seen at its
    position. Returns [true] iff it was the first proposal seen from its
    author for its round (only first proposals count, Alg. 2 line 24).
    Does {e not} insert into the DAG. *)

val proposal : t -> Types.node_ref -> Types.node option
(** The stored proposal with the ref's position and digest, certified or
    not. *)

val get : t -> round:int -> author:int -> Types.certified_node option
val get_by_ref : t -> Types.node_ref -> Types.certified_node option
(** [get_by_ref] additionally checks the digest matches. *)

val mem_ref : t -> Types.node_ref -> bool
val nodes_at : t -> round:int -> Types.certified_node list
(** Ascending author order. *)

val count_at : t -> round:int -> int
val highest_round : t -> int
(** Highest round with at least one certified node; -1 when empty. *)

val certified_refs : t -> round:int -> author:int -> int
(** Certified round+1 nodes referencing (round, author). *)

val weak_votes : t -> round:int -> author:int -> int
(** Distinct round+1 proposals referencing (round, author). *)

val causal_history :
  t -> Types.node_ref -> skip:(Types.node_ref -> bool) -> (Types.certified_node list, Types.node_ref list) result
(** Deterministic linearization of the not-yet-ordered causal history of a
    node (the node itself last). [skip] marks already-ordered nodes, which
    cut off traversal. [Error missing] lists referenced ancestors not locally
    present (to be fetched) — ordering must wait.

    Order: ascending round, then ascending author — the same at every
    replica (Property 1 of the paper). *)

val is_ancestor : t -> ancestor:Types.node_ref -> of_:Types.node_ref -> bool
(** Reflexive causal reachability; [false] when data is missing along every
    path (conservative — caller ensures history is complete before relying
    on a negative answer for skips). *)

val position_ancestor : t -> round:int -> author:int -> of_:Types.node_ref -> bool
(** Like {!is_ancestor} but identifies the ancestor by DAG position only —
    anchors are positions, and a certified DAG has at most one node per
    position, so this is unambiguous. *)

val prune_below : t -> round:int -> int * int
(** Raise the logical GC floor to [round] — ordering and causal traversal
    ignore everything below it from this point on — and physically delete
    rounds below [min round gate] (below [round] when no retain gate is
    set). Returns the numbers of certified nodes and of proposals
    dropped. *)

val set_retain_gate : t -> round:int -> int * int
(** Install (or monotonically raise) the physical-deletion gate and sweep
    any rounds whose deletion it had deferred; returns the certified nodes
    and the proposals dropped.
    With the bounded-memory lifecycle on, the gate tracks the latest
    commit-certified checkpoint's resume floor, so rounds a catching-up
    peer may still request stay serveable even after the logical floor has
    passed them. Ordering never sees the gated window: determinism is a
    function of the logical floor only. *)

val lowest_retained : t -> int
(** The logical GC floor ({!prune_below}'s high-water mark). *)

val lowest_stored : t -> int
(** The physical floor: the lowest round still present in the tables
    (<= {!lowest_retained} when a retain gate defers deletion). *)
