(** The Alg. 3 merge of the k lanes' committed segments into one total
    order, one anchor round at a time: round r's output of lane 0, then
    of lane 1, ..., lane k-1, then round r+1.

    A lane's output for a round is the run of its segments with that
    anchor round, ended by the one that {!Shoalpp_consensus.Driver.segment.closes}
    the round, or by the lane's first segment of a higher round (the lane
    closed the round implicitly: an empty candidate vector, or a [Skip_to]
    above it). The merge waits only where it must: for a lane that has
    committed nothing that decides the cursor's round yet.

    Why per round, not per segment: a multi-anchor round commits up to n
    segments per lane in one burst. Taking one segment per lane per cycle
    would hold most of lane 0's burst until the staggered lanes commit
    their matching segments; taking whole rounds lets it through as soon
    as the lower lanes have closed the same round.

    Invariants:
    - the merged sequence is a function of the per-lane segment streams
      alone, whatever order their segments arrive in across lanes;
    - it is round-major: ascending (anchor round, lane), each lane's
      segments in their commit order;
    - with one lane it is that lane's stream, unchanged;
    - [on_round r] runs exactly once per round r the cursor passes, in
      ascending r, inside a [pop] after the one that returned round r's
      last segment and before any segment of a higher round is returned;
    - a segment of a round below the cursor's (which no lane's driver
      emits) is merged as it comes, never held. *)

type t

val create : lanes:int -> t
(** An empty merge over [lanes] lanes, its cursor at (round 0, lane 0). *)

val push : t -> Shoalpp_consensus.Driver.segment -> unit
(** Queue a segment its lane's driver committed, at the back of lane
    [segment.dag_id]. *)

val pop : t -> on_round:(int -> unit) -> Shoalpp_consensus.Driver.segment option
(** The next segment of the merged order, or [None] while the lane under
    the cursor has nothing queued. Calls [on_round r] each time the
    cursor leaves round r behind: a caller that pops until [None] sees
    each round's end as soon as its last segment has been taken in. *)

val restart : t -> round:int -> unit
(** Drop every queued segment and put the cursor at (round [round],
    lane 0): a replica that restores a checkpoint whose lanes all closed
    round r resumes at [~round:(r + 1)]; a fresh one at round 0. *)

val pending : t -> int
(** Segments queued and not yet merged. *)
