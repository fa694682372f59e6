(** Leader (anchor) reputation, after Shoal / Carousel.

    The scheme must be a deterministic function of the committed prefix so
    that every correct replica computes the same eligible-anchor vectors
    (Property 3 of the paper). It is fed exactly the ordered segments, in
    order, and scores each author by how often it {e supports} committed
    anchors: an author earns credit when it is the anchor itself or the
    author of one of the anchor's strong parents (the nodes whose references
    commit the anchor). Well-connected, fast replicas are supporters nearly
    every segment; stragglers — whose nodes only enter histories late, via
    weak edges — earn nothing and drop out of the eligible vector until they
    become prompt again.

    With reputation disabled the vector is the plain round-robin rotation
    over all n authors — Bullshark's behaviour, which is what makes it
    suffer under crash faults (Fig 7).

    Invariants:
    - state depends only on the sequence of {!observe_segment} /
      {!observe_skip} calls — no clock, no randomness — so identical
      committed prefixes yield identical eligible vectors everywhere;
    - {!eligible} is never empty: before any observation, or when every
      author has gone stale, it falls back to the full round-robin vector;
    - a {!miss_threshold} streak of skipped anchors excludes an author, and
      supporting any later segment readmits it and resets the streak;
    - the window holds each of the last [window] segments' distinct
      in-range supporters, ascending, as the count-prefixed varint list
      {!write} emits for it, in a preallocated ring of fixed-size slots:
      observing or evicting a segment allocates nothing, and {!write}
      copies each slot's bytes. *)

type t

val create :
  n:int -> ?window:int -> ?staleness:int -> ?miss_threshold:int -> enabled:bool -> unit -> t
(** [window] = number of recent segments scored (default 64); [staleness] =
    rounds without supporting any anchor before exclusion (default 8);
    [miss_threshold] = consecutive anchor skips before exclusion
    (default 2 — a silent/withheld anchor leaves the eligible vector after
    two misses and re-enters once it supports a segment again). *)

val observe_segment :
  t -> anchor_round:int -> supporters:int list -> node_positions:(int * int) list -> unit
(** Feed one ordered segment, in commit order. [supporters] = the anchor's
    author plus the authors of its strong parents; [node_positions] = the
    (round, author) of every node the segment ordered (activity tracking). *)

val eligible : t -> round:int -> slot:int -> int list
(** Deterministic candidate vector for a round. [slot] drives round-robin
    rotation (callers pass the anchor-opportunity index, e.g. the round
    number, or round/2 for every-other-round schedules).

    Enabled: recently-supporting authors sorted by support score (desc, ties
    rotated by slot). Disabled: all n authors rotated by slot. Never empty —
    before any segment is observed, or if every author went stale, falls
    back to all authors. *)

val observe_skip : t -> round:int -> author:int -> unit
(** Feed one skipped anchor, in commit order. Skips are part of the agreed
    committed prefix (a [Skip_to] decision), so this input is identical at
    every correct replica; [miss_threshold] consecutive skips exclude the
    author from {!eligible} until it supports a segment again. *)

val miss_streak : t -> int -> int
(** Current consecutive skipped-anchor streak of an author. *)

val score : t -> int -> int
val is_active : t -> round:int -> int -> bool

type dump = {
  d_scores : int list;
  d_last_round : int list;
  d_last_support : int list;
  d_miss : int list;
  d_recent : int list list;
  d_highest_anchor_round : int;
}
(** Image of the full reputation state (bounded: n-sized arrays plus at
    most [window] supporter lists), for inspection. *)

val dump : t -> dump

val copy : t -> t
(** An independent copy: later {!observe_segment}s on either leave the
    other as it was, so a copy taken at a segment still {!write}s that
    segment's state. *)

val write : t -> Shoalpp_codec.Wire.Writer.t -> unit
(** Append the state's checkpoint encoding: the four n-sized arrays and the
    highest anchor round as count-prefixed varints shifted by one, and the
    window as a count of supporter lists, each count-prefixed and
    ascending. Each list's bytes were encoded when its segment was
    observed, so this costs O(n + window) appends, not one varint per
    supporter. *)

val read : t -> Shoalpp_codec.Wire.Reader.t -> unit
(** Inverse of {!write}: [read (create ...)] with matching [n]/[window]
    reproduces the written state exactly, so a checkpoint-restored replica
    computes the same eligible vectors as one that replayed the whole
    prefix.
    @raise Shoalpp_codec.Wire.Reader.Malformed on corrupt input, including
    more supporter lists than the window holds or a list that is not
    strictly ascending within [0, n). *)
