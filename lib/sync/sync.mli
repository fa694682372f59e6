(** Peer catch-up: a restarted replica adopts a peer's certified
    checkpoint and pulls the certified history it missed on every DAG lane,
    in O(gap) messages instead of replaying the whole log from genesis.

    Both halves are sans-I/O. {!Server} is a pure request -> response
    function over one lane's DAG store (plus a checkpoint provider);
    {!Client} is the replica's one catch-up loop, driven entirely through
    injected callbacks, so it runs identically under the deterministic
    simulator and the realtime transports, and unit tests can drive it
    synchronously. Checkpoint bytes reach the client only as
    [string option]: verifying and adopting them is the caller's.

    Protocol (one loop, two phases, one peer rotation):
    - adopt: ask peers in rotation for their newest certified checkpoint
      ([Get_checkpoint]) until the [adopt] hook accepts an answer, or 2n
      attempts have passed;
    - page: the [replay] hook rebuilds local state and names each lane's
      frontier; every lane then pages [Get_certificates_in_range] from it,
      handing each certificate to [ingest]. The first page of a lane is
      open-ended and carries the responder's highest round, to which the
      lane's later pages are pinned, so paging ends even while the
      cluster outruns it. A lane is done on its last page; the loop is
      done when every lane is. Message count: 1 checkpoint request plus
      ceil(gap / page) pages per lane (plus responses) — linear in the
      gap, independent of history length.

    Invariants:
    - each lane, and the adopt phase, has at most one outstanding request;
      a response either advances it (next page / done) or is ignored as
      stale, and every request is re-sent to the next peer of the one
      deterministic rotation after 400 ms of silence; a retry armed
      by an earlier request, or before an earlier {!Client.start}, sends
      nothing;
    - the server answers purely from the store's retained window and never
      mutates it; pages are whole rounds and the cursor is a round number,
      so pagination is valid across different responders;
    - re-ingesting a certificate already held is harmless (store insertion
      is idempotent), so duplicate or overlapping pages are safe. *)

module Server : sig
  type t

  val create :
    ?page:int ->
    store:Shoalpp_dag.Store.t ->
    checkpoint:(unit -> string option) ->
    unit ->
    t
  (** [page] (default 128) caps certificates per response page; a single
      round larger than the page is still served whole (progress). The
      [checkpoint] thunk supplies the latest certified checkpoint,
      wire-encoded, for [Get_checkpoint]. *)

  val handle : t -> Shoalpp_dag.Types.sync_request -> Shoalpp_dag.Types.sync_response
  (** A page starts at the store's physical floor if the request asks for
      less: rounds below it are vouched for by a certified checkpoint. *)

  val requests_served : t -> int
end

module Client : sig
  type hooks = {
    send : dst:int -> lane:int -> Shoalpp_dag.Types.sync_request -> unit;
        (** [Get_checkpoint] travels on lane 0 *)
    schedule : after:float -> (unit -> unit) -> unit;
    adopt : string option -> bool;
        (** a peer's checkpoint answer: true ends the adopt phase (the blob
            verified, adopted or not), false moves to the next peer *)
    replay : unit -> int array;
        (** the adopt phase is over: rebuild local state and return the
            round each lane pages from *)
    ingest : lane:int -> Shoalpp_dag.Types.certified_node -> unit;
        (** deliver one fetched certificate to that lane's DAG instance
            (validated there; idempotent on duplicates) *)
    on_caught_up : unit -> unit;
        (** every lane's last page arrived; once per {!start} *)
  }

  type t

  val create : n:int -> self:int -> lanes:int -> hooks -> t
  (** One client per replica of a committee of [n >= 2]. *)

  val start : t -> unit
  (** Begin (or, after another crash, restart) catching up: the adopt
      phase, then paging. Counters restart from 0. *)

  val handle_response : t -> lane:int -> Shoalpp_dag.Types.sync_response -> unit

  val active : t -> bool
  (** True from {!start} until [on_caught_up] fires. *)

  val requests_sent : t -> int
  (** Requests since {!start}, [Get_checkpoint] and retries included —
      the O(gap) assertion input. *)

  val certs_ingested : t -> int
end
