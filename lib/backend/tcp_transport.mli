(** Length-prefixed TCP transport with per-peer write queues and lazy
    reconnect, for {!Backend_realtime}.

    Replica [i] listens on [host:(base_port + i)] ([base_port = 0] lets the
    kernel pick each port; read the result back with {!ports}). The
    messages it carries are complete {!Backend_realtime.Framing} frames — a
    4-byte big-endian body length, then [uint src] and the payload — built
    by the codec step above it ({!Backend_realtime.framed}), so one socket
    per (process, destination) suffices and the receiver learns the sender
    from the frame. The transport never encodes, decodes or re-frames: a
    sent frame is written as it is, and each received frame is copied once
    out of the read buffer and handed to the owner's handler.

    Two behaviours a real deployment needs and the loopbacks hide:

    - {b Write queues}: each peer's write queue holds the frame string
      itself, shared by every destination of a broadcast, and a queued
      frame is written at once while the kernel takes it. [TCP_NODELAY] is
      set so the kernel never holds a frame back (Nagle).
    - {b Lazy reconnect}: outbound connections are dialed non-blockingly on
      first use; a failed dial or torn-down stream drops the queued frames
      (counted in [stats.dropped]), doubles the peer's retry delay (10 ms
      base, 2 s cap), and a later send past the deadline re-dials. A
      restarted peer is re-adopted without the sender ever blocking.

    Invariants:
    - [send] never blocks and never invokes a message handler inline: all
      socket I/O happens on the executor's select loop;
    - per-(src, dst) frame order is preserved: the write queue is FIFO,
      the stream preserves byte order, and the decoder yields
      frames in stream order (order restarts on reconnect — frames lost to
      a teardown are dropped, never reordered);
    - outbound memory per peer is bounded (8 MiB); frames beyond the cap
      are dropped and counted. *)

type t

val create :
  Backend_realtime.t ->
  n:int ->
  ?base_port:int ->
  ?host:string ->
  unit ->
  t
(** Create listeners for all [n] replicas in this process.
    @raise Unix.Unix_error with [EADDRINUSE] when a fixed [base_port] range
    collides with another process — callers retry with a different base. *)

val transport : t -> string Backend.Transport.t
(** The {!Backend.Transport} view over frames: [send]/[broadcast] enqueue
    a {!Backend_realtime.Framing.frame} string, whose
    sender id is the one the receiver sees; [set_handler] registers the
    per-replica inbound dispatch, which receives each complete frame;
    [stats] counts frames and declared payload bytes. *)

val ports : t -> int array
(** Actual listening ports, resolved after bind (useful with
    [base_port = 0]). *)

type net_stats = {
  flushes : int;
      (** [write(2)] calls that moved bytes, partial writes included: a
          frame too large for the socket buffer takes several *)
  write_us : float;  (** wall time in [write(2)], refused ([EAGAIN]) calls included *)
  read_us : float;  (** wall time in [read(2)] *)
  deliver_us : float;
      (** wall time cutting read bytes into frames and running the owners'
          handlers (decode and protocol delivery) *)
  reconnects : int;
      (** successful dials that followed a failure or teardown *)
  dial_failures : int;  (** failed dials and mid-stream teardowns *)
}

val net_stats : t -> net_stats

val close_replica : t -> int -> unit
(** Test hook: close replica [i]'s listener and every connection it has
    accepted, as if its process died. Peers' next writes fail and enter
    backoff. *)

val reopen_replica : t -> int -> unit
(** Test hook: re-listen on replica [i]'s original port after
    {!close_replica}. Peers re-dial lazily once their backoff expires. *)

val shutdown : t -> unit
(** Close every listener, accepted connection and outbound connection. *)
