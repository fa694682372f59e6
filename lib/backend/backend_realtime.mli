(** Wall-clock executor behind {!Backend}.

    Runs the same protocol code as the simulator on real time: a timer
    wheel over a mutex-protected binary heap ({!Shoalpp_support.Heap}),
    a monotonic millisecond clock (clamped against system-clock steps),
    in-process loopback transports, a per-link delay shim, the
    length-prefixed {!Shoalpp_codec.Wire} framing the TCP transport
    ({!Tcp_transport}) speaks, and the codec step ({!framed}) that turns
    messages into those frames.

    Each executor's event loop is single-threaded: {!run_for} fires due
    timers in (due-time, scheduling-order) order and multiplexes socket
    readiness with [select] between them — one [select] per turn, over
    descriptor lists rebuilt only when a poller is added or removed. The
    loop's wake resolution is 1 ms, the granularity of the Tokio timers
    the paper's prototype runs on: a sleeping [select] waits until the
    next deadline rounded up to the next whole millisecond of the
    executor's clock, so every timer due within one millisecond slot
    fires on one wakeup. Work already due never waits (a zero timeout),
    no timer fires before its due time, and a cross-domain post still
    wakes a sleeping loop at once. [schedule]/[cancel] are
    mutex-protected and cross-domain safe — arming a timer from a foreign
    domain pokes a wakeup pipe so a sleeping loop re-reads its horizon —
    but transport handlers and timer callbacks always run on the loop's
    own thread. Multicore mode runs one executor per domain
    ({!run_in_domain}) with {!post} as the only cross-domain handoff; all
    executors can share one clock origin via [?origin_of] so their
    timelines compare directly.

    Invariants:
    - {!Backend.Clock} readings never decrease; time is ms since
      {!create};
    - a message handler is never invoked from inside [send] — loopback
      deliveries go through a zero-delay timer, socket deliveries through
      the read side of the loop;
    - per-sender FIFO order is preserved by every transport (equal
      due-times fire in scheduling order; stream sockets preserve byte
      order);
    - a timer fires no earlier than its due time and at most one
      millisecond slot (plus scheduling delay) after it;
    - the first {!create} ignores [SIGPIPE] process-wide: a write into a
      reset connection must surface as [EPIPE] for the transports'
      teardown paths, never kill the process. *)

type t
(** The executor: clock origin, timer heap, and I/O poller registry. *)

val create : ?max_tick_ms:float -> ?origin_of:t -> unit -> t
(** [max_tick_ms] (default 50) bounds how long the loop sleeps between
    timer checks, which also bounds shutdown latency of {!stop}.
    [origin_of] shares another executor's clock origin so that [now_ms]
    readings from both executors lie on one timeline (used by the
    multicore node, where per-DAG lane executors must stamp events
    comparably with the main loop's). *)

val now_ms : t -> float
(** Milliseconds since {!create}, monotonically clamped. *)

val clock : t -> Backend.Clock.t
val timers : t -> Backend.Timers.t

val backend : t -> 'msg Backend.Transport.t -> 'msg Backend.t
(** Assemble a full backend from this executor and a transport. *)

val run_for : t -> duration_ms:float -> unit
(** Drive the loop for [duration_ms] of wall time (or until {!stop}).
    Re-entrant calls are not allowed. *)

val stop : t -> unit
(** Ask a running {!run_for} to return after the current iteration. May be
    called from a timer callback or another domain (a sleeping loop is
    woken). *)

val post : t -> (unit -> unit) -> unit
(** Run a closure on this executor's loop as soon as possible. Safe from
    any domain; the closure runs on the loop thread in FIFO order with
    respect to other zero-delay work. This is the only sanctioned way to
    hand data between domains in the multicore node. *)

val run_in_domain : t -> unit
(** Spawn a fresh domain that drives this executor ({!run_for} with an
    unbounded duration) until {!stop_and_join}. At most one loop domain
    per executor. *)

val stop_and_join : t -> unit
(** Stop the loop started by {!run_in_domain} and join its domain. After
    return no callback of this executor is running or will run, and
    {!run_in_domain} may be called again. Falls back to {!stop} when no
    loop domain was spawned. *)

val events_fired : t -> int
val pending_timers : t -> int

type loop_stats = {
  turns : int;
      (** iterations of the {!run_for} loop: each fires the due timers,
          then makes exactly one [select], which polls the sockets and
          sleeps until the next wake *)
  sleeps : int;
      (** turns whose [select] had a positive timeout, i.e. could block
          until the next deadline's whole millisecond; [turns - sleeps]
          turns found work already due and only polled *)
  timeouts : int;
      (** sleeping selects that returned with nothing ready: the wakeups
          the timer horizon alone caused, at most one per millisecond
          slot that holds a deadline *)
  select_cpu_us : float;
      (** CPU of the loop's thread spent inside [select] (its thread CPU
          clock read around the call), at any number of domains *)
  timer_us : float;  (** wall time firing due timers *)
  io_us : float;  (** wall time in poller callbacks (reads, writable pumps, accepts) *)
  cpu_us : float;
      (** CPU of the loop's thread while {!run_for} ran, the current call
          included: the denominator the three phases above are read
          against *)
}
(** The loop's own attribution of where its time went. Phases do not
    overlap: a socket write made by a timer callback counts in
    [timer_us]. *)

val loop_stats : t -> loop_stats
(** Read it on the loop's own domain (or after the loop stopped): a
    running loop's [cpu_us] is read from the calling thread's clock. *)

(** {2 I/O polling} — used by {!Tcp_transport} and the admin server.
    Callbacks run on the loop thread when the descriptor is readable
    (pollers) or writable (wpollers). *)

val add_poller : t -> Unix.file_descr -> (unit -> unit) -> unit
val remove_poller : t -> Unix.file_descr -> unit
val add_wpoller : t -> Unix.file_descr -> (unit -> unit) -> unit
val remove_wpoller : t -> Unix.file_descr -> unit

(** {2 Transports} *)

val loopback : t -> n:int -> 'msg Backend.Transport.t
(** In-process transport: [send] arms a zero-delay timer that invokes the
    destination handler. Nothing is serialized; [size] is
    charged to the byte counter as declared. *)

val multicore_loopback : n:int -> unit -> 'msg Backend.Transport.t
(** In-process transport for the multicore node: delivery invokes the
    destination handler synchronously {e on the calling domain}, and the
    byte/message counters are atomics, so any domain may send without a
    timer hop through a shared loop. Use only when every handler is itself
    cross-domain safe and never re-enters the protocol inline — the
    multicore node's handlers only enqueue a {!Verify_pool} job. Install
    all handlers before the first foreign-domain send (the lane executors'
    [Domain.spawn] is the publication point). *)

val delayed :
  t ->
  delay_ms:(src:int -> dst:int -> float) ->
  'msg Backend.Transport.t ->
  'msg Backend.Transport.t
(** Per-link delay shim over any transport: each [send] is held on a
    sender-side timer for [delay_ms ~src ~dst] milliseconds before being
    handed to the inner transport, so one machine can emulate a
    geo-distributed deployment (e.g. the paper's gcp10 topology) over real
    sockets. Constant per-link delays preserve per-(src, dst) FIFO order;
    stats are the inner transport's. A zero or negative delay sends
    immediately with no timer hop. *)

module Framing : sig
  (** Length-prefixed frames over a byte stream: a 4-byte big-endian body
      length, then the body [uint src] followed by the payload, which runs
      to the end of the body. A frame is an immutable string, built once
      and shared by every destination of a broadcast. Split out for direct
      testing. *)

  val frame : Shoalpp_codec.Wire.Writer.t -> src:int -> (Shoalpp_codec.Wire.Writer.t -> unit) -> string
  (** [frame w ~src write] clears [w], writes [src] and then the payload
      with [write w], and returns the complete frame: the body is copied
      once, behind the length prefix. *)

  val header : string -> int * int
  (** [(src, pos)] of a complete frame: its sender and the offset at which
      its payload starts.
      @raise Shoalpp_codec.Wire.Reader.Malformed if the body does not start
      with a sender id. *)

  type decoder

  val decoder : unit -> decoder

  val feed : decoder -> Bytes.t -> int -> (int * string) list
  (** [feed d chunk len] appends [len] bytes and returns every complete
      frame now available as [(src, frame)], in stream order: each frame
      is copied out of the backlog once, length prefix included, so it is
      byte-equal to the string {!frame} built. Partial frames are buffered
      across calls.
      @raise Shoalpp_codec.Wire.Reader.Malformed on a corrupt frame
      (including bodies over 64 MiB). *)
end

val framed :
  encode:(Shoalpp_codec.Wire.Writer.t -> 'msg -> unit) ->
  decode:(string -> pos:int -> 'msg option) ->
  string Backend.Transport.t ->
  'msg Backend.Transport.t
(** The codec step over a transport of {!Framing} frames (the TCP
    transport, possibly under {!delayed}): [send] and [broadcast] encode
    the message once into a reused scratch writer and hand one frame string
    to the inner transport, however many destinations it has; an inbound
    frame is decoded in place ([decode frame ~pos] with [pos] at its
    payload). A frame that does not decode is dropped and counted in
    [stats.dropped]. Drive it from one domain: the scratch writer is not
    shared-safe. *)
