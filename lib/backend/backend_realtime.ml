module Heap = Shoalpp_support.Heap
module Wire = Shoalpp_codec.Wire

(* CPU seconds of the calling thread (cpu_clock_stubs.c): an executor's
   loop runs on one domain, so this is that loop's own CPU. *)
external thread_cpu_s : unit -> (float[@unboxed])
  = "shoalpp_thread_cpu_s" "shoalpp_thread_cpu_s_unboxed"
[@@noalloc]

(* [action] is written (cancelled) from posting domains and read by the
   loop; both under [mu] — see the guarded_by declarations on [t]. *)
type rt_timer = {
  at : float;
  mutable action : (unit -> unit) option; [@shoalpp.guarded_by "mu"]
}

(* Concurrency map (machine-checked by tools/lint lock-discipline):
   [heap]/[mono] are guarded by [mu] — any domain may post or
   cancel a timer. [fired], the loop counters, the poller tables with
   their select lists and [loop_domain] belong to
   the loop-owner domain only (docs/CONCURRENCY.md effect-confinement map)
   and are deliberately *not* guarded; the Atomics carry every remaining
   cross-domain bit. *)
type t = {
  mu : Mutex.t;
  heap : rt_timer Heap.t; [@shoalpp.guarded_by "mu"]
  mutable fired : int;
  origin : float; (* Unix.gettimeofday at create, seconds *)
  mutable mono : float; [@shoalpp.guarded_by "mu"] (* high-water clock reading, ms *)
  stopping : bool Atomic.t;
  running : bool Atomic.t;
  max_tick_ms : float;
  pollers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  wpollers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  mutable rfds : Unix.file_descr list; (* the keys of [pollers] *)
  mutable wfds : Unix.file_descr list; (* the keys of [wpollers] *)
  mutable turns : int; (* loop iterations: one select (or sleep) each *)
  mutable sleeps : int; (* turns whose select could block *)
  mutable timeouts : int; (* selects that slept and returned with nothing ready *)
  mutable select_cpu_s : float; (* loop-thread CPU inside select *)
  mutable timer_s : float; (* wall time firing timers *)
  mutable io_s : float; (* wall time in poller callbacks *)
  mutable decode_s : float; (* wall time in [framed] decoders *)
  mutable cpu_s : float; (* loop-thread CPU of finished [run_for] calls *)
  mutable run_cpu0 : float; (* loop-thread CPU when the current [run_for] began *)
  (* Cross-domain wakeup: a byte written here makes a sleeping [select]
     return, so a timer armed from another domain is noticed immediately
     rather than at the next tick. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  owner : int Atomic.t; (* Domain.id running the loop; -1 when idle *)
  sleeping : bool Atomic.t; (* loop is (about to be) blocked in select *)
  mutable loop_domain : unit Domain.t option; (* spawned by run_in_domain *)
}

(* A write to a peer that died arrives as EPIPE only if SIGPIPE is ignored;
   the default disposition would kill the whole process the first time a
   transport writes into a reset connection. Ignored once, process-wide, by
   the first executor — every realtime I/O path (TCP, admin) relies on
   seeing the errno instead. The once-guard is an [Atomic.exchange], not a
   [lazy]: forcing a shared lazy from two domains at once is a race (one
   domain can observe the thunk mid-update and raise [Lazy.Undefined]),
   whereas the exchange hands exactly one caller the [false]. *)
let sigpipe_ignored = Atomic.make false

let ignore_sigpipe () =
  if not (Atomic.exchange sigpipe_ignored true) then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let create ?(max_tick_ms = 50.0) ?origin_of () =
  ignore_sigpipe ();
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      mu = Mutex.create ();
      heap = Heap.create ();
      fired = 0;
      origin =
        (match origin_of with Some o -> o.origin | None -> Unix.gettimeofday ());
      mono = 0.0;
      stopping = Atomic.make false;
      running = Atomic.make false;
      max_tick_ms;
      pollers = Hashtbl.create 8;
      wpollers = Hashtbl.create 8;
      rfds = [ wake_r ];
      wfds = [];
      turns = 0;
      sleeps = 0;
      timeouts = 0;
      select_cpu_s = 0.0;
      timer_s = 0.0;
      io_s = 0.0;
      decode_s = 0.0;
      cpu_s = 0.0;
      run_cpu0 = Float.nan;
      wake_r;
      wake_w;
      owner = Atomic.make (-1);
      sleeping = Atomic.make false;
      loop_domain = None;
    }
  in
  (* Drain whatever accumulated; the wakeup's only job is ending a sleep. *)
  let scratch = Bytes.create 64 in
  Hashtbl.replace t.pollers wake_r (fun () ->
      let rec drain () =
        match Unix.read wake_r scratch 0 (Bytes.length scratch) with
        | n when n = Bytes.length scratch -> drain ()
        | _ -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      in
      drain ());
  t

let wake_write t =
  let b = Bytes.make 1 '!' in
  match Unix.write t.wake_w b 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> ()

(* Only pay the pipe-write syscall when the loop is actually (about to be)
   blocked: a busy loop re-reads its horizon every iteration anyway. The
   flag is raised BEFORE the loop reads the heap for its next deadline, so
   a poster that misses the flag is guaranteed to have its timer seen by
   that read, and a poster that sees it wakes the select — no lost-wakeup
   window. *)
let wake t = if Atomic.get t.sleeping then wake_write t

let with_mu t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
    Mutex.unlock t.mu;
    v
  | exception e ->
    Mutex.unlock t.mu;
    raise e

(* Wall time since the origin, clamped so a stepped system clock can never
   make readings go backwards. *)
let now_ms t =
  let w = (Unix.gettimeofday () -. t.origin) *. 1000.0 in
  with_mu t (fun () ->
      if w > t.mono then t.mono <- w;
      t.mono)

let clock t =
  let now () = now_ms t in
  { Backend.Clock.now; monotonic = now }

let schedule_abs t ~at f =
  let tm =
    with_mu t (fun () ->
        let tm = { at; action = Some f } in
        Heap.add t.heap ~at tm;
        tm)
  in
  (* If another domain's loop is (possibly) asleep in select, poke it so the
     new timer's deadline is re-read. Same-domain schedules need no wake: the
     loop recomputes its horizon before every sleep. *)
  let owner = Atomic.get t.owner in
  if owner <> -1 && owner <> (Domain.self () :> int) then wake t;
  {
    Backend.cancel = (fun () -> with_mu t (fun () -> tm.action <- None));
    is_pending = (fun () -> with_mu t (fun () -> tm.action <> None));
  }

let timers t =
  {
    Backend.Timers.schedule =
      (fun ~after f ->
        let after = if after > 0.0 then after else 0.0 in
        schedule_abs t ~at:(now_ms t +. after) f);
    schedule_at = (fun ~at f -> schedule_abs t ~at f);
  }

let backend t transport =
  (* Realtime executors carry control traffic in-band: the OS scheduler,
     not a seeded RNG, owns timing, so sharing the data sockets cannot
     perturb determinism. *)
  { Backend.clock = clock t; timers = timers t; transport; control = None }
let events_fired t = t.fired
let pending_timers t = with_mu t (fun () -> Heap.length t.heap)

type loop_stats = {
  turns : int;
  sleeps : int;
  timeouts : int;
  select_cpu_us : float;
  timer_us : float;
  io_us : float;
  decode_us : float;
  cpu_us : float;
}

let loop_stats t =
  let running = if Float.is_nan t.run_cpu0 then 0.0 else thread_cpu_s () -. t.run_cpu0 in
  {
    turns = t.turns;
    sleeps = t.sleeps;
    timeouts = t.timeouts;
    select_cpu_us = 1e6 *. t.select_cpu_s;
    timer_us = 1e6 *. t.timer_s;
    io_us = 1e6 *. t.io_s;
    decode_us = 1e6 *. t.decode_s;
    cpu_us = 1e6 *. (t.cpu_s +. running);
  }

(* The select lists are rebuilt only when the set of descriptors changes:
   replacing a callback, or removing a descriptor that is not there (the
   TCP transport's pump does so after every send that drained its
   queue), leaves them as they are. *)
let fds tbl = Hashtbl.fold (fun fd _ acc -> fd :: acc) tbl []

let add_poller t fd f =
  let fresh = not (Hashtbl.mem t.pollers fd) in
  Hashtbl.replace t.pollers fd f;
  if fresh then t.rfds <- fds t.pollers

let remove_poller t fd =
  if Hashtbl.mem t.pollers fd then begin
    Hashtbl.remove t.pollers fd;
    t.rfds <- fds t.pollers
  end

let add_wpoller t fd f =
  let fresh = not (Hashtbl.mem t.wpollers fd) in
  Hashtbl.replace t.wpollers fd f;
  if fresh then t.wfds <- fds t.wpollers

let remove_wpoller t fd =
  if Hashtbl.mem t.wpollers fd then begin
    Hashtbl.remove t.wpollers fd;
    t.wfds <- fds t.wpollers
  end

let stop t =
  Atomic.set t.stopping true;
  (* Unconditional write: promptness matters more than one syscall here. *)
  wake_write t

(* Run [f] on the executor's loop. Safe from any domain: the heap insert is
   mutex-protected and [schedule_abs] wakes a foreign sleeping loop. *)
let post t f = ignore (schedule_abs t ~at:0.0 f)

(* Both called under the mutex. Cancelled timers are dropped lazily as they
   surface at the heap root. [limit] bounds one batch: a loop that has
   fallen behind its inflow must still surface to check its deadline and
   stop flag between batches rather than chew the whole backlog at once. *)
let rec pop_due t ~now ~limit acc =
  if limit <= 0 then List.rev acc
  else
    match Heap.peek t.heap with
    | Some tm when tm.action = None ->
      ignore (Heap.pop t.heap);
      pop_due t ~now ~limit acc
    | Some tm when Heap.min_at t.heap <= now ->
      ignore (Heap.pop t.heap);
      pop_due t ~now ~limit:(limit - 1) (tm :: acc)
    | _ -> List.rev acc
[@@shoalpp.requires_lock "mu"]

let rec next_deadline t =
  match Heap.peek t.heap with
  | Some tm when tm.action = None ->
    ignore (Heap.pop t.heap);
    next_deadline t
  | Some _ -> Some (Heap.min_at t.heap)
  | None -> None
[@@shoalpp.requires_lock "mu"]

(* Fire each due timer, taking its action out atomically so a concurrent
   cancel can never race the invocation. If a callback raises, the popped
   but unfired tail goes back on the heap before the exception propagates —
   those timers stay pending rather than being silently lost (re-added
   behind any timer already due at the same instant). *)
let fire_due t due =
  let rec go = function
    | [] -> ()
    | tm :: rest ->
      let f_opt =
        with_mu t (fun () ->
            let a = tm.action in
            tm.action <- None;
            a)
      in
      (match f_opt with
      | Some f -> (
        t.fired <- t.fired + 1;
        try f ()
        with e ->
          with_mu t (fun () -> List.iter (fun tm -> Heap.add t.heap ~at:tm.at tm) rest);
          raise e)
      | None -> ());
      go rest
  in
  go due

let run_for t ~duration_ms =
  if not (Atomic.compare_and_set t.running false true) then
    invalid_arg "Backend_realtime.run_for: already running";
  Atomic.set t.stopping false;
  Atomic.set t.owner (Domain.self () :> int);
  let deadline = now_ms t +. duration_ms in
  t.run_cpu0 <- thread_cpu_s ();
  let finish () =
    t.cpu_s <- t.cpu_s +. (thread_cpu_s () -. t.run_cpu0);
    t.run_cpu0 <- Float.nan;
    Atomic.set t.sleeping false;
    Atomic.set t.owner (-1);
    Atomic.set t.running false
  in
  (try
     while (not (Atomic.get t.stopping)) && now_ms t < deadline do
       t.turns <- t.turns + 1;
       (* Drain due timers in rounds: a firing commonly arms new work that
          is itself already due (a zero-delay post), and paying one select
          syscall per firing would cap the event rate at the loop's
          iteration rate. Bounded in rounds AND time — at saturation every
          round refills with freshly posted work, so an unbounded drain
          would blow through the run deadline and starve the socket
          pollers. *)
       let slice_end = Float.min deadline (now_ms t +. t.max_tick_ms) in
       let rec drain rounds =
         let now = now_ms t in
         let due = with_mu t (fun () -> pop_due t ~now ~limit:1024 []) in
         if due <> [] then begin
           fire_due t due;
           if rounds > 1 && now_ms t < slice_end then drain (rounds - 1)
         end
       in
       let w0 = Unix.gettimeofday () in
       drain 64;
       t.timer_s <- t.timer_s +. (Unix.gettimeofday () -. w0);
       (* One select per turn: it polls the sockets and sleeps until the
          next timer's wake (bounded by the tick), or returns at once when
          work is already due — a drain cut short, or a firing that posted
          more. The wake is the deadline rounded up to the next whole
          millisecond of the executor's clock, so every timer due within
          one millisecond slot fires on one wakeup, and none fires early.
          The sleeping flag goes up BEFORE the horizon is read: a foreign
          domain's timer armed after the read sees the flag and wakes the
          select, one armed before is already in the horizon. *)
       Atomic.set t.sleeping true;
       let gap_ms =
         let now = now_ms t in
         let horizon =
           match with_mu t (fun () -> next_deadline t) with
           | Some at -> if at <= now then 0.0 else Float.ceil at -. now
           | None -> t.max_tick_ms
         in
         Float.max 0.0 (Float.min (Float.min horizon t.max_tick_ms) (deadline -. now))
       in
       if gap_ms > 0.0 then t.sleeps <- t.sleeps + 1;
       (* The wakeup pipe is always polled, so the lists are never empty. *)
       let c0 = thread_cpu_s () in
       let ready =
         match Unix.select t.rfds t.wfds [] (gap_ms /. 1000.0) with
         | readable, writable, _ -> Some (readable, writable)
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
       in
       t.select_cpu_s <- t.select_cpu_s +. (thread_cpu_s () -. c0);
       Atomic.set t.sleeping false;
       (match ready with
       | Some ([], []) -> if gap_ms > 0.0 then t.timeouts <- t.timeouts + 1
       | Some (readable, writable) ->
         let w0 = Unix.gettimeofday () in
         List.iter
           (fun fd -> match Hashtbl.find_opt t.pollers fd with Some f -> f () | None -> ())
           readable;
         List.iter
           (fun fd -> match Hashtbl.find_opt t.wpollers fd with Some f -> f () | None -> ())
           writable;
         t.io_s <- t.io_s +. (Unix.gettimeofday () -. w0)
       | None -> ())
     done
   with e ->
     finish ();
     raise e);
  finish ()

let run_in_domain t =
  if t.loop_domain <> None then
    invalid_arg "Backend_realtime.run_in_domain: domain already running";
  t.loop_domain <- Some (Domain.spawn (fun () -> run_for t ~duration_ms:Float.infinity))

let stop_and_join t =
  match t.loop_domain with
  | None -> stop t
  | Some d ->
    stop t;
    Domain.join d;
    t.loop_domain <- None

(* In-process transport: delivery is a zero-delay timer, so a handler
   never runs inside [send] and per-sender FIFO order follows from the
   (due-time, scheduling-order) timer order. *)
let loopback t ~n =
  let handlers = Array.make n None in
  let sent = ref 0 in
  let bytes = ref 0.0 in
  let timers = timers t in
  let deliver ~src ~dst msg =
    match handlers.(dst) with Some h -> h ~src msg | None -> ()
  in
  let post ~src ~dst ~size msg =
    incr sent;
    bytes := !bytes +. float_of_int size;
    ignore (timers.Backend.Timers.schedule ~after:0.0 (fun () -> deliver ~src ~dst msg))
  in
  {
    Backend.Transport.n;
    send = (fun ~src ~dst ~size msg -> post ~src ~dst ~size msg);
    broadcast =
      (fun ~src ~size ~include_self msg ->
        for dst = 0 to n - 1 do
          if include_self || dst <> src then post ~src ~dst ~size msg
        done);
    set_handler = (fun replica f -> handlers.(replica) <- Some f);
    stats =
      (fun () ->
        { Backend.Transport.sent = !sent; dropped = 0; partitioned = 0; bytes = !bytes });
  }

(* Per-link delay shim: emulate a geography over any transport by holding
   each message on a sender-side timer for the link's one-way delay before
   handing it to the inner transport. Constant per-(src,dst) delays plus
   the (due-time, scheduling-order) timer order preserve per-link FIFO, so
   wrapping cannot reorder a stream — it only shifts it in time. Counters
   are the inner transport's: a delayed message is charged when it is
   actually handed over. *)
let delayed t ~delay_ms (inner : 'msg Backend.Transport.t) =
  let timers = timers t in
  let send ~src ~dst ~size msg =
    let d = delay_ms ~src ~dst in
    if d <= 0.0 then inner.Backend.Transport.send ~src ~dst ~size msg
    else
      ignore
        (timers.Backend.Timers.schedule ~after:d (fun () ->
             inner.Backend.Transport.send ~src ~dst ~size msg))
  in
  {
    inner with
    Backend.Transport.send;
    broadcast =
      (fun ~src ~size ~include_self msg ->
        for dst = 0 to inner.Backend.Transport.n - 1 do
          if include_self || dst <> src then send ~src ~dst ~size msg
        done);
  }

(* A sender's own messages never reach [inner]: a send to itself, and the
   self copy of a broadcast, are delivered by a zero-delay [post] on this
   loop, as {!loopback} delivers every message. They are not encoded,
   framed or written, and [inner]'s stats do not count them. *)
let self_loopback t (inner : 'msg Backend.Transport.t) =
  let handlers = Array.make inner.Backend.Transport.n None in
  let to_self ~src msg =
    post t (fun () -> match handlers.(src) with Some h -> h ~src msg | None -> ())
  in
  {
    inner with
    Backend.Transport.send =
      (fun ~src ~dst ~size msg ->
        if dst = src then to_self ~src msg else inner.Backend.Transport.send ~src ~dst ~size msg);
    broadcast =
      (fun ~src ~size ~include_self msg ->
        inner.Backend.Transport.broadcast ~src ~size ~include_self:false msg;
        if include_self then to_self ~src msg);
    set_handler =
      (fun replica h ->
        handlers.(replica) <- Some h;
        inner.Backend.Transport.set_handler replica h);
  }

module Framing = struct
  let max_body = 1 lsl 26 (* 64 MiB: far above any protocol message *)

  (* The body is written into [w] (cleared first) and copied once, into
     the frame's own bytes behind the length prefix. *)
  let frame w ~src write =
    Wire.Writer.clear w;
    Wire.Writer.uint w src;
    write w;
    let n = Wire.Writer.size w in
    let out = Bytes.create (4 + n) in
    Bytes.set_int32_be out 0 (Int32.of_int n);
    Wire.Writer.blit w out 4;
    Bytes.unsafe_to_string out

  let header frame =
    let r = Wire.Reader.of_string ~pos:4 frame in
    let src = Wire.Reader.uint r in
    (src, Wire.Reader.position r)

  (* Byte backlog with a consumed-prefix offset: frames are cut out in
     place by advancing [start], and the live region is compacted (or the
     buffer grown) at most once per [feed], so decoding stays linear in the
     bytes received no matter how many frames pile up on one connection. *)
  type decoder = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

  let decoder () = { buf = Bytes.create 4096; start = 0; len = 0 }

  let ensure_space d extra =
    let cap = Bytes.length d.buf in
    if d.start + d.len + extra > cap then
      if d.len + extra <= cap then begin
        Bytes.blit d.buf d.start d.buf 0 d.len;
        d.start <- 0
      end
      else begin
        let nb = Bytes.create (max (d.len + extra) (2 * cap)) in
        Bytes.blit d.buf d.start nb 0 d.len;
        d.buf <- nb;
        d.start <- 0
      end

  let feed d chunk len =
    ensure_space d len;
    Bytes.blit chunk 0 d.buf (d.start + d.len) len;
    d.len <- d.len + len;
    let frames = ref [] in
    let progress = ref true in
    while !progress do
      if d.len < 4 then progress := false
      else begin
        let body_len = Int32.to_int (Bytes.get_int32_be d.buf d.start) in
        if body_len < 0 || body_len > max_body then
          raise (Wire.Reader.Malformed "frame length out of range");
        if d.len < 4 + body_len then progress := false
        else begin
          (* The one copy a received frame gets before it is decoded. *)
          let frame = Bytes.sub_string d.buf d.start (4 + body_len) in
          d.start <- d.start + 4 + body_len;
          d.len <- d.len - (4 + body_len);
          let src, _ = header frame in
          frames := (src, frame) :: !frames
        end
      end
    done;
    if d.len = 0 then d.start <- 0;
    List.rev !frames
end

(* The codec step of a byte transport. The scratch writer is reused from
   message to message, so a send or broadcast costs one encode into warm
   storage and one copy into its frame; the frame string is what every
   destination's queue (or delay timer) holds. *)
let framed exec ~encode ~decode (inner : string Backend.Transport.t) =
  let scratch = Wire.Writer.create ~initial:4096 () in
  let frame ~src msg = Framing.frame scratch ~src (fun w -> encode w msg) in
  let undecodable = ref 0 in
  {
    Backend.Transport.n = inner.Backend.Transport.n;
    send = (fun ~src ~dst ~size msg -> inner.Backend.Transport.send ~src ~dst ~size (frame ~src msg));
    broadcast =
      (fun ~src ~size ~include_self msg ->
        inner.Backend.Transport.broadcast ~src ~size ~include_self (frame ~src msg));
    set_handler =
      (fun replica h ->
        inner.Backend.Transport.set_handler replica (fun ~src frame ->
            let pos = snd (Framing.header frame) in
            let w0 = Unix.gettimeofday () in
            let msg = decode frame ~pos in
            exec.decode_s <- exec.decode_s +. (Unix.gettimeofday () -. w0);
            match msg with Some msg -> h ~src msg | None -> incr undecodable));
    stats =
      (fun () ->
        let s = inner.Backend.Transport.stats () in
        { s with Backend.Transport.dropped = s.Backend.Transport.dropped + !undecodable });
  }
