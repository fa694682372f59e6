(* The transport's state machines (per-peer write queues, reconnect
   backoff, the connection table) run exclusively on the executor's loop
   domain: every entry point is either a poller callback or posted via
   Backend_realtime.post. The floating attribute re-owns the module for
   tools/lint's race pass — overriding the lib/backend/ "shared" default —
   so any future top-level mutable global here stays legal exactly as long
   as this single-domain discipline holds. *)
[@@@shoalpp.domain "main"]

(* Length-prefixed TCP transport for the wall-clock executor.

   Messages are complete Backend_realtime.Framing frames (4-byte
   big-endian body length, then the sender id and the payload), built once
   by the codec step above ([Backend_realtime.framed]) and written as they
   are over 127.0.0.1 TCP sockets, with the two behaviours a real
   deployment needs and loopback hides:

   - Per-peer WRITE QUEUES: each frame is queued on its destination's
     connection as the frame string itself, shared by every destination
     of a broadcast (no copy), and written at once while the kernel takes
     it. TCP_NODELAY is set so the kernel never holds a frame back to
     coalesce it (Nagle).

   - LAZY RECONNECT with capped exponential backoff: a send to a peer with
     no live connection dials it non-blockingly; a failed dial (or a
     connection torn down mid-stream) drops the peer's queued frames
     (counted), doubles its retry delay up to a cap, and the next send
     after the deadline re-dials. A restarted peer is picked up again
     within one backoff interval and the sender never blocks or dial-storms
     a dead address.

   Everything runs on the executor's single event loop: sends enqueue,
   the select loop flushes on writability and feeds inbound bytes through
   a per-connection Framing.decoder, which hands each frame to the owner's
   handler. No protocol handler ever runs inside [send]. *)

module Framing = Backend_realtime.Framing
module Wire = Shoalpp_codec.Wire

let backoff_base_ms = 10.0
let backoff_cap_ms = 2000.0
let max_out_buffered = 8 * 1024 * 1024

(* One live (or connecting) outbound connection. The write queue holds
   one frame per entry, so a teardown drops exactly its length in frames;
   the head entry may be partially written. *)
type conn = {
  c_fd : Unix.file_descr;
  c_q : string Queue.t;
  mutable c_head_off : int;
  mutable c_buffered : int; (* unwritten bytes in the queue *)
  mutable c_connected : bool; (* false while connect() is in flight *)
}

type peer = {
  mutable p_conn : conn option;
  mutable p_backoff_ms : float; (* delay charged by the NEXT dial failure *)
  mutable p_retry_at_ms : float; (* no re-dial before this executor instant *)
}

type net_stats = {
  flushes : int;
  write_us : float;
  read_us : float;
  deliver_us : float;
  reconnects : int;
  dial_failures : int;
}

type t = {
  exec : Backend_realtime.t;
  n : int;
  host : string;
  t_ports : int array;
  handlers : (src:int -> string -> unit) option array;
  peers : peer array;
  listeners : Unix.file_descr option array;
  inbound : Unix.file_descr list ref array; (* accepted conns per listening replica *)
  mutable t_sent : int;
  mutable t_dropped : int;
  mutable t_bytes : float;
  mutable t_flushes : int; (* write(2) calls that moved bytes, partial ones included *)
  mutable t_write_s : float; (* wall time in write(2), refused calls included *)
  mutable t_read_s : float; (* wall time in read(2) *)
  mutable t_deliver_s : float; (* wall time cutting frames and running the handlers *)
  mutable t_reconnects : int;
  mutable t_dial_failures : int;
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Inbound side: accept, read, cut frames, dispatch to the owner's handler. *)

let forget_inbound t ~owner fd =
  Backend_realtime.remove_poller t.exec fd;
  t.inbound.(owner) := List.filter (fun f -> not (Stdlib.( == ) f fd)) !(t.inbound.(owner));
  close_quiet fd

let on_readable t ~owner conn dec buf () =
  let w0 = Unix.gettimeofday () in
  let got =
    match Unix.read conn buf 0 (Bytes.length buf) with
    | len -> Ok len
    | exception Unix.Unix_error (e, _, _) -> Error e
  in
  let w1 = Unix.gettimeofday () in
  t.t_read_s <- t.t_read_s +. (w1 -. w0);
  match got with
  | Ok 0 -> forget_inbound t ~owner conn
  | Ok len ->
    (match Framing.feed dec buf len with
    | frames -> (
      match t.handlers.(owner) with
      | Some h -> List.iter (fun (src, frame) -> h ~src frame) frames
      | None -> ())
    | exception Wire.Reader.Malformed _ ->
      t.t_dropped <- t.t_dropped + 1;
      forget_inbound t ~owner conn);
    t.t_deliver_s <- t.t_deliver_s +. (Unix.gettimeofday () -. w1)
  | Error (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR) -> ()
  | Error _ -> forget_inbound t ~owner conn

let listen_replica t i =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string t.host, t.t_ports.(i)));
     Unix.listen fd 128;
     Unix.set_nonblock fd
   with e ->
     close_quiet fd;
     raise e);
  (match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> t.t_ports.(i) <- p
  | _ -> ());
  Backend_realtime.add_poller t.exec fd (fun () ->
      match Unix.accept fd with
      | conn, _ ->
        Unix.set_nonblock conn;
        t.inbound.(i) := conn :: !(t.inbound.(i));
        let dec = Framing.decoder () in
        let buf = Bytes.create 65536 in
        Backend_realtime.add_poller t.exec conn (on_readable t ~owner:i conn dec buf)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
  fd

(* ------------------------------------------------------------------ *)
(* Outbound side: dial, queue, write, back off. *)

(* Tear the connection down and charge its undelivered frames as dropped.
   The peer re-dials on a later send, after its backoff deadline. *)
let drop_conn t dst c =
  let p = t.peers.(dst) in
  Backend_realtime.remove_wpoller t.exec c.c_fd;
  close_quiet c.c_fd;
  t.t_dropped <- t.t_dropped + Queue.length c.c_q;
  p.p_conn <- None;
  t.t_dial_failures <- t.t_dial_failures + 1;
  p.p_retry_at_ms <- Backend_realtime.now_ms t.exec +. p.p_backoff_ms;
  p.p_backoff_ms <- Float.min (2.0 *. p.p_backoff_ms) backoff_cap_ms

(* One timed write(2) of the head frame's unwritten tail: [single_write]
   makes exactly one system call (of at most 64 KiB), where [Unix.write]
   would loop over several, so [t_flushes] counts the calls themselves. *)
let write_head t c =
  let s = Queue.peek c.c_q in
  let w0 = Unix.gettimeofday () in
  let r =
    match
      Unix.single_write c.c_fd (Bytes.unsafe_of_string s) c.c_head_off
        (String.length s - c.c_head_off)
    with
    | n -> Ok n
    | exception Unix.Unix_error (e, _, _) -> Error e
  in
  t.t_write_s <- t.t_write_s +. (Unix.gettimeofday () -. w0);
  r

(* Write until the queue is empty or the kernel refuses more; a refusal
   waits for writability. *)
let rec pump t dst c =
  if Queue.is_empty c.c_q then Backend_realtime.remove_wpoller t.exec c.c_fd
  else begin
    match write_head t c with
    | Ok n when n > 0 ->
      t.t_flushes <- t.t_flushes + 1;
      c.c_buffered <- c.c_buffered - n;
      c.c_head_off <- c.c_head_off + n;
      if c.c_head_off = String.length (Queue.peek c.c_q) then begin
        ignore (Queue.pop c.c_q);
        c.c_head_off <- 0
      end;
      pump t dst c
    | Ok _ | Error (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR) ->
      Backend_realtime.add_wpoller t.exec c.c_fd (fun () -> pump t dst c)
    | Error _ -> drop_conn t dst c
  end

let finish_connect t dst c =
  Backend_realtime.remove_wpoller t.exec c.c_fd;
  match Unix.getsockopt_error c.c_fd with
  | None ->
    c.c_connected <- true;
    let p = t.peers.(dst) in
    if p.p_backoff_ms > backoff_base_ms then t.t_reconnects <- t.t_reconnects + 1;
    p.p_backoff_ms <- backoff_base_ms;
    p.p_retry_at_ms <- 0.0;
    pump t dst c
  | Some _ -> drop_conn t dst c

let dial t dst =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let mk connected =
    {
      c_fd = fd;
      c_q = Queue.create ();
      c_head_off = 0;
      c_buffered = 0;
      c_connected = connected;
    }
  in
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string t.host, t.t_ports.(dst)) in
  match Unix.connect fd addr with
  | () ->
    let c = mk true in
    t.peers.(dst).p_conn <- Some c;
    t.peers.(dst).p_backoff_ms <- backoff_base_ms;
    Some c
  | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
    let c = mk false in
    t.peers.(dst).p_conn <- Some c;
    Backend_realtime.add_wpoller t.exec fd (fun () -> finish_connect t dst c);
    Some c
  | exception Unix.Unix_error _ ->
    close_quiet fd;
    let p = t.peers.(dst) in
    t.t_dial_failures <- t.t_dial_failures + 1;
    p.p_retry_at_ms <- Backend_realtime.now_ms t.exec +. p.p_backoff_ms;
    p.p_backoff_ms <- Float.min (2.0 *. p.p_backoff_ms) backoff_cap_ms;
    None

let conn_for t dst =
  let p = t.peers.(dst) in
  match p.p_conn with
  | Some c -> Some c
  | None ->
    if Backend_realtime.now_ms t.exec < p.p_retry_at_ms then None else dial t dst

let send t ~dst ~size frame =
  match conn_for t dst with
  | None -> t.t_dropped <- t.t_dropped + 1
  | Some c ->
    if c.c_buffered + String.length frame > max_out_buffered then
      t.t_dropped <- t.t_dropped + 1
    else begin
      c.c_buffered <- c.c_buffered + String.length frame;
      t.t_sent <- t.t_sent + 1;
      t.t_bytes <- t.t_bytes +. float_of_int size;
      (* The frame string itself is queued, shared with every other
         destination of the same broadcast. *)
      Queue.add frame c.c_q;
      if c.c_connected then pump t dst c
    end

(* ------------------------------------------------------------------ *)

let create exec ~n ?(base_port = 0) ?(host = "127.0.0.1") () =
  let t =
    {
      exec;
      n;
      host;
      t_ports = Array.init n (fun i -> if base_port = 0 then 0 else base_port + i);
      handlers = Array.make n None;
      peers =
        Array.init n (fun _ ->
            { p_conn = None; p_backoff_ms = backoff_base_ms; p_retry_at_ms = 0.0 });
      listeners = Array.make n None;
      inbound = Array.init n (fun _ -> ref []);
      t_sent = 0;
      t_dropped = 0;
      t_bytes = 0.0;
      t_flushes = 0;
      t_write_s = 0.0;
      t_read_s = 0.0;
      t_deliver_s = 0.0;
      t_reconnects = 0;
      t_dial_failures = 0;
    }
  in
  for i = 0 to n - 1 do
    t.listeners.(i) <- Some (listen_replica t i)
  done;
  t

let ports t = Array.copy t.t_ports

let transport t =
  {
    Backend.Transport.n = t.n;
    send = (fun ~src:_ ~dst ~size frame -> send t ~dst ~size frame);
    broadcast =
      (fun ~src ~size ~include_self frame ->
        for dst = 0 to t.n - 1 do
          if include_self || dst <> src then send t ~dst ~size frame
        done);
    set_handler = (fun replica f -> t.handlers.(replica) <- Some f);
    stats =
      (fun () ->
        {
          Backend.Transport.sent = t.t_sent;
          dropped = t.t_dropped;
          partitioned = 0;
          bytes = t.t_bytes;
        });
  }

let net_stats t =
  {
    flushes = t.t_flushes;
    write_us = 1e6 *. t.t_write_s;
    read_us = 1e6 *. t.t_read_s;
    deliver_us = 1e6 *. t.t_deliver_s;
    reconnects = t.t_reconnects;
    dial_failures = t.t_dial_failures;
  }

(* Test hooks: simulate replica [i]'s process dying (its listener and every
   connection it accepted vanish; peers' established connections to it hit
   ECONNRESET/EPIPE on their next write) and coming back on the same port. *)

let close_replica t i =
  (match t.listeners.(i) with
  | Some fd ->
    Backend_realtime.remove_poller t.exec fd;
    close_quiet fd;
    t.listeners.(i) <- None
  | None -> ());
  List.iter
    (fun fd ->
      Backend_realtime.remove_poller t.exec fd;
      close_quiet fd)
    !(t.inbound.(i));
  t.inbound.(i) := []

let reopen_replica t i =
  match t.listeners.(i) with
  | Some _ -> ()
  | None -> t.listeners.(i) <- Some (listen_replica t i)

let shutdown t =
  for i = 0 to t.n - 1 do
    close_replica t i;
    (match t.peers.(i).p_conn with
    | Some c ->
      Backend_realtime.remove_wpoller t.exec c.c_fd;
      close_quiet c.c_fd;
      t.peers.(i).p_conn <- None
    | None -> ())
  done
