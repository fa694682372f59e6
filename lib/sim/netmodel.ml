module Rng = Shoalpp_support.Rng

type config = {
  bandwidth_bytes_per_ms : float;
  jitter_ms : float;
  epoch_ms : float;
  epoch_extra_mean_ms : float;
  cpu_fixed_ms : float;
  cpu_per_byte_ms : float;
  loopback_ms : float;
}

let default_config =
  {
    bandwidth_bytes_per_ms = 125_000.0;
    jitter_ms = 2.0;
    epoch_ms = 2_000.0;
    epoch_extra_mean_ms = 8.0;
    cpu_fixed_ms = 0.002;
    cpu_per_byte_ms = 0.0000004;
    loopback_ms = 0.01;
  }

(* A broadcast's deliveries to one destination region, sorted by delivery
   time. Exactly one engine timer is live per envelope: it fires the head
   delivery, then reschedules itself for the next — so a fan-out to n
   replicas keeps [regions] timers in the queue rather than n, and the
   per-delivery closure is allocated once per envelope (pooled), not once
   per message. Delivery times are computed eagerly at broadcast time, so
   batching changes neither the schedule nor any random draw. *)
type 'msg envelope = {
  mutable env_src : int;
  mutable env_msg : 'msg option; (* [None] while pooled, releasing the payload *)
  env_dsts : int array;
  env_times : float array;
  mutable env_count : int;
  mutable env_index : int;
  mutable env_fire : unit -> unit; (* fixed closure over this envelope *)
}

type 'msg t = {
  engine : Engine.t;
  topology : Topology.t;
  assignment : int array;
  fault : Faults.timeline;
  config : config;
  n : int;
  nregions : int;
  egress_free_at : float array;
  cpu_free_at : float array;
  rngs : Rng.t array;
  handlers : (src:int -> 'msg -> unit) option array;
  (* Precomputed broadcast orders per sender: farthest first. *)
  far_order : int array array;
  seed : int;
  (* Memoized slow-epoch extra delay: (epoch index, value) per replica. *)
  epoch_cache : (int * float) array;
  (* Envelope free-list plus per-region scratch for the broadcast in
     progress (broadcast runs synchronously, so one scratch array is safe). *)
  mutable env_pool : 'msg envelope list;
  group_env : 'msg envelope option array; (* by region *)
  mutable sent : int;
  mutable dropped : int;
  mutable partitioned : int;
  mutable bytes : float;
  mutable oob_sent : int;
  mutable oob_blocked : int;
}

let base_delay t ~src ~dst =
  if src = dst then t.config.loopback_ms
  else Topology.one_way_ms t.topology t.assignment.(src) t.assignment.(dst)

let create ~engine ~topology ~assignment ~fault ~config ~seed () =
  let n = Array.length assignment in
  let master = Rng.create seed in
  let rngs = Array.init n (fun _ -> Rng.split master) in
  let far_order =
    Array.init n (fun src ->
        let others = Array.init n (fun i -> i) in
        Array.sort
          (fun a b ->
            let da = Topology.one_way_ms topology assignment.(src) assignment.(a) in
            let db = Topology.one_way_ms topology assignment.(src) assignment.(b) in
            (* Farthest first; ties by id for determinism. *)
            let c = compare db da in
            if c <> 0 then c else compare a b)
          others;
        others)
  in
  let nregions = 1 + Array.fold_left (fun acc r -> if r > acc then r else acc) 0 assignment in
  {
    engine;
    topology;
    assignment;
    fault;
    config;
    n;
    nregions;
    egress_free_at = Array.make n 0.0;
    cpu_free_at = Array.make n 0.0;
    rngs;
    handlers = Array.make n None;
    far_order;
    seed;
    epoch_cache = Array.make n (-1, 0.0);
    env_pool = [];
    group_env = Array.make nregions None;
    sent = 0;
    dropped = 0;
    partitioned = 0;
    bytes = 0.0;
    oob_sent = 0;
    oob_blocked = 0;
  }

(* Deterministic non-stationary slowness: replica [src]'s extra egress delay
   is resampled from an exponential each epoch, derived from (seed, src,
   epoch) so it is independent of message traffic. *)
let extra_delay_ms t ~src ~time =
  if t.config.epoch_ms <= 0.0 || t.config.epoch_extra_mean_ms <= 0.0 then 0.0
  else begin
    let epoch = int_of_float (time /. t.config.epoch_ms) in
    let cached_epoch, cached = t.epoch_cache.(src) in
    if cached_epoch = epoch then cached
    else begin
      let rng = Rng.create ((t.seed * 1_000_003) + (src * 7919) + epoch) in
      let v = Rng.exponential rng t.config.epoch_extra_mean_ms in
      t.epoch_cache.(src) <- (epoch, v);
      v
    end
  end

let n t = t.n
let engine t = t.engine
let region_of t i = t.assignment.(i)
let set_handler t i f = t.handlers.(i) <- Some f
let fault t = t.fault
let base_delay_ms t ~src ~dst = base_delay t ~src ~dst

(* Receiver CPU sequencing: processing of a message arriving [at] begins
   when [dst]'s core is free; the finish time is left in
   [t.cpu_free_at.(dst)], the message's delivery time. *)
let[@inline] sequence_cpu t ~dst ~size ~at =
  let cost = t.config.cpu_fixed_ms +. (float_of_int size *. t.config.cpu_per_byte_ms) in
  t.cpu_free_at.(dst) <- Float.max at t.cpu_free_at.(dst) +. cost

(* One timer for one sequenced message; the crash check is at delivery time. *)
let schedule_delivery t ~src ~dst msg =
  ignore
    (Engine.schedule_at t.engine ~at:t.cpu_free_at.(dst) (fun () ->
         if not (Faults.is_crashed t.fault ~replica:dst ~time:(Engine.now t.engine))
         then begin
           match t.handlers.(dst) with
           | Some handler -> handler ~src msg
           | None -> ()
         end))

let deliver_loopback t ~src ~dst ~size ~now msg =
  t.sent <- t.sent + 1;
  sequence_cpu t ~dst ~size ~at:(now +. t.config.loopback_ms);
  schedule_delivery t ~src ~dst msg

(* The one per-destination planner for a remote message sent at [now]:
   egress serialization, the jitter/drop draws, the partition check, the
   arrival time and receiver CPU sequencing. Returns [false] when the
   message is lost; otherwise its delivery time is [t.cpu_free_at.(dst)].
   [send] and [broadcast] differ only in how they schedule that delivery. *)
let plan t ~src ~dst ~size ~now =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes +. float_of_int size;
  let ser = float_of_int size /. t.config.bandwidth_bytes_per_ms in
  let out_at = Float.max now t.egress_free_at.(src) +. ser in
  t.egress_free_at.(src) <- out_at;
  let rng = t.rngs.(src) in
  let drop_rate = Faults.egress_drop_rate t.fault ~src ~time:out_at in
  (* Sample jitter unconditionally so drop injection does not perturb the
     random stream of surviving messages. *)
  let jitter =
    if t.config.jitter_ms <= 0.0 then 0.0
    else Rng.lognormal rng ~mu:(log t.config.jitter_ms) ~sigma:0.5
  in
  let dropped = drop_rate > 0.0 && Rng.bernoulli rng drop_rate in
  (* Partition evaluation is pure (no RNG), checked after jitter/drop
     sampling so an active partition leaves surviving traffic's random
     stream untouched. The message is charged for egress — the sender's
     NIC transmits; the network eats it. *)
  if not (Faults.reachable t.fault ~src ~dst ~time:out_at) then begin
    t.partitioned <- t.partitioned + 1;
    false
  end
  else if dropped then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    let at = out_at +. base_delay t ~src ~dst +. jitter +. extra_delay_ms t ~src ~time:out_at in
    sequence_cpu t ~dst ~size ~at;
    true
  end

let send t ~src ~dst ~size msg =
  let now = Engine.now t.engine in
  if Faults.is_crashed t.fault ~replica:src ~time:now then ()
  else if src = dst then deliver_loopback t ~src ~dst ~size ~now msg
  else if plan t ~src ~dst ~size ~now then schedule_delivery t ~src ~dst msg

(* Fire the envelope's head delivery (crash checked at delivery time, like
   [send]'s callback), then chain the timer to the next one. *)
let fire_envelope t env =
  (match env.env_msg with
  | None -> ()
  | Some msg ->
    let dst = env.env_dsts.(env.env_index) in
    if not (Faults.is_crashed t.fault ~replica:dst ~time:(Engine.now t.engine)) then (
      match t.handlers.(dst) with
      | Some handler -> handler ~src:env.env_src msg
      | None -> ()));
  env.env_index <- env.env_index + 1;
  if env.env_index < env.env_count then
    ignore (Engine.schedule_at t.engine ~at:env.env_times.(env.env_index) env.env_fire)
  else begin
    env.env_msg <- None;
    t.env_pool <- env :: t.env_pool
  end

let alloc_envelope t =
  match t.env_pool with
  | env :: rest ->
    t.env_pool <- rest;
    env
  | [] ->
    let env =
      {
        env_src = 0;
        env_msg = None;
        env_dsts = Array.make t.n 0;
        env_times = Array.make t.n 0.0;
        env_count = 0;
        env_index = 0;
        env_fire = ignore;
      }
    in
    env.env_fire <- (fun () -> fire_envelope t env);
    env

(* Stable insertion sort of the (time, dst) pairs — per-receiver CPU queues
   make delivery times non-monotone in send order, and the chained timer
   must walk them in time order. Groups hold at most n entries and are
   typically tiny (replicas per region). *)
let sort_envelope env =
  for i = 1 to env.env_count - 1 do
    let ti = env.env_times.(i) and di = env.env_dsts.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && env.env_times.(!j) > ti do
      env.env_times.(!j + 1) <- env.env_times.(!j);
      env.env_dsts.(!j + 1) <- env.env_dsts.(!j);
      decr j
    done;
    env.env_times.(!j + 1) <- ti;
    env.env_dsts.(!j + 1) <- di
  done

(* Batched fan-out. Per destination, the planning is [send]'s ([plan]) —
   only the engine scheduling differs: surviving deliveries are grouped by
   destination region into pooled envelopes, each driven by one chained
   timer. *)
let broadcast t ~src ~size ?(include_self = true) msg =
  let order = t.far_order.(src) in
  let now = Engine.now t.engine in
  if Faults.is_crashed t.fault ~replica:src ~time:now then ()
  else begin
    Array.iter
      (fun dst ->
        if dst = src then begin
          if include_self then deliver_loopback t ~src ~dst ~size ~now msg
        end
        else if plan t ~src ~dst ~size ~now then begin
          let region = t.assignment.(dst) in
          let env =
            match t.group_env.(region) with
            | Some env -> env
            | None ->
              let env = alloc_envelope t in
              env.env_src <- src;
              env.env_msg <- Some msg;
              env.env_count <- 0;
              env.env_index <- 0;
              t.group_env.(region) <- Some env;
              env
          in
          env.env_dsts.(env.env_count) <- dst;
          env.env_times.(env.env_count) <- t.cpu_free_at.(dst);
          env.env_count <- env.env_count + 1
        end)
      order;
    for region = 0 to t.nregions - 1 do
      match t.group_env.(region) with
      | None -> ()
      | Some env ->
        t.group_env.(region) <- None;
        sort_envelope env;
        ignore (Engine.schedule_at t.engine ~at:env.env_times.(0) env.env_fire)
    done
  end

(* Out-of-band control plane: checkpoint votes and catch-up sync traffic.

   Deliberately bypasses the egress pipe, the jitter/drop RNG streams, and
   the receiver CPU queue: an in-band control message would advance the
   per-sender random stream and the egress/CPU cursors, shifting the timing
   of every subsequent protocol message — and the golden-determinism
   contract requires commit sequences byte-identical with checkpointing on
   vs off. Control traffic still honors crash faults (both ends, crash
   checked again at fire time) and partitions (a pure predicate), so fault
   scenarios exercise it realistically; it is just invisible to the data
   plane's queuing model. Real transports carry the same messages in-band —
   there the OS scheduler, not a seeded RNG, owns timing. *)
let oob_pad_ms = 0.25

let send_oob t ~src ~dst msg =
  let now = Engine.now t.engine in
  if Faults.is_crashed t.fault ~replica:src ~time:now then ()
  else if not (Faults.reachable t.fault ~src ~dst ~time:now) then
    t.oob_blocked <- t.oob_blocked + 1
  else begin
    t.oob_sent <- t.oob_sent + 1;
    let at = now +. base_delay t ~src ~dst +. oob_pad_ms in
    ignore
      (Engine.schedule_at t.engine ~at (fun () ->
           if not (Faults.is_crashed t.fault ~replica:dst ~time:(Engine.now t.engine))
           then begin
             match t.handlers.(dst) with
             | Some handler -> handler ~src msg
             | None -> ()
           end))
  end

let broadcast_oob t ~src ?(include_self = true) msg =
  for dst = 0 to t.n - 1 do
    if dst <> src || include_self then send_oob t ~src ~dst msg
  done

let messages_sent t = t.sent
let messages_dropped t = t.dropped
let messages_partitioned t = t.partitioned
let bytes_sent t = t.bytes
let oob_sent t = t.oob_sent
let oob_blocked t = t.oob_blocked
