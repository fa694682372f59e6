module Backend = Shoalpp_backend.Backend
module Int_map = Map.Make (Int)

type entry = { lane : int; round : int; payload : unit -> string }
type pending = { cb : unit -> unit; entry : entry option }

type t = {
  timers : Backend.Timers.t;
  sync_latency_ms : float;
  retain : bool;
  mutable device_busy : bool;
  mutable queue : pending list; (* reversed arrival order *)
  mutable retained : entry list; (* synced, newest first *)
  mutable appends : int;
  mutable syncs : int;
}

let create ~timers ~sync_latency_ms ?(retain = false) () =
  {
    timers;
    sync_latency_ms;
    retain;
    device_busy = false;
    queue = [];
    retained = [];
    appends = 0;
    syncs = 0;
  }

let truncate_below t ~lane ~round =
  let before = List.length t.retained in
  t.retained <- List.filter (fun e -> e.lane <> lane || e.round >= round) t.retained;
  before - List.length t.retained

(* Simulated total disk loss: in-flight appends keep their callbacks (the
   device still completes the sync) and are retained when it does. *)
let clear t = t.retained <- []

let rec start_sync t =
  match t.queue with
  | [] -> t.device_busy <- false
  | pending ->
    t.device_busy <- true;
    (* Group commit: one sync covers everything queued right now. *)
    let batch = List.rev pending in
    t.queue <- [];
    t.syncs <- t.syncs + 1;
    ignore
      (t.timers.Backend.Timers.schedule ~after:t.sync_latency_ms (fun () ->
           List.iter
             (fun p ->
               (* An entry is durable (replayable on recovery) only once its
                  sync completes — appends lost mid-sync model a real crash. *)
               (match p.entry with
               | Some e when t.retain -> t.retained <- e :: t.retained
               | _ -> ());
               p.cb ())
             batch;
           start_sync t))

let append t ?entry cb =
  t.appends <- t.appends + 1;
  t.queue <- { cb; entry } :: t.queue;
  if not t.device_busy then start_sync t

let entries t = List.rev_map (fun e -> (e.lane, e.payload ())) t.retained

let segments t =
  Int_map.bindings
    (List.fold_left
       (fun acc e -> Int_map.update e.lane (fun c -> Some (1 + Option.value c ~default:0)) acc)
       Int_map.empty t.retained)

let retains t = t.retain
let appends t = t.appends
let syncs t = t.syncs
