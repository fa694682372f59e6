module Backend = Shoalpp_backend.Backend
module Int_map = Map.Make (Int)
module Int_tbl = Shoalpp_support.Int_tbl

type entry = { lane : int; round : int; payload : unit -> string }
type pending = { cb : unit -> unit; entry : entry option }

(* One lane's retained entries, bucketed by round so that a truncation
   drops whole rounds from the low end and never copies what it keeps.
   Each entry carries its append sequence number, which restores the
   append order across lanes and rounds on replay. *)
type lane_log = {
  rounds : (int * entry) list Int_tbl.t; (* round -> (seq, entry), newest first *)
  mutable low : int; (* no retained entry below this round *)
  mutable high : int; (* nor above this one *)
  mutable count : int;
}

type t = {
  timers : Backend.Timers.t;
  sync_latency_ms : float;
  retain : bool;
  mutable device_busy : bool;
  mutable queue : pending list; (* reversed arrival order *)
  mutable lanes : lane_log Int_map.t;
  mutable next_seq : int; (* append sequence of the next retained entry *)
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
    lanes = Int_map.empty;
    next_seq = 0;
    appends = 0;
    syncs = 0;
  }

let retain_entry t (e : entry) =
  let log =
    match Int_map.find_opt e.lane t.lanes with
    | Some log -> log
    | None ->
      let log = { rounds = Int_tbl.create 16; low = max_int; high = min_int; count = 0 } in
      t.lanes <- Int_map.add e.lane log t.lanes;
      log
  in
  let prev = Option.value ~default:[] (Int_tbl.find_opt log.rounds e.round) in
  Int_tbl.replace log.rounds e.round ((t.next_seq, e) :: prev);
  t.next_seq <- t.next_seq + 1;
  if e.round < log.low then log.low <- e.round;
  if e.round > log.high then log.high <- e.round;
  log.count <- log.count + 1

let truncate_below t ~lane ~round =
  match Int_map.find_opt lane t.lanes with
  | None -> 0
  | Some log ->
    let dropped = ref 0 in
    for r = log.low to min log.high (round - 1) do
      match Int_tbl.find_opt log.rounds r with
      | Some l ->
        dropped := !dropped + List.length l;
        Int_tbl.remove log.rounds r
      | None -> ()
    done;
    if round > log.low then log.low <- round;
    log.count <- log.count - !dropped;
    !dropped

(* Simulated total disk loss: in-flight appends keep their callbacks (the
   device still completes the sync) and are retained when it does. *)
let clear t = t.lanes <- Int_map.empty

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
               | Some e when t.retain -> retain_entry t e
               | _ -> ());
               p.cb ())
             batch;
           start_sync t))

let append t ?entry cb =
  t.appends <- t.appends + 1;
  t.queue <- { cb; entry } :: t.queue;
  if not t.device_busy then start_sync t

let entries t =
  let all = ref [] in
  Int_map.iter
    (fun _ log ->
      for r = log.low to log.high do
        match Int_tbl.find_opt log.rounds r with
        | Some l -> all := List.rev_append l !all
        | None -> ()
      done)
    t.lanes;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !all
  |> List.map (fun (_, e) -> (e.lane, e.payload ()))

let segments t =
  Int_map.fold (fun lane log acc -> if log.count > 0 then (lane, log.count) :: acc else acc) t.lanes []
  |> List.rev

let retains t = t.retain
let appends t = t.appends
let syncs t = t.syncs
