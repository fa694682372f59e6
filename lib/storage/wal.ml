module Backend = Shoalpp_backend.Backend

(* A retained payload is a thunk: the record is encoded only if it is ever
   replayed ({!entries}), not on every append. *)
type pending = { cb : unit -> unit; payload : (unit -> string) option }

type segment = {
  seg_id : int;
  mutable seg_entries : (unit -> string) list; (* synced retained payloads, reversed *)
  mutable seg_count : int;
}

type t = {
  timers : Backend.Timers.t;
  sync_latency_ms : float;
  group_commit : bool;
  retain : bool;
  mutable device_busy : bool;
  mutable queue : pending list; (* reversed arrival order *)
  mutable segments : segment list; (* newest first; never empty *)
  mutable next_seg : int;
  mutable appends : int;
  mutable syncs : int;
  mutable bytes : float;
  mutable rotations : int;
  mutable truncated_segments : int;
  mutable truncated_entries : int;
}

let fresh_segment t =
  let seg = { seg_id = t.next_seg; seg_entries = []; seg_count = 0 } in
  t.next_seg <- t.next_seg + 1;
  seg

let create ~timers ~sync_latency_ms ?(group_commit = true) ?(retain = false) () =
  let t =
    {
      timers;
      sync_latency_ms;
      group_commit;
      retain;
      device_busy = false;
      queue = [];
      segments = [];
      next_seg = 0;
      appends = 0;
      syncs = 0;
      bytes = 0.0;
      rotations = 0;
      truncated_segments = 0;
      truncated_entries = 0;
    }
  in
  t.segments <- [ fresh_segment t ];
  t

let current_segment t = (List.hd t.segments).seg_id

let rotate t =
  t.rotations <- t.rotations + 1;
  let seg = fresh_segment t in
  t.segments <- seg :: t.segments;
  seg.seg_id

let truncate_below t ~seg =
  (* Drop whole segments with id < [seg]; the current segment always
     survives even if its id is below the floor, so an over-eager caller
     cannot lose in-flight durability. *)
  match t.segments with
  | [] -> 0
  | current :: older ->
    let dropped = ref 0 in
    let kept =
      List.filter
        (fun s ->
          if s.seg_id < seg then (
            dropped := !dropped + s.seg_count;
            t.truncated_segments <- t.truncated_segments + 1;
            false)
          else true)
        older
    in
    t.segments <- current :: kept;
    t.truncated_entries <- t.truncated_entries + !dropped;
    !dropped

let clear t =
  (* Simulated total disk loss: every retained segment vanishes, in-flight
     appends keep their callbacks (the device still completes the sync) but
     their payloads land in the fresh post-wipe segment. *)
  List.iter
    (fun s ->
      t.truncated_entries <- t.truncated_entries + s.seg_count;
      t.truncated_segments <- t.truncated_segments + 1)
    t.segments;
  t.segments <- [ fresh_segment t ]

let rec start_sync t =
  match t.queue with
  | [] -> t.device_busy <- false
  | pending ->
    t.device_busy <- true;
    (* Group commit: one sync covers everything queued right now. *)
    let batch = if t.group_commit then List.rev pending else [ List.hd (List.rev pending) ] in
    t.queue <- (if t.group_commit then [] else List.rev (List.tl (List.rev pending)));
    t.syncs <- t.syncs + 1;
    ignore
      (t.timers.Backend.Timers.schedule ~after:t.sync_latency_ms (fun () ->
           List.iter
             (fun p ->
               (* A payload is durable (replayable on recovery) only once its
                  sync completes — appends lost mid-sync model a real crash.
                  It lands in the segment current at completion time, so a
                  rotation racing an in-flight sync keeps the record in the
                  retained (newer) segment. *)
               (match p.payload with
               | Some payload when t.retain ->
                 let seg = List.hd t.segments in
                 seg.seg_entries <- payload :: seg.seg_entries;
                 seg.seg_count <- seg.seg_count + 1
               | _ -> ());
               p.cb ())
             batch;
           start_sync t))

let append t ~size ?payload cb =
  t.appends <- t.appends + 1;
  t.bytes <- t.bytes +. float_of_int size;
  t.queue <- { cb; payload } :: t.queue;
  if not t.device_busy then start_sync t

let entries t =
  List.fold_left (fun acc seg -> List.rev_append seg.seg_entries acc) [] t.segments
  |> List.map (fun payload -> payload ())

let segments t =
  List.rev_map (fun s -> (s.seg_id, s.seg_count)) t.segments

let retains t = t.retain
let appends t = t.appends
let syncs t = t.syncs
let bytes_written t = t.bytes
let rotations t = t.rotations
let truncated_entries t = t.truncated_entries
let truncated_segments t = t.truncated_segments
