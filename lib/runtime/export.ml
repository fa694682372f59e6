(* Trace / metrics exporters: JSONL event streams, Chrome trace_event JSON
   (loadable in Perfetto / chrome://tracing) and metric-registry snapshots.

   JSON support is a deliberately tiny hand-rolled encoder + recursive-descent
   parser: the shapes involved are flat and small, and the parser exists so
   tests can round-trip what we emit without an external dependency. *)

module Trace = Shoalpp_sim.Trace
module Tel = Shoalpp_support.Telemetry

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape_into buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let float_repr f =
    if Float.is_nan f || f = infinity || f = neg_infinity then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let rec to_buf buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buf buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          to_buf buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    to_buf buf v;
    Buffer.contents buf

  exception Bad of string

  (* Recursive-descent parser over the full input string. *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at %d" msg !pos)) in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      if peek () = Some c then advance () else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
        pos := !pos + String.length word;
        v
      end
      else fail "bad literal"
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance ()
          | Some '/' -> Buffer.add_char buf '/'; advance ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "bad \\u escape";
            let code = int_of_string ("0x" ^ String.sub s !pos 4) in
            pos := !pos + 4;
            (* Escaped BMP codepoint -> UTF-8. We only emit ASCII, so this
               path matters just for foreign input. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
          | _ -> fail "bad escape");
          go ()
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let number_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while (match peek () with Some c when number_char c -> true | _ -> false) do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with Some f -> Float f | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((k, v) :: acc)
            | Some '}' ->
              advance ();
              Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
      | None -> fail "unexpected end of input"
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Some v
    | exception Bad _ -> None
    | exception Failure _ -> None

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let to_float_opt = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
  let to_int_opt = function Int i -> Some i | _ -> None
  let to_string_opt = function Str s -> Some s | _ -> None
end

(* One event per line: time/replica/instance identity plus the typed kind's
   fields flattened into the same object, serialized straight into [buf]
   with no intermediate JSON tree — traces run to millions of events.
   {!events_of_jsonl} parses it back. *)
let event_to_buf buf (e : Trace.event) =
  Buffer.add_string buf "{\"ts\":";
  Buffer.add_string buf (Json.float_repr e.Trace.time);
  Buffer.add_string buf ",\"replica\":";
  Buffer.add_string buf (string_of_int e.Trace.replica);
  Buffer.add_string buf ",\"instance\":";
  Buffer.add_string buf (string_of_int e.Trace.instance);
  Buffer.add_string buf ",\"tag\":\"";
  Json.escape_into buf (Trace.tag e.Trace.kind);
  Buffer.add_char buf '"';
  List.iter
    (fun (k, f) ->
      Buffer.add_string buf ",\"";
      Json.escape_into buf k;
      Buffer.add_string buf "\":";
      match f with
      | Trace.I i -> Buffer.add_string buf (string_of_int i)
      | Trace.S s ->
        Buffer.add_char buf '"';
        Json.escape_into buf s;
        Buffer.add_char buf '"')
    (Trace.fields e.Trace.kind);
  Buffer.add_char buf '}'

let event_of_json j =
  let ( let* ) = Option.bind in
  let* ts = Option.bind (Json.member "ts" j) Json.to_float_opt in
  let* replica = Option.bind (Json.member "replica" j) Json.to_int_opt in
  let* instance = Option.bind (Json.member "instance" j) Json.to_int_opt in
  let* tag = Option.bind (Json.member "tag" j) Json.to_string_opt in
  let fields =
    match j with
    | Json.Obj kvs ->
      List.filter_map
        (fun (k, v) ->
          match (k, v) with
          | ("ts" | "replica" | "instance" | "tag"), _ -> None
          | k, Json.Int i -> Some (k, Trace.I i)
          | k, Json.Str s -> Some (k, Trace.S s)
          | _ -> None)
        kvs
    | _ -> []
  in
  (* Kinds that carry their own [replica] field (crash/recovery/sync
     lifecycle events) serialize it on top of the meta key of the same
     name — one JSON member serves both. Re-expose the meta value to the
     field decoder or those kinds fail to round-trip and vanish. *)
  let fields = ("replica", Trace.I replica) :: fields in
  let* kind = Trace.kind_of_fields ~tag fields in
  Some { Trace.time = ts; replica; instance; kind }

let jsonl_of_events events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      event_to_buf buf e;
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let events_of_jsonl text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if String.trim line = "" then None
         else Option.bind (Json.parse line) event_of_json)

(* Streaming writers reuse one buffer and drain it to the channel whenever
   it crosses [flush_threshold], so writing a trace needs O(chunk) memory
   rather than one string the size of the whole export. *)
let flush_threshold = 1 lsl 16

let write_jsonl oc events =
  let buf = Buffer.create flush_threshold in
  List.iter
    (fun e ->
      event_to_buf buf e;
      Buffer.add_char buf '\n';
      if Buffer.length buf >= flush_threshold then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end)
    events;
  Buffer.output_buffer oc buf

(* Chrome trace_event format (the JSON Object Format variant): instant
   events on pid = replica, tid = DAG instance, timestamps in microseconds.
   Loads in Perfetto and chrome://tracing. *)
let chrome_metadata events =
  let seen_pids = Hashtbl.create 16 in
  let seen_tids = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace seen_pids e.Trace.replica ();
      Hashtbl.replace seen_tids (e.Trace.replica, e.Trace.instance) ())
    events;
  let meta_name ~pid ?tid ~kind name =
    Json.Obj
      ([ ("name", Json.Str kind); ("ph", Json.Str "M"); ("pid", Json.Int pid) ]
      @ (match tid with Some t -> [ ("tid", Json.Int t) ] | None -> [])
      @ [ ("args", Json.Obj [ ("name", Json.Str name) ]) ])
  in
  (* Sorted-key traversal: metadata order is part of the exported bytes
     (golden digests hash them), so it must not depend on hash order. *)
  let pair_compare (pa, ta) (pb, tb) =
    let c = Int.compare pa pb in
    if c <> 0 then c else Int.compare ta tb
  in
  List.map
    (fun pid -> meta_name ~pid ~kind:"process_name" (Printf.sprintf "replica %d" pid))
    (Shoalpp_support.Sorted_tbl.keys ~cmp:Int.compare seen_pids)
  @ List.map
      (fun (pid, tid) -> meta_name ~pid ~tid ~kind:"thread_name" (Printf.sprintf "dag %d" tid))
      (Shoalpp_support.Sorted_tbl.keys ~cmp:pair_compare seen_tids)

let category (e : Trace.event) =
  match e.Trace.kind with
  | Trace.Anchor_direct_fast _ | Trace.Anchor_direct_certified _ | Trace.Anchor_indirect _
  | Trace.Anchor_skipped _ | Trace.Segment_committed _ | Trace.Segment_interleaved _ ->
    "commit"
  | Trace.Proposal_created _ | Trace.Vote_cast _ | Trace.Cert_formed _ | Trace.Cert_received _
    ->
    "dag"
  | Trace.Timeout_fired _ | Trace.Fetch_requested _ | Trace.Gc_pruned _
  | Trace.Replica_crashed _ | Trace.Replica_recovered _ | Trace.Checkpoint_certified _
  | Trace.Sync_started _ | Trace.Sync_completed _ ->
    "recovery"
  | Trace.Partition_opened _ | Trace.Partition_healed _ | Trace.Equivocation_sent _
  | Trace.Anchor_withheld _ | Trace.Votes_delayed _ ->
    "fault"
  | Trace.Custom _ -> "custom"

(* One instant event: the tag as its name, its category, the time in
   microseconds (simulated ms x 1000), pid = replica, tid = DAG instance,
   and the kind's fields as [args]; serialized with no JSON tree. *)
let chrome_event_to_buf buf (e : Trace.event) =
  Buffer.add_string buf "{\"name\":\"";
  Json.escape_into buf (Trace.tag e.Trace.kind);
  Buffer.add_string buf "\",\"cat\":\"";
  Buffer.add_string buf (category e);
  Buffer.add_string buf "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
  Buffer.add_string buf (Json.float_repr (e.Trace.time *. 1000.0));
  Buffer.add_string buf ",\"pid\":";
  Buffer.add_string buf (string_of_int e.Trace.replica);
  Buffer.add_string buf ",\"tid\":";
  Buffer.add_string buf (string_of_int e.Trace.instance);
  Buffer.add_string buf ",\"args\":{";
  List.iteri
    (fun i (k, f) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Json.escape_into buf k;
      Buffer.add_string buf "\":";
      match f with
      | Trace.I v -> Buffer.add_string buf (string_of_int v)
      | Trace.S s ->
        Buffer.add_char buf '"';
        Json.escape_into buf s;
        Buffer.add_char buf '"')
    (Trace.fields e.Trace.kind);
  Buffer.add_string buf "}}"

(* Shared streaming renderer for both the in-memory and channel variants;
   [flush] is called between events once the caller's buffer is due a drain. *)
let chrome_into buf ~flush events =
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char buf ',' in
  List.iter
    (fun m ->
      sep ();
      Json.to_buf buf m)
    (chrome_metadata events);
  List.iter
    (fun e ->
      sep ();
      chrome_event_to_buf buf e;
      flush ())
    events;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}"

let chrome_trace events =
  let buf = Buffer.create 4096 in
  chrome_into buf ~flush:(fun () -> ()) events;
  Buffer.contents buf

let write_chrome_trace oc events =
  let buf = Buffer.create flush_threshold in
  chrome_into buf
    ~flush:(fun () ->
      if Buffer.length buf >= flush_threshold then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end)
    events;
  Buffer.output_buffer oc buf

let json_of_snapshot (s : Tel.snapshot) =
  let counters = List.map (fun (k, v) -> (k, Json.Int v)) s.Tel.snap_counters in
  let gauges = List.map (fun (k, v) -> (k, Json.Float v)) s.Tel.snap_gauges in
  let histograms =
    List.map
      (fun (h : Tel.histogram_stats) ->
        ( h.Tel.hs_name,
          Json.Obj
            [
              ("count", Json.Int h.Tel.hs_count);
              ("sum", Json.Float h.Tel.hs_sum);
              ("mean", Json.Float h.Tel.hs_mean);
              ("min", Json.Float h.Tel.hs_min);
              ("max", Json.Float h.Tel.hs_max);
              ("p50", Json.Float h.Tel.hs_p50);
              ("p90", Json.Float h.Tel.hs_p90);
              ("p99", Json.Float h.Tel.hs_p99);
            ] ))
      s.Tel.snap_histograms
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]

let metrics_json snapshot = Json.to_string (json_of_snapshot snapshot)
let write_metrics oc snapshot = output_string oc (metrics_json snapshot)
