(* Delivery probe for traced runs, plus the offline codec and crypto timings
   taken from the payloads it samples.

   [install] re-registers every replica's transport handler as a timed call
   to [Replica.deliver], which is exactly the closure a replica registers
   for itself, so the protocol sees the same calls in the same order. The
   probe counts and times deliveries per message kind (control-plane
   checkpoint votes and sync traffic included) and keeps every k-th payload
   of each kind. Spans stay in memory; nothing is written until the run
   has ended. *)

module Backend = Shoalpp_backend.Backend
module Replica = Shoalpp_core.Replica
module Types = Shoalpp_dag.Types
module Committee = Shoalpp_dag.Committee
module Validation = Shoalpp_dag.Validation
module Node = Shoalpp_runtime.Node

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let kinds =
  [|
    "proposal";
    "vote";
    "certificate";
    "fetch_request";
    "fetch_response";
    "checkpoint_vote";
    "sync_request";
    "sync_response";
  |]

let kind_of : Types.message -> int = function
  | Types.Proposal _ -> 0
  | Types.Vote _ -> 1
  | Types.Certificate _ -> 2
  | Types.Fetch_request _ -> 3
  | Types.Fetch_response _ -> 4
  | Types.Checkpoint_vote _ -> 5
  | Types.Sync_request _ -> 6
  | Types.Sync_response _ -> 7

(* Every [sample_every]-th delivered payload of each kind is kept; a
   prime, so that it does not fall in step with the committee size. *)
let sample_every = 61

type t = {
  count : int array;  (** deliveries per kind *)
  deliver_ns : float array;  (** time inside [Replica.deliver] per kind *)
  samples : Replica.envelope list array;  (** sampled payloads, newest first *)
  mutable event_ns : float;  (** simulator: time inside engine steps, handlers included *)
  mutable events : int;
  mutable pending_max : int;  (** largest [Replica.pending_segments] seen at one replica *)
}

let create () =
  let k = Array.length kinds in
  {
    count = Array.make k 0;
    deliver_ns = Array.make k 0.0;
    samples = Array.make k [];
    event_ns = 0.0;
    events = 0;
    pending_max = 0;
  }

let install t backend replicas =
  Array.iteri
    (fun i replica ->
      Backend.set_handler backend i (fun ~src (env : Replica.envelope) ->
          let k = kind_of env.Replica.payload in
          let c = t.count.(k) in
          t.count.(k) <- c + 1;
          if c mod sample_every = 0 then t.samples.(k) <- env :: t.samples.(k);
          let t0 = now_ns () in
          Replica.deliver replica ~dag_id:env.Replica.dag_id ~src env.Replica.payload;
          t.deliver_ns.(k) <- t.deliver_ns.(k) +. (now_ns () -. t0)))
    replicas

let time_event t f =
  let t0 = now_ns () in
  let r = f () in
  t.event_ns <- t.event_ns +. (now_ns () -. t0);
  t.events <- t.events + 1;
  r

let poll_pending t replicas =
  Array.iter (fun r -> t.pending_max <- max t.pending_max (Replica.pending_segments r)) replicas

let deliveries t = Array.fold_left ( + ) 0 t.count
let deliver_ns_total t = Array.fold_left ( +. ) 0.0 t.deliver_ns

(* ---- offline timings on decoded copies ---------------------------- *)

type offline = {
  encode_ns : float array;  (** median per kind, 0 when none was delivered *)
  decode_ns : float array;
  verify_ns : float array;  (** [Validation.signatures_ok] on a never-verified copy *)
  bytes_per_msg : float;  (** delivery-weighted mean encoded size *)
}

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let m = Array.length a in
    if m mod 2 = 1 then a.(m / 2) else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.0

(* At most [cap] samples, spread evenly over the run. *)
let thin cap l =
  let a = Array.of_list (List.rev l) in
  let m = Array.length a in
  if m <= cap then Array.to_list a else List.init cap (fun i -> a.(i * m / cap))

let mean_ns ~reps f =
  let t0 = now_ns () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now_ns () -. t0) /. float_of_int reps

(* Every timing runs on a decoded copy, never on the delivered value:
   validation memoizes on physical identity, so the retained originals
   would be measured with the memo warm. A copy is verified exactly once.
   Up to 96 samples per kind; encode and decode are averaged over 16 calls,
   verification is timed on 4 copies of each sample. *)
let offline t ~committee =
  let cap = 96 and reps = 16 and verify_copies = 4 in
  let cluster_seed = committee.Committee.cluster_seed in
  let fresh enc =
    match Node.decode_envelope ~cluster_seed enc with
    | Some e -> e
    | None -> failwith "perfbench: a delivered message does not round-trip through the codec"
  in
  let k = Array.length kinds in
  let encode_ns = Array.make k 0.0
  and decode_ns = Array.make k 0.0
  and verify_ns = Array.make k 0.0
  and mean_bytes = Array.make k 0.0 in
  for i = 0 to k - 1 do
    let encs = List.map Node.encode_envelope (thin cap t.samples.(i)) in
    if encs <> [] then begin
      encode_ns.(i) <-
        median (List.map (fun e -> let c = fresh e in mean_ns ~reps (fun () -> Node.encode_envelope c)) encs);
      decode_ns.(i) <-
        median (List.map (fun e -> mean_ns ~reps (fun () -> Node.decode_envelope ~cluster_seed e)) encs);
      verify_ns.(i) <-
        median
          (List.concat_map
             (fun e ->
               List.init verify_copies (fun _ ->
                   let c = fresh e in
                   let t0 = now_ns () in
                   ignore (Sys.opaque_identity (Validation.signatures_ok ~committee c.Replica.payload));
                   now_ns () -. t0))
             encs);
      mean_bytes.(i) <-
        float_of_int (List.fold_left (fun acc e -> acc + String.length e) 0 encs)
        /. float_of_int (List.length encs)
    end
  done;
  let total = deliveries t in
  let bytes_per_msg =
    if total = 0 then 0.0
    else
      Array.fold_left ( +. ) 0.0 (Array.mapi (fun i b -> b *. float_of_int t.count.(i)) mean_bytes)
      /. float_of_int total
  in
  { encode_ns; decode_ns; verify_ns; bytes_per_msg }

(* Estimated verification time of the run: deliveries of each kind times
   the uncached cost of checking one. *)
let verify_ns_estimate t off =
  Array.fold_left ( +. ) 0.0
    (Array.mapi (fun i c -> float_of_int c *. off.verify_ns.(i)) t.count)
