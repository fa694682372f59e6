(* Named counters, gauges and log-bucketed (HDR-style) histograms.

   The registry is the measurement substrate of the observability layer:
   protocol code records into handles obtained by name; reporting code
   snapshots the whole registry at the end of a run. Histograms use
   geometric buckets (~7% relative error per bucket), so recording is O(1)
   and allocation-free while quantiles remain accurate enough for latency
   breakdowns spanning 0.01 ms .. hours. *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

module Histogram = struct
  (* Geometric buckets: bucket 0 holds values <= [lo]; bucket i holds
     (lo*growth^(i-1), lo*growth^i]; the last bucket is unbounded above. *)
  let lo = 0.001
  let growth = 1.07
  let nbuckets = 400
  let log_growth = log growth

  type t = {
    h_name : string;
    mutable count : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
    buckets : int array;
  }

  let create name =
    {
      h_name = name;
      count = 0;
      sum = 0.0;
      min_v = infinity;
      max_v = neg_infinity;
      buckets = Array.make nbuckets 0;
    }

  let bucket_of v =
    if v <= lo then 0
    else begin
      let i = 1 + int_of_float (log (v /. lo) /. log_growth) in
      if i >= nbuckets then nbuckets - 1 else i
    end

  (* Representative value for bucket [i]: geometric midpoint of its bounds. *)
  let bucket_value i =
    if i = 0 then lo else lo *. (growth ** (float_of_int i -. 0.5))

  let observe_in t ~bucket v =
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    t.buckets.(bucket) <- t.buckets.(bucket) + 1

  let observe t v = observe_in t ~bucket:(bucket_of v) v

  let name t = t.h_name
  let count t = t.count
  let sum t = t.sum
  let mean t = if t.count = 0 then nan else t.sum /. float_of_int t.count
  let min t = if t.count = 0 then nan else t.min_v
  let max t = if t.count = 0 then nan else t.max_v

  (* Quantile by cumulative bucket counts; exact at the extremes. *)
  let quantile t q =
    if t.count = 0 then nan
    else if q <= 0.0 then t.min_v
    else if q >= 1.0 then t.max_v
    else begin
      let rank = q *. float_of_int t.count in
      let acc = ref 0 in
      let result = ref t.max_v in
      (try
         for i = 0 to nbuckets - 1 do
           acc := !acc + t.buckets.(i);
           if float_of_int !acc >= rank then begin
             result := bucket_value i;
             raise Exit
           end
         done
       with Exit -> ());
      (* Clamp to observed range: bucket midpoints can stray outside it. *)
      Float.min t.max_v (Float.max t.min_v !result)
    end

  (* Upper edge of bucket [i]; the last bucket is unbounded above. *)
  let upper_bound i =
    if i >= nbuckets - 1 then infinity else lo *. (growth ** float_of_int i)

  (* Sparse cumulative view — (upper_bound, cumulative_count) for each
     non-empty bucket, bounds strictly increasing, final count = [count t].
     This is exactly the shape a Prometheus histogram exposition needs. *)
  let cumulative_buckets t =
    let acc = ref 0 in
    let out = ref [] in
    for i = 0 to nbuckets - 1 do
      if t.buckets.(i) > 0 then begin
        acc := !acc + t.buckets.(i);
        out := (upper_bound i, !acc) :: !out
      end
    done;
    List.rev !out

  let merge_into ~src ~dst =
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum +. src.sum;
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v;
    Array.iteri (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c) src.buckets
end

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 64; gauges = Hashtbl.create 16; histograms = Hashtbl.create 32 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace t.counters name c;
    c

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let counter_value c = c.c_value
let counter_name c = c.c_name

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0.0 } in
    Hashtbl.replace t.gauges name g;
    g

let set g v = g.g_value <- v

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = Histogram.create name in
    Hashtbl.replace t.histograms name h;
    h

let observe h v = Histogram.observe h v

(* By-name conveniences for cold paths. *)
let incr_named ?by t name = incr ?by (counter t name)
let observe_named t name v = observe (histogram t name) v
let set_named t name v = set (gauge t name) v

let get_counter t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.c_value | None -> 0

let get_histogram t name = Hashtbl.find_opt t.histograms name

(* ------------------------------------------------------------------ *)
(* Snapshots: immutable views for reports and export.                  *)

type histogram_stats = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_mean : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
  hs_buckets : (float * int) list;
}

type snapshot = {
  snap_counters : (string * int) list;  (** sorted by name *)
  snap_gauges : (string * float) list;
  snap_histograms : histogram_stats list;
}

let stats_of_histogram h =
  {
    hs_name = Histogram.name h;
    hs_count = Histogram.count h;
    hs_sum = Histogram.sum h;
    hs_mean = Histogram.mean h;
    hs_min = Histogram.min h;
    hs_max = Histogram.max h;
    hs_p50 = Histogram.quantile h 0.5;
    hs_p90 = Histogram.quantile h 0.9;
    hs_p99 = Histogram.quantile h 0.99;
    hs_buckets = Histogram.cumulative_buckets h;
  }

(* Sorted-key traversal (never raw [Hashtbl.iter]): snapshots feed the
   metrics exporters, so their order must be byte-stable across OCaml
   versions, not whatever the hash function yields. *)
let snapshot t =
  {
    snap_counters =
      Sorted_tbl.bindings ~cmp:String.compare t.counters
      |> List.map (fun (name, c) -> (name, c.c_value));
    snap_gauges =
      Sorted_tbl.bindings ~cmp:String.compare t.gauges
      |> List.map (fun (name, g) -> (name, g.g_value));
    snap_histograms =
      Sorted_tbl.bindings ~cmp:String.compare t.histograms
      |> List.map (fun (_, h) -> stats_of_histogram h);
  }

let empty_snapshot = { snap_counters = []; snap_gauges = []; snap_histograms = [] }

let snap_counter snap name =
  match List.assoc_opt name snap.snap_counters with Some v -> v | None -> 0

let snap_histogram snap name =
  List.find_opt (fun h -> String.equal h.hs_name name) snap.snap_histograms

let merge ~src ~dst =
  Sorted_tbl.iter ~cmp:String.compare
    (fun name c -> incr ~by:c.c_value (counter dst name))
    src.counters;
  Sorted_tbl.iter ~cmp:String.compare (fun name g -> set (gauge dst name) g.g_value) src.gauges;
  Sorted_tbl.iter ~cmp:String.compare
    (fun name h -> Histogram.merge_into ~src:h ~dst:(histogram dst name))
    src.histograms
