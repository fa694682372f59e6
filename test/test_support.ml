(* Unit and property tests for the support library: RNG, heap, stats,
   bitset, varint, table formatting. *)

module Rng = Shoalpp_support.Rng
module Heap = Shoalpp_support.Heap
module Stats = Shoalpp_support.Stats
module Bitset = Shoalpp_support.Bitset
module Varint = Shoalpp_support.Varint
module Tablefmt = Shoalpp_support.Tablefmt

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 42 and b = Rng.create 43 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  checkb "different seeds diverge" true (!same < 2)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 13 in
    checkb "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_covers_range () =
  let rng = Rng.create 7 in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int rng 8) <- true
  done;
  Array.iteri (fun i s -> checkb (Printf.sprintf "value %d appears" i) true s) seen

let test_rng_int_in () =
  let rng = Rng.create 3 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-5) 5 in
    checkb "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_negative_bound_rejected () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    checkb "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_float_mean () =
  let rng = Rng.create 5 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "uniform mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 10.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "exp mean near 10" true (abs_float (mean -. 10.0) < 0.3)

let test_rng_normal_moments () =
  let rng = Rng.create 13 in
  let n = 100_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.normal rng ~mu:3.0 ~sigma:2.0 in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  checkb "normal mean" true (abs_float (mean -. 3.0) < 0.05);
  checkb "normal variance" true (abs_float (var -. 4.0) < 0.2)

let test_rng_bernoulli () =
  let rng = Rng.create 17 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.01 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "bernoulli rate near 0.01" true (abs_float (rate -. 0.01) < 0.003)

let test_rng_poisson_mean () =
  let rng = Rng.create 19 in
  let n = 50_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.poisson rng 3.0
  done;
  let mean = float_of_int !sum /. float_of_int n in
  checkb "poisson mean near 3" true (abs_float (mean -. 3.0) < 0.1)

let test_rng_split_independent () =
  let parent = Rng.create 23 in
  let child = Rng.split parent in
  (* The child stream should not be a shifted copy of the parent stream. *)
  let parent_vals = List.init 32 (fun _ -> Rng.bits64 parent) in
  let child_vals = List.init 32 (fun _ -> Rng.bits64 child) in
  checkb "split streams differ" true (parent_vals <> child_vals)

let test_rng_copy_same_stream () =
  let a = Rng.create 29 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 32 do
    check Alcotest.int64 "copies agree" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 31 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 37 in
  let sample = Rng.sample_without_replacement rng 10 20 in
  checki "size" 10 (List.length sample);
  checki "distinct" 10 (List.length (List.sort_uniq compare sample));
  List.iter (fun v -> checkb "in range" true (v >= 0 && v < 20)) sample

(* ------------------------------------------------------------------ *)
(* Heap *)

let add_int h x = Heap.add h ~at:(float_of_int x) x

let test_heap_basic () =
  let h = Heap.create () in
  checkb "empty" true (Heap.is_empty h);
  check (Alcotest.float 0.0) "empty min_at" infinity (Heap.min_at h);
  add_int h 3;
  add_int h 1;
  add_int h 2;
  checki "len" 3 (Heap.length h);
  checki "peek" 1 (Option.get (Heap.peek h));
  check (Alcotest.float 0.0) "min_at" 1.0 (Heap.min_at h);
  checki "pop1" 1 (Heap.pop_exn h);
  checki "pop2" 2 (Heap.pop_exn h);
  checki "pop3" 3 (Heap.pop_exn h);
  checkb "drained" true (Heap.pop h = None)

let test_heap_pop_empty_raises () =
  let h = Heap.create () in
  Alcotest.check_raises "empty pop" (Invalid_argument "Heap.pop_exn: empty") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_duplicates () =
  let h = Heap.create () in
  List.iter (add_int h) [ 5; 5; 5; 1; 1 ];
  let drained = List.init 5 (fun _ -> Heap.pop_exn h) in
  check Alcotest.(list int) "sorted with dups" [ 1; 1; 5; 5; 5 ] drained

(* The engine's, the executor's and the mempool's tie rule: two elements
   due at the same time pop in the order they were added, including ones
   added after pops and after the queue drained. *)
let test_heap_seq_order () =
  let h = Heap.create () in
  List.iter (fun (at, v) -> Heap.add h ~at v) [ (5.0, "a"); (1.0, "b"); (5.0, "c"); (1.0, "d") ];
  check Alcotest.string "first due, first added" "b" (Heap.pop_exn h);
  Heap.add h ~at:1.0 "e";
  Heap.add h ~at:5.0 "f";
  let drained = List.init 5 (fun _ -> Heap.pop_exn h) in
  check Alcotest.(list string) "ties in add order" [ "d"; "e"; "a"; "c"; "f" ] drained;
  Heap.add h ~at:0.0 "g";
  Heap.add h ~at:0.0 "h";
  check Alcotest.(list string) "after draining" [ "g"; "h" ] (Heap.to_sorted_list h)

(* Growth: capacity doubles from 16 while elements are interleaved with
   pops; nothing is lost and the order holds across every resize. *)
let test_heap_growth () =
  let h = Heap.create () in
  let model = ref [] in
  for i = 0 to 999 do
    let at = float_of_int ((i * 37) mod 101) in
    Heap.add h ~at (at, i);
    model := (at, i) :: !model;
    if i mod 3 = 2 then begin
      let sorted = List.sort compare !model in
      check Alcotest.(pair (float 0.0) int) "pop during growth" (List.hd sorted) (Heap.pop_exn h);
      model := List.tl sorted
    end
  done;
  checki "length" (List.length !model) (Heap.length h);
  check
    Alcotest.(list (pair (float 0.0) int))
    "drains in (due, seq) order" (List.sort compare !model) (Heap.to_sorted_list h);
  checki "to_sorted_list is non-destructive" (List.length !model) (Heap.length h)

let test_heap_clear () =
  let h = Heap.create () in
  List.iter (add_int h) [ 1; 2; 3 ];
  Heap.clear h;
  checkb "cleared" true (Heap.is_empty h);
  add_int h 4;
  checki "usable after clear" 4 (Heap.pop_exn h)

(* Elements carry their insertion index: a stable sort on the due time is
   the (due time, seq) order. *)
let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let h = Heap.create () in
      List.iteri (fun i x -> Heap.add h ~at:(float_of_int x) (x, i)) l;
      Heap.to_sorted_list h
      = List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.mapi (fun i x -> (x, i)) l))

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap handles interleaved add/pop" ~count:200
    QCheck.(list (option small_int))
    (fun ops ->
      (* Some x = push x; None = pop. Compare against a sorted-list model
         of (due time, insertion index). *)
      let h = Heap.create () in
      let model = ref [] in
      let added = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
            Heap.add h ~at:(float_of_int x) (x, !added);
            model := List.sort compare ((x, !added) :: !model);
            incr added;
            true
          | None -> (
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some v, m :: rest ->
              model := rest;
              v = m
            | _ -> false))
        ops)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  checki "count" 0 (Stats.Summary.count s);
  checkb "mean nan" true (Float.is_nan (Stats.Summary.mean s));
  checkb "p50 nan" true (Float.is_nan (Stats.Summary.percentile s 0.5))

let test_summary_moments () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  checki "count" 8 (Stats.Summary.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.Summary.mean s);
  check (Alcotest.float 1e-6) "stddev (sample)" 2.13809 (Stats.Summary.stddev s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.Summary.max s)

let test_summary_percentiles () =
  let s = Stats.Summary.create () in
  for i = 1 to 101 do
    Stats.Summary.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50" 51.0 (Stats.Summary.percentile s 0.5);
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.Summary.percentile s 0.0);
  check (Alcotest.float 1e-9) "p100" 101.0 (Stats.Summary.percentile s 1.0);
  let p25, p50, p75 = Stats.Summary.quartiles s in
  check (Alcotest.float 1e-9) "q25" 26.0 p25;
  check (Alcotest.float 1e-9) "q50" 51.0 p50;
  check (Alcotest.float 1e-9) "q75" 76.0 p75

let test_summary_reservoir_bounded () =
  let s = Stats.Summary.create ~reservoir:100 () in
  for i = 1 to 10_000 do
    Stats.Summary.add s (float_of_int i)
  done;
  checki "count exact" 10_000 (Stats.Summary.count s);
  (* Percentile is approximate but should be in the right region. *)
  let p50 = Stats.Summary.percentile s 0.5 in
  checkb "approx median" true (p50 > 2_000.0 && p50 < 8_000.0);
  (* Moments stay exact. *)
  check (Alcotest.float 1e-6) "exact mean" 5000.5 (Stats.Summary.mean s)

let test_summary_merge () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  List.iter (Stats.Summary.add a) [ 1.0; 2.0; 3.0 ];
  List.iter (Stats.Summary.add b) [ 10.0; 20.0 ];
  let m = Stats.Summary.merge a b in
  checki "count" 5 (Stats.Summary.count m);
  check (Alcotest.float 1e-9) "mean" 7.2 (Stats.Summary.mean m);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.Summary.min m);
  check (Alcotest.float 1e-9) "max" 20.0 (Stats.Summary.max m)

let prop_percentile_sorted =
  QCheck.Test.make ~name:"percentile_of_sorted brackets data" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.0)) (float_bound_inclusive 1.0))
    (fun (l, p) ->
      let arr = Array.of_list (List.sort compare l) in
      let v = Stats.percentile_of_sorted arr p in
      v >= arr.(0) && v <= arr.(Array.length arr - 1))

let test_windowed_series () =
  let w = Stats.Windowed.create ~width:100.0 in
  Stats.Windowed.add w ~time:10.0 ~value:1.0;
  Stats.Windowed.add w ~time:50.0 ~value:2.0;
  Stats.Windowed.add w ~time:250.0 ~value:3.0;
  (match Stats.Windowed.series w with
  | [ (t0, s0, c0); (t2, s2, c2) ] ->
    check (Alcotest.float 1e-9) "win0 start" 0.0 t0;
    check (Alcotest.float 1e-9) "win0 sum" 3.0 s0;
    checki "win0 count" 2 c0;
    check (Alcotest.float 1e-9) "win2 start" 200.0 t2;
    check (Alcotest.float 1e-9) "win2 sum" 3.0 s2;
    checki "win2 count" 1 c2
  | other -> Alcotest.failf "unexpected series length %d" (List.length other));
  (* Dense variant: the empty middle window is an explicit zero row. *)
  (match Stats.Windowed.series_filled w with
  | [ (_, _, c0); (t1, s1, c1); (_, _, c2) ] ->
    checki "filled win0 count" 2 c0;
    check (Alcotest.float 1e-9) "filled win1 start" 100.0 t1;
    check (Alcotest.float 1e-9) "filled win1 sum" 0.0 s1;
    checki "filled win1 count" 0 c1;
    checki "filled win2 count" 1 c2
  | other -> Alcotest.failf "unexpected filled series length %d" (List.length other));
  match Stats.Windowed.rate_series w with
  | [ (_, r0); (_, r1); (_, r2) ] ->
    check (Alcotest.float 1e-9) "rate win0 = 2 events / 0.1s" 20.0 r0;
    check (Alcotest.float 1e-9) "rate win1 (empty) = 0" 0.0 r1;
    check (Alcotest.float 1e-9) "rate win2" 10.0 r2
  | _ -> Alcotest.fail "unexpected rate series"

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  checki "cap" 100 (Bitset.capacity b);
  checki "count 0" 0 (Bitset.count b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  checkb "mem 63" true (Bitset.mem b 63);
  checkb "not mem 64" false (Bitset.mem b 64);
  checki "count 3" 3 (Bitset.count b);
  Bitset.clear_bit b 63;
  checkb "cleared" false (Bitset.mem b 63);
  checki "count 2" 2 (Bitset.count b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "oob set" (Invalid_argument "Bitset: index out of range") (fun () ->
      Bitset.set b 10);
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range") (fun () ->
      ignore (Bitset.mem b (-1)))

let test_bitset_roundtrip () =
  let l = [ 1; 5; 62; 63; 64; 126 ] in
  let b = Bitset.of_list 127 l in
  check Alcotest.(list int) "to_list sorted" l (Bitset.to_list b)

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      ignore (Bitset.union a b))

let prop_bitset_union_inter =
  let gen = QCheck.(pair (list (int_bound 199)) (list (int_bound 199))) in
  QCheck.Test.make ~name:"bitset union/inter match set semantics" ~count:200 gen
    (fun (xs, ys) ->
      let bx = Bitset.of_list 200 xs and by = Bitset.of_list 200 ys in
      let module S = Set.Make (Int) in
      let sx = S.of_list xs and sy = S.of_list ys in
      Bitset.to_list (Bitset.union bx by) = S.elements (S.union sx sy)
      && Bitset.to_list (Bitset.inter bx by) = S.elements (S.inter sx sy)
      && Bitset.count bx = S.cardinal sx)

(* ------------------------------------------------------------------ *)
(* Varint *)

let test_varint_known () =
  let enc v =
    let b = Buffer.create 8 in
    Varint.write b v;
    Buffer.contents b
  in
  check Alcotest.string "0" "\x00" (enc 0);
  check Alcotest.string "127" "\x7f" (enc 127);
  check Alcotest.string "128" "\x80\x01" (enc 128);
  check Alcotest.string "300" "\xac\x02" (enc 300);
  (* [put]/[get] lay out and read back the same bytes at any position. *)
  List.iter
    (fun v ->
      let b = Bytes.make 12 '\xff' in
      let stop = Varint.put b 2 v in
      checki "put length" (Varint.encoded_size v) (stop - 2);
      check Alcotest.string "put bytes" (enc v) (Bytes.sub_string b 2 (stop - 2));
      checki "get" v (Varint.get b 2))
    [ 0; 127; 128; 300; max_int ];
  checki "size 0" 1 (Varint.encoded_size 0);
  checki "size 127" 1 (Varint.encoded_size 127);
  checki "size 128" 2 (Varint.encoded_size 128);
  checki "size 16384" 3 (Varint.encoded_size 16384)

let test_varint_truncated () =
  Alcotest.check_raises "truncated" (Failure "Varint.read: truncated input") (fun () ->
      ignore (Varint.read "\x80" 0))

let test_varint_negative_rejected () =
  let b = Buffer.create 4 in
  Alcotest.check_raises "negative" (Invalid_argument "Varint.write: negative") (fun () ->
      Varint.write b (-1))

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(oneof [ small_nat; int_bound max_int ])
    (fun v ->
      let b = Buffer.create 10 in
      Varint.write b v;
      let s = Buffer.contents b in
      let decoded, next = Varint.read s 0 in
      decoded = v && next = String.length s && String.length s = Varint.encoded_size v)

(* ------------------------------------------------------------------ *)
(* Tablefmt *)

let test_tablefmt_render () =
  let out = Tablefmt.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bee"; "22" ] ] in
  let lines = String.split_on_char '\n' (String.trim out) in
  checki "line count" 4 (List.length lines);
  (* Numbers are right-aligned under the header. *)
  checkb "right aligned" true (String.length (List.nth lines 2) = String.length (List.nth lines 3))

let test_tablefmt_pads_short_rows () =
  let out = Tablefmt.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  checkb "renders" true (String.length out > 0)

let test_float_cell () =
  check Alcotest.string "nan" "-" (Tablefmt.float_cell nan);
  check Alcotest.string "fixed" "3.1" (Tablefmt.float_cell 3.14159);
  check Alcotest.string "decimals" "3.14" (Tablefmt.float_cell ~decimals:2 3.14159)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "support.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
        Alcotest.test_case "int_in closed range" `Quick test_rng_int_in;
        Alcotest.test_case "invalid bound" `Quick test_rng_negative_bound_rejected;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "uniform mean" `Slow test_rng_float_mean;
        Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
        Alcotest.test_case "normal moments" `Slow test_rng_normal_moments;
        Alcotest.test_case "bernoulli rate" `Slow test_rng_bernoulli;
        Alcotest.test_case "poisson mean" `Slow test_rng_poisson_mean;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "copy same stream" `Quick test_rng_copy_same_stream;
        Alcotest.test_case "shuffle is permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "sample without replacement" `Quick test_rng_sample_without_replacement;
      ] );
    ( "support.heap",
      [
        Alcotest.test_case "basic" `Quick test_heap_basic;
        Alcotest.test_case "pop empty raises" `Quick test_heap_pop_empty_raises;
        Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        Alcotest.test_case "equal due times pop in seq order" `Quick test_heap_seq_order;
        Alcotest.test_case "growth" `Quick test_heap_growth;
      ]
      @ qsuite [ prop_heap_sorts; prop_heap_interleaved ] );
    ( "support.stats",
      [
        Alcotest.test_case "empty summary" `Quick test_summary_empty;
        Alcotest.test_case "moments" `Quick test_summary_moments;
        Alcotest.test_case "percentiles" `Quick test_summary_percentiles;
        Alcotest.test_case "reservoir bounded" `Quick test_summary_reservoir_bounded;
        Alcotest.test_case "merge" `Quick test_summary_merge;
        Alcotest.test_case "windowed series" `Quick test_windowed_series;
      ]
      @ qsuite [ prop_percentile_sorted ] );
    ( "support.bitset",
      [
        Alcotest.test_case "basic" `Quick test_bitset_basic;
        Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        Alcotest.test_case "roundtrip" `Quick test_bitset_roundtrip;
        Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
      ]
      @ qsuite [ prop_bitset_union_inter ] );
    ( "support.varint",
      [
        Alcotest.test_case "known encodings" `Quick test_varint_known;
        Alcotest.test_case "truncated input" `Quick test_varint_truncated;
        Alcotest.test_case "negative rejected" `Quick test_varint_negative_rejected;
      ]
      @ qsuite [ prop_varint_roundtrip ] );
    ( "support.tablefmt",
      [
        Alcotest.test_case "render" `Quick test_tablefmt_render;
        Alcotest.test_case "pads short rows" `Quick test_tablefmt_pads_short_rows;
        Alcotest.test_case "float cell" `Quick test_float_cell;
      ] );
  ]
