type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let ( +% ) = Int64.add
let ( *% ) = Int64.mul
let ( ^% ) = Int64.logxor

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* SplitMix64: used only to expand a seed into xoshiro state. *)
let splitmix64 state =
  state := !state +% 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = (z ^% Int64.shift_right_logical z 30) *% 0xBF58476D1CE4E5B9L in
  let z = (z ^% Int64.shift_right_logical z 27) *% 0x94D049BB133111EBL in
  z ^% Int64.shift_right_logical z 31

let create seed =
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  { s0; s1; s2; s3 }

let bits64 t =
  let result = rotl (t.s0 +% t.s3) 23 +% t.s0 in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- t.s2 ^% t.s0;
  t.s3 <- t.s3 ^% t.s1;
  t.s1 <- t.s1 ^% t.s2;
  t.s0 <- t.s0 ^% t.s3;
  t.s2 <- t.s2 ^% tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = Int64.to_int (bits64 t) land max_int in
  create seed

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let nonneg t = Int64.to_int (bits64 t) land max_int

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  nonneg t mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

(* 53 uniformly random mantissa bits. *)
let unit_float t =
  let bits = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bits *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound
let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = unit_float t < p

let exponential t mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let normal t ~mu ~sigma =
  let u1 = 1.0 -. unit_float t in
  let u2 = unit_float t in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let poisson t lambda =
  let ell = exp (-.lambda) in
  let rec loop k p =
    let p = p *. unit_float t in
    if p <= ell then k else loop (k + 1) p
  in
  loop 0 1.0

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let sample_without_replacement t k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  Array.to_list (Array.sub arr 0 k)
