(* FIPS 180-4 SHA-256 over 32-bit words stored in OCaml ints (lower 32 bits
   significant; [mask] truncates after arithmetic). *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* bytes fed so far *)
  w : int array; (* message schedule scratch *)
  mutable finalized : bool;
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
    finalized = false;
  }

(* Rotations use a doubled word: for a 32-bit [x], [x2 = x lor (x lsl 32)]
   holds x twice, so [x2 lsr n] has [rotr x n] in its low 32 bits for
   1 <= n <= 31 (the copy's bit 31 falls off the 63-bit int, but no rotation
   here reads it). Bits above 31 are garbage wherever a value only feeds an
   addition: the low 32 bits of a sum depend only on the operands' low 32
   bits, so one [land mask] per stored word suffices. *)
let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask)
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let d15 = w15 lor (w15 lsl 32) and d2 = w2 lor (w2 lsl 32) in
    let s0 = (d15 lsr 7) lxor (d15 lsr 18) lxor (w15 lsr 3) in
    let s1 = (d2 lsr 17) lxor (d2 lsr 19) lxor (w2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let de = !e lor (!e lsl 32) and da = !a lor (!a lsl 32) in
    let s1 = (de lsr 6) lxor (de lsr 11) lxor (de lsr 25) in
    let ch = !e land !f lxor (lnot !e land !g) in
    let temp1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = (da lsr 2) lxor (da lsr 13) lxor (da lsr 22) in
    let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed_sub ctx src off len =
  if ctx.finalized then invalid_arg "Sha256: context already finalized";
  ctx.total <- ctx.total + len;
  let pos = ref off in
  let remaining = ref len in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit src !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx src !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed_bytes ctx b = feed_sub ctx b 0 (Bytes.length b)
let feed_string ctx s = feed_sub ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* Padding (0x80, zeros, 64-bit big-endian bit length) is written straight
   into the block buffer: one extra compression when fewer than 9 bytes of
   the last block are free, none otherwise. *)
let pad ctx =
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  let used = ctx.buf_len + 1 in
  if used > 56 then begin
    Bytes.fill buf used (64 - used) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf used (56 - used) '\000';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx buf 0

let write_state h dst off =
  for i = 0 to 7 do
    Bytes.set_int32_be dst (off + (4 * i)) (Int32.of_int (Array.unsafe_get h i))
  done

let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256: context already finalized";
  ctx.finalized <- true;
  pad ctx;
  let out = Bytes.create 32 in
  write_state ctx.h out 0;
  Bytes.unsafe_to_string out

let digest_string s =
  let ctx = init () in
  feed_string ctx s;
  finalize ctx

type hmac_key = { inner : int array; outer : int array }

(* Midstate after compressing one key block XORed with [fill]. *)
let midstate block fill =
  let ctx = init () in
  for i = 0 to 63 do
    Bytes.unsafe_set ctx.buf i (Char.unsafe_chr (Char.code (Bytes.unsafe_get block i) lxor fill))
  done;
  compress ctx ctx.buf 0;
  ctx.h

let hmac_key key =
  let key = if String.length key > 64 then digest_string key else key in
  let block = Bytes.make 64 '\000' in
  Bytes.blit_string key 0 block 0 (String.length key);
  { inner = midstate block 0x36; outer = midstate block 0x5c }

(* One scratch context serves both passes: it resumes from a copy of the
   inner midstate, and after the inner digest it is rewound in place to a
   copy of the outer midstate with the inner digest as its pending 32 bytes.
   The shared key is only ever read. *)
let hmac_with key msg =
  let ctx = init () in
  Array.blit key.inner 0 ctx.h 0 8;
  ctx.total <- 64;
  feed_string ctx msg;
  pad ctx;
  write_state ctx.h ctx.buf 0;
  Array.blit key.outer 0 ctx.h 0 8;
  ctx.buf_len <- 32;
  ctx.total <- 96;
  finalize ctx

let hmac ~key msg = hmac_with (hmac_key key) msg

let to_hex raw =
  let buf = Buffer.create (2 * String.length raw) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) raw;
  Buffer.contents buf
