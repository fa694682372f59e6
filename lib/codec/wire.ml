module Varint = Shoalpp_support.Varint
module Digest32 = Shoalpp_crypto.Digest32

module Writer = struct
  type t = Buffer.t

  let create ?(initial = 128) () = Buffer.create initial
  let uint t v = Varint.write t v
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))

  let u32 t v =
    for i = 3 downto 0 do
      Buffer.add_char t (Char.chr ((v lsr (8 * i)) land 0xff))
    done

  let u64 t v = Buffer.add_int64_be t v
  let float t v = Buffer.add_int64_be t (Int64.bits_of_float v)

  let bytes t s =
    uint t (String.length s);
    Buffer.add_string t s

  let raw t s = Buffer.add_string t s
  let raw_sub t b ~pos ~len = Buffer.add_subbytes t b pos len
  let digest t d = raw t (Digest32.raw d)

  let list t f l =
    uint t (List.length l);
    List.iter f l

  let size t = Buffer.length t
  let contents t = Buffer.contents t
  let clear t = Buffer.clear t
  let blit t dst pos = Buffer.blit t 0 dst pos (Buffer.length t)
end

module Reader = struct
  type t = Varint.cursor = { src : string; mutable pos : int }

  exception Malformed of string

  let of_string ?(pos = 0) src =
    if pos < 0 || pos > String.length src then invalid_arg "Wire.Reader.of_string";
    { src; pos }

  let need t n =
    if t.pos + n > String.length t.src then raise (Malformed "truncated")

  let uint t = try Varint.read_cursor t with Failure msg -> raise (Malformed msg)

  let u8 t =
    need t 1;
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u32 t =
    need t 4;
    let v = ref 0 in
    for _ = 1 to 4 do
      v := (!v lsl 8) lor Char.code t.src.[t.pos];
      t.pos <- t.pos + 1
    done;
    !v

  let u64 t =
    need t 8;
    let v = String.get_int64_be t.src t.pos in
    t.pos <- t.pos + 8;
    v

  let float t =
    need t 8;
    let v = Int64.float_of_bits (String.get_int64_be t.src t.pos) in
    t.pos <- t.pos + 8;
    v

  let raw t n =
    if n < 0 then raise (Malformed "negative length");
    need t n;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let bytes t =
    let n = uint t in
    raw t n

  let digest t = Digest32.of_raw (raw t 32)

  let list t f =
    let n = uint t in
    if n > 1_000_000 then raise (Malformed "list too long");
    List.init n (fun _ -> f t)

  let position t = t.pos
  let at_end t = t.pos = String.length t.src
  let expect_end t = if not (at_end t) then raise (Malformed "trailing bytes")
end
