let encoded_size v =
  if v < 0 then invalid_arg "Varint.encoded_size: negative";
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

(* Top-level recursions, not local closures: without flambda a local
   [let rec] capturing the buffer or cursor is a closure allocated per
   call, which a codec pays per integer. *)
let rec write_digits buf v =
  if v < 0x80 then Buffer.add_char buf (Char.unsafe_chr v)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    write_digits buf (v lsr 7)
  end

let write buf v =
  if v < 0 then invalid_arg "Varint.write: negative";
  write_digits buf v

let rec put_digits b pos v =
  if v < 0x80 then begin
    Bytes.set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    put_digits b (pos + 1) (v lsr 7)
  end

let put b pos v =
  if v < 0 then invalid_arg "Varint.put: negative";
  put_digits b pos v

let rec get_digits b pos shift acc =
  let byte = Char.code (Bytes.get b pos) in
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte land 0x80 = 0 then acc else get_digits b (pos + 1) (shift + 7) acc

let get b pos = get_digits b pos 0 0

type cursor = { src : string; mutable pos : int }

let rec decode c len pos shift acc =
  if pos >= len then failwith "Varint.read: truncated input";
  if shift > 62 then failwith "Varint.read: varint too large";
  let b = Char.code (String.unsafe_get c.src pos) in
  (* A ninth digit lands on bits 56..62, and bit 62 is an int's sign: past
     [max_int], the value would decode negative. *)
  if shift = 56 && b land 0x40 <> 0 then failwith "Varint.read: varint too large";
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then begin
    c.pos <- pos + 1;
    acc
  end
  else decode c len (pos + 1) (shift + 7) acc

let read_cursor c = decode c (String.length c.src) c.pos 0 0

let read s pos =
  let c = { src = s; pos } in
  let v = read_cursor c in
  (v, c.pos)
