(* A set of transaction ids: one bit per id. Client ids are dense — one
   shared counter, or disjoint stride-n counters in multicore mode — so the
   bits stay packed, and the set is one unboxed block the major GC never
   walks entry by entry. It grows by doubling to cover the largest id
   marked. *)

type t = { mutable bits : Bytes.t }

let initial_bytes = 1024

let create () = { bits = Bytes.make initial_bytes '\000' }

let mem t id =
  let byte = id lsr 3 in
  id >= 0 && byte < Bytes.length t.bits && Bytes.get_uint8 t.bits byte land (1 lsl (id land 7)) <> 0

let mark t id =
  if id < 0 then invalid_arg "Seen.mark: negative id";
  let byte = id lsr 3 and bit = 1 lsl (id land 7) in
  let len = Bytes.length t.bits in
  if byte >= len then begin
    let grown = Bytes.make (max (2 * len) (byte + 1)) '\000' in
    Bytes.blit t.bits 0 grown 0 len;
    t.bits <- grown
  end;
  let cur = Bytes.get_uint8 t.bits byte in
  if cur land bit <> 0 then true
  else begin
    Bytes.set_uint8 t.bits byte (cur lor bit);
    false
  end

let reset t = t.bits <- Bytes.make initial_bytes '\000'
