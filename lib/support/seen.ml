(* A set of transaction ids: one bit per id. Client ids are dense — one
   shared counter, or disjoint stride-n counters in multicore mode — so the
   bits stay packed, and the set is one unboxed block the major GC never
   walks entry by entry. It grows by doubling to cover the largest id
   marked, up to [dense_ids]; ids beyond (forged ones: no client counter
   gets there) go to a sparse side table, so no single id can make the
   block allocate id/8 bytes. *)

type t = { mutable bits : Bytes.t; sparse : unit Int_tbl.t }

let initial_bytes = 1024

(* 2^27 ids: a 16 MiB block at most. *)
let dense_ids = 1 lsl 27

let create () = { bits = Bytes.make initial_bytes '\000'; sparse = Int_tbl.create 8 }

let mem t id =
  if id >= dense_ids then Int_tbl.mem t.sparse id
  else
    let byte = id lsr 3 in
    id >= 0
    && byte < Bytes.length t.bits
    && Bytes.get_uint8 t.bits byte land (1 lsl (id land 7)) <> 0

let mark t id =
  if id < 0 then invalid_arg "Seen.mark: negative id";
  if id >= dense_ids then Int_tbl.mem t.sparse id || (Int_tbl.replace t.sparse id (); false)
  else begin
    let byte = id lsr 3 and bit = 1 lsl (id land 7) in
    let len = Bytes.length t.bits in
    if byte >= len then begin
      let grown = Bytes.make (min (dense_ids / 8) (max (2 * len) (byte + 1))) '\000' in
      Bytes.blit t.bits 0 grown 0 len;
      t.bits <- grown
    end;
    let cur = Bytes.get_uint8 t.bits byte in
    cur land bit <> 0 || (Bytes.set_uint8 t.bits byte (cur lor bit); false)
  end

let reset t =
  t.bits <- Bytes.make initial_bytes '\000';
  Int_tbl.reset t.sparse
