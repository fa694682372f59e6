module Digest32 = Shoalpp_crypto.Digest32
module Varint = Shoalpp_support.Varint
module Wire = Shoalpp_codec.Wire

type t = {
  packed : string;
  count : int;
  wire_size : int;
  sole_origin : int;
  digest : Digest32.t;
  created_at : float;
}

let header_size = 4
let stamp_size = 8

(* The shared origin so far of a prefix, extended by one transaction. *)
let join_origin ~first origin o = if first || origin = o then o else -1

let make ~txns ~created_at =
  let rec measure count body wire origin = function
    | [] -> (count, body, wire, origin)
    | (tx : Transaction.t) :: rest ->
      measure (count + 1)
        (body + Varint.encoded_size tx.id + Varint.encoded_size tx.size
       + Varint.encoded_size tx.origin)
        (wire + Transaction.wire_size tx)
        (join_origin ~first:(count = 0) origin tx.origin)
        rest
  in
  let count, body, wire_size, sole_origin = measure 0 0 header_size (-1) txns in
  let preimage = Varint.encoded_size count + body in
  let b = Bytes.create (preimage + (stamp_size * count)) in
  let rec fill pos stamp = function
    | [] -> ()
    | (tx : Transaction.t) :: rest ->
      let pos = Varint.put b pos tx.id in
      let pos = Varint.put b pos tx.size in
      let pos = Varint.put b pos tx.origin in
      Bytes.set_int64_be b stamp (Int64.bits_of_float tx.submitted_at);
      fill pos (stamp + stamp_size) rest
  in
  fill (Varint.put b 0 count) preimage txns;
  let packed = Bytes.unsafe_to_string b in
  {
    packed;
    count;
    wire_size;
    sole_origin;
    digest = Digest32.of_substring packed ~pos:0 ~len:preimage;
    created_at;
  }

let empty ~created_at = make ~txns:[] ~created_at
let is_empty t = t.count = 0
let length t = t.count
let wire_size t = t.wire_size

(* The string was packed or checked by this module, so its varints are
   read trusted. *)
let iter t f =
  let c = { Varint.src = t.packed; pos = 0 } in
  ignore (Varint.read_cursor c);
  for i = 0 to t.count - 1 do
    let id = Varint.read_cursor c in
    let size = Varint.read_cursor c in
    f i ~id ~size ~origin:(Varint.read_cursor c)
  done

let submitted_at t i =
  if i < 0 || i >= t.count then invalid_arg "Batch.submitted_at";
  Int64.float_of_bits
    (String.get_int64_be t.packed (String.length t.packed - (stamp_size * (t.count - i))))

let txns t =
  let acc = ref [] in
  iter t (fun i ~id ~size ~origin ->
      acc := Transaction.make ~id ~size ~submitted_at:(submitted_at t i) ~origin () :: !acc);
  List.rev !acc

let write w t = Wire.Writer.bytes w t.packed

(* One pass over the slice, allocating nothing per transaction: every
   triple must be three well-formed varints, and exactly one stamp per
   triple must follow them. Each triple takes at least 3 bytes, so a
   forged count runs out of input after at most a third of the slice. *)
let read rd ~created_at =
  let packed = Wire.Reader.bytes rd in
  let c = Wire.Reader.of_string packed in
  let count = Wire.Reader.uint c in
  let wire = ref header_size and origin = ref (-1) in
  for i = 0 to count - 1 do
    ignore (Wire.Reader.uint c);
    let size = Wire.Reader.uint c in
    let o = Wire.Reader.uint c in
    wire := !wire + size + Transaction.header_size;
    origin := join_origin ~first:(i = 0) !origin o
  done;
  let preimage = Wire.Reader.position c in
  if String.length packed - preimage <> stamp_size * count then
    raise (Wire.Reader.Malformed "batch count disagrees with its stamps");
  {
    packed;
    count;
    wire_size = !wire;
    sole_origin = !origin;
    digest = Digest32.of_substring packed ~pos:0 ~len:preimage;
    created_at;
  }

let pp fmt t = Format.fprintf fmt "batch[%d txns, %a]" t.count Digest32.pp t.digest
