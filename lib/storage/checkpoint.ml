module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Bitset = Shoalpp_support.Bitset
module Wire = Shoalpp_codec.Wire

type lane = { dag_id : int; round : int; resume : string }

type candidate = { seq : int; lanes : lane list; state : Digest32.t; digest : Digest32.t }

type t = { candidate : candidate; cert : Multisig.t }

let write_candidate w c =
  Wire.Writer.uint w c.seq;
  Wire.Writer.list w
    (fun l ->
      Wire.Writer.uint w l.dag_id;
      Wire.Writer.uint w l.round;
      Wire.Writer.bytes w l.resume)
    c.lanes;
  Wire.Writer.digest w c.state

let encode_candidate c =
  let w = Wire.Writer.create () in
  write_candidate w c;
  Wire.Writer.contents w

(* The only constructor: the digest is taken here, once, and every later
   [digest]/[preimage]/[sign]/[verify] reads it back. *)
let candidate ~seq ~lanes ~state =
  let c = { seq; lanes; state; digest = Digest32.zero } in
  { c with digest = Digest32.of_string (encode_candidate c) }

let read_candidate rd =
  let seq = Wire.Reader.uint rd in
  let lanes =
    Wire.Reader.list rd (fun rd ->
        let dag_id = Wire.Reader.uint rd in
        let round = Wire.Reader.uint rd in
        let resume = Wire.Reader.bytes rd in
        { dag_id; round; resume })
  in
  let state = Wire.Reader.digest rd in
  candidate ~seq ~lanes ~state

let digest c = c.digest

(* Length of [string_of_int v]. Digits are taken from the non-positive
   [-|v|], which cannot overflow at [min_int]. *)
let decimal_length v =
  let rec digits x acc = if x <= -10 then digits (x / 10) (acc + 1) else acc in
  digits (if v < 0 then v else -v) 1 + if v < 0 then 1 else 0

(* Write [string_of_int v] at [pos]; returns the position after it. *)
let put_decimal b pos v =
  let stop = pos + decimal_length v in
  let rec put i x =
    Bytes.set b i (Char.unsafe_chr (48 - (x mod 10)));
    if x <= -10 then put (i - 1) (x / 10)
  in
  put (stop - 1) (if v < 0 then v else -v);
  if v < 0 then Bytes.set b pos '-';
  stop

(* The preimage [raw st ^ dag_id ^ "/" ^ round ^ "/" ^ author], written
   into one buffer of its exact length. *)
let fold_segment st ~dag_id ~round ~author =
  let raw = Digest32.raw st in
  let len =
    String.length raw + decimal_length dag_id + 1 + decimal_length round + 1
    + decimal_length author
  in
  let b = Bytes.create len in
  Bytes.blit_string raw 0 b 0 (String.length raw);
  let pos = put_decimal b (String.length raw) dag_id in
  Bytes.set b pos '/';
  let pos = put_decimal b (pos + 1) round in
  Bytes.set b pos '/';
  ignore (put_decimal b (pos + 1) author);
  Digest32.of_string (Bytes.unsafe_to_string b)

let preimage_of_digest d = "ckpt/" ^ Digest32.raw d
let preimage c = preimage_of_digest (digest c)

let sign keypair c = Signer.sign keypair (preimage c)

let certify ~n candidate votes = { candidate; cert = Multisig.aggregate ~n votes }

let verify ~keys ~quorum t =
  Multisig.num_signers t.cert >= quorum && Multisig.verify keys t.cert (preimage t.candidate)

let candidate_of t = t.candidate
let seq t = t.candidate.seq
let lanes t = t.candidate.lanes
let state t = t.candidate.state
let cert t = t.cert

let encode t =
  let w = Wire.Writer.create () in
  write_candidate w t.candidate;
  Wire.Writer.list w (fun s -> Wire.Writer.uint w s) (Bitset.to_list (Multisig.signers t.cert));
  Wire.Writer.raw w (Multisig.combined t.cert);
  Wire.Writer.contents w

(* The aggregate is kept as received, so [verify] checks what the peer
   sent. A peer's blob is untrusted input: a signer the bitmap cannot hold,
   one named twice, or a committee size above the Multisig ceiling is a
   corrupt blob, not a programming error. *)
let decode ~n s =
  let rd = Wire.Reader.of_string s in
  let candidate = read_candidate rd in
  let signers = Wire.Reader.list rd (fun rd -> Wire.Reader.uint rd) in
  let combined = Wire.Reader.raw rd Multisig.combined_size in
  Wire.Reader.expect_end rd;
  match Multisig.of_wire ~n ~signers ~combined with
  | cert -> { candidate; cert }
  | exception Invalid_argument m -> raise (Wire.Reader.Malformed m)

let wire_size t =
  String.length (encode_candidate t.candidate) + Multisig.wire_size t.cert

let pp fmt t =
  Format.fprintf fmt "ckpt[seq=%d signers=%d %s]" t.candidate.seq
    (Multisig.num_signers t.cert)
    (Digest32.short_hex t.candidate.state)
