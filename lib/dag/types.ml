module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Batch = Shoalpp_workload.Batch
module Wire = Shoalpp_codec.Wire
module Bitset = Shoalpp_support.Bitset

type round = int
type replica = int

type node_ref = { ref_round : round; ref_author : replica; ref_digest : Digest32.t }

type node = {
  round : round;
  author : replica;
  batch : Batch.t;
  parents : node_ref list;
  weak_parents : node_ref list;
  digest : Digest32.t;
  signature : Signer.signature;
  created_at : float;
}

let max_weak_parents = 16

type vote = {
  vote_round : round;
  vote_author : replica;
  vote_digest : Digest32.t;
  voter : replica;
  vote_signature : Signer.signature;
}

type certificate = { cert_ref : node_ref; multisig : Multisig.t }

type certified_node = { cn_node : node; cn_cert : certificate }

(* Catch-up sync protocol: a lagging or recovering replica pulls certified
   history from peers instead of replaying from genesis. Shapes follow the
   modal-sequencer DAG_SYNC design: paged certificates, the first page
   carrying the responder's highest round. Request tags 1 and 3 and
   response tag 1 are retired. *)
type sync_request =
  | Get_certificates_in_range of { sr_from : round; sr_to : round; sr_cursor : int }
  | Get_checkpoint

type sync_response =
  | Certificates of {
      sc_certs : certified_node list;
      sc_has_more : bool;
      sc_next : int;
      sc_highest : round;
    }
  | Checkpoint_blob of { cb_blob : string option }

type message =
  | Proposal of node
  | Vote of vote
  | Certificate of certificate
  | Fetch_request of { wanted : node_ref; requester : replica }
  | Fetch_response of certified_node
  | Checkpoint_vote of {
      ck_seq : int;
      ck_digest : Digest32.t;
      ck_voter : replica;
      ck_signature : Signer.signature;
    }
  | Sync_request of { sq_requester : replica; sq_req : sync_request }
  | Sync_response of { sp_responder : replica; sp_resp : sync_response }

let ref_of_node n = { ref_round = n.round; ref_author = n.author; ref_digest = n.digest }

let node_digest ~lane ~round ~author ~batch_digest ~parents ~weak_parents =
  let w = Wire.Writer.create () in
  Wire.Writer.uint w lane;
  Wire.Writer.uint w round;
  Wire.Writer.uint w author;
  Wire.Writer.digest w batch_digest;
  let write_refs refs =
    Wire.Writer.list w
      (fun p ->
        Wire.Writer.uint w p.ref_round;
        Wire.Writer.uint w p.ref_author;
        Wire.Writer.digest w p.ref_digest)
      refs
  in
  write_refs parents;
  write_refs weak_parents;
  Digest32.of_string (Wire.Writer.contents w)

(* ["vote/" ^ lane ^ "/" ^ round ^ "/" ^ author ^ "/" ^ raw digest], the
   integers in decimal as [Int.to_string] writes them. It runs on every
   vote signed or checked and every certificate check, so it is built in
   one buffer, and a non-negative field (every honest one) is written
   digit by digit without an intermediate string. *)
let rec digits v = if v < 10 then 1 else 1 + digits (v / 10)
let field_length v = if v < 0 then String.length (Int.to_string v) else digits v

(* [v >= 0]'s digits, the last one at [i]. *)
let rec put_digits b i v =
  Bytes.set b i (Char.unsafe_chr (48 + (v mod 10)));
  if v >= 10 then put_digits b (i - 1) (v / 10)

let put_field b pos v =
  let len = field_length v in
  if v < 0 then Bytes.blit_string (Int.to_string v) 0 b pos len
  else put_digits b (pos + len - 1) v;
  Bytes.set b (pos + len) '/';
  pos + len + 1

let vote_preimage ~lane ~round ~author ~digest =
  let d = Digest32.raw digest in
  let b =
    Bytes.create
      (8 + field_length lane + field_length round + field_length author + String.length d)
  in
  Bytes.blit_string "vote/" 0 b 0 5;
  let pos = put_field b (put_field b (put_field b 5 lane) round) author in
  Bytes.blit_string d 0 b pos (String.length d);
  Bytes.unsafe_to_string b

let ref_equal a b =
  a.ref_round = b.ref_round && a.ref_author = b.ref_author && Digest32.equal a.ref_digest b.ref_digest

let compare_ref a b =
  let c = Int.compare a.ref_round b.ref_round in
  if c <> 0 then c
  else begin
    let c = Int.compare a.ref_author b.ref_author in
    if c <> 0 then c else Digest32.compare a.ref_digest b.ref_digest
  end

let pp_ref fmt r = Format.fprintf fmt "(r%d,a%d,%a)" r.ref_round r.ref_author Digest32.pp r.ref_digest

(* ------------------------------------------------------------------ *)
(* Wire encoding.                                                      *)

let write_ref w (r : node_ref) =
  Wire.Writer.uint w r.ref_round;
  Wire.Writer.uint w r.ref_author;
  Wire.Writer.digest w r.ref_digest

let read_ref rd =
  let ref_round = Wire.Reader.uint rd in
  let ref_author = Wire.Reader.uint rd in
  let ref_digest = Wire.Reader.digest rd in
  { ref_round; ref_author; ref_digest }

let write_node w (n : node) =
  Wire.Writer.uint w n.round;
  Wire.Writer.uint w n.author;
  Wire.Writer.float w n.created_at;
  Batch.write w n.batch;
  Wire.Writer.list w (write_ref w) n.parents;
  Wire.Writer.list w (write_ref w) n.weak_parents;
  Wire.Writer.raw w (Signer.raw n.signature)

let read_node ~lane rd =
  let round = Wire.Reader.uint rd in
  let author = Wire.Reader.uint rd in
  let created_at = Wire.Reader.float rd in
  let batch = Batch.read rd ~created_at in
  let parents = Wire.Reader.list rd read_ref in
  let weak_parents = Wire.Reader.list rd read_ref in
  let signature_raw = Wire.Reader.raw rd 32 in
  let digest =
    node_digest ~lane ~round ~author ~batch_digest:batch.Batch.digest ~parents ~weak_parents
  in
  {
    round;
    author;
    batch;
    parents;
    weak_parents;
    digest;
    signature = Signer.of_raw signature_raw;
    created_at;
  }

(* A certificate on the wire: its ref, the bitmap capacity, the signer
   list, then the 32-byte aggregate (Narwhal's header + aggregated
   signature shape). *)
let write_cert w (c : certificate) =
  write_ref w c.cert_ref;
  let signers = Multisig.signers c.multisig in
  Wire.Writer.uint w (Bitset.capacity signers);
  Wire.Writer.list w (Wire.Writer.uint w) (Bitset.to_list signers);
  Wire.Writer.raw w (Multisig.combined c.multisig)

(* The aggregate is kept exactly as received, so validation verifies what
   the sender sent. [Multisig.of_wire] checks the claimed capacity against
   its ceiling before allocating the bitmap: a few bytes on the wire can
   never make the decoder allocate more than that. *)
let read_cert rd =
  let cert_ref = read_ref rd in
  let cap = Wire.Reader.uint rd in
  let signers = Wire.Reader.list rd Wire.Reader.uint in
  let combined = Wire.Reader.raw rd Multisig.combined_size in
  match Multisig.of_wire ~n:cap ~signers ~combined with
  | multisig -> { cert_ref; multisig }
  | exception Invalid_argument m -> raise (Wire.Reader.Malformed m)

let read_certified ~lane rd =
  let cn_node = read_node ~lane rd in
  let cn_cert = read_cert rd in
  { cn_node; cn_cert }

let write_sync_request w = function
  | Get_certificates_in_range { sr_from; sr_to; sr_cursor } ->
    Wire.Writer.u8 w 2;
    Wire.Writer.uint w sr_from;
    Wire.Writer.uint w sr_to;
    Wire.Writer.uint w sr_cursor
  | Get_checkpoint -> Wire.Writer.u8 w 4

let read_sync_request rd =
  match Wire.Reader.u8 rd with
  | 2 ->
    let sr_from = Wire.Reader.uint rd in
    let sr_to = Wire.Reader.uint rd in
    let sr_cursor = Wire.Reader.uint rd in
    Get_certificates_in_range { sr_from; sr_to; sr_cursor }
  | 4 -> Get_checkpoint
  | tag -> raise (Wire.Reader.Malformed (Printf.sprintf "unknown sync request tag %d" tag))

let write_sync_response w = function
  | Certificates { sc_certs; sc_has_more; sc_next; sc_highest } ->
    Wire.Writer.u8 w 2;
    Wire.Writer.list w
      (fun cn ->
        write_node w cn.cn_node;
        write_cert w cn.cn_cert)
      sc_certs;
    Wire.Writer.u8 w (if sc_has_more then 1 else 0);
    Wire.Writer.uint w sc_next;
    Wire.Writer.uint w sc_highest
  | Checkpoint_blob { cb_blob } -> (
    Wire.Writer.u8 w 3;
    match cb_blob with
    | None -> Wire.Writer.u8 w 0
    | Some blob ->
      Wire.Writer.u8 w 1;
      Wire.Writer.bytes w blob)

let write_message w msg =
  match msg with
  | Proposal n ->
    Wire.Writer.u8 w 1;
    write_node w n
  | Vote v ->
    Wire.Writer.u8 w 2;
    Wire.Writer.uint w v.vote_round;
    Wire.Writer.uint w v.vote_author;
    Wire.Writer.digest w v.vote_digest;
    Wire.Writer.uint w v.voter;
    Wire.Writer.raw w (Signer.raw v.vote_signature)
  | Certificate c ->
    Wire.Writer.u8 w 3;
    write_cert w c
  | Fetch_request { wanted; requester } ->
    Wire.Writer.u8 w 4;
    write_ref w wanted;
    Wire.Writer.uint w requester
  | Fetch_response cn ->
    Wire.Writer.u8 w 5;
    write_node w cn.cn_node;
    write_cert w cn.cn_cert
  | Checkpoint_vote { ck_seq; ck_digest; ck_voter; ck_signature } ->
    Wire.Writer.u8 w 6;
    Wire.Writer.uint w ck_seq;
    Wire.Writer.digest w ck_digest;
    Wire.Writer.uint w ck_voter;
    Wire.Writer.raw w (Signer.raw ck_signature)
  | Sync_request { sq_requester; sq_req } ->
    Wire.Writer.u8 w 7;
    Wire.Writer.uint w sq_requester;
    write_sync_request w sq_req
  | Sync_response { sp_responder; sp_resp } ->
    Wire.Writer.u8 w 8;
    Wire.Writer.uint w sp_responder;
    write_sync_response w sp_resp

let encode_message msg =
  let w = Wire.Writer.create () in
  write_message w msg;
  Wire.Writer.contents w

let read_sync_response ~lane rd =
  match Wire.Reader.u8 rd with
  | 2 ->
    let sc_certs = Wire.Reader.list rd (read_certified ~lane) in
    let sc_has_more = Wire.Reader.u8 rd = 1 in
    let sc_next = Wire.Reader.uint rd in
    let sc_highest = Wire.Reader.uint rd in
    Certificates { sc_certs; sc_has_more; sc_next; sc_highest }
  | 3 ->
    let cb_blob =
      match Wire.Reader.u8 rd with 0 -> None | _ -> Some (Wire.Reader.bytes rd)
    in
    Checkpoint_blob { cb_blob }
  | tag -> failwith (Printf.sprintf "unknown sync response tag %d" tag)

let decode_message ?pos ~lane s =
  let rd = Wire.Reader.of_string ?pos s in
  try
    let msg =
      match Wire.Reader.u8 rd with
      | 1 -> Proposal (read_node ~lane rd)
      | 2 ->
        let vote_round = Wire.Reader.uint rd in
        let vote_author = Wire.Reader.uint rd in
        let vote_digest = Wire.Reader.digest rd in
        let voter = Wire.Reader.uint rd in
        let raw = Wire.Reader.raw rd 32 in
        Vote { vote_round; vote_author; vote_digest; voter; vote_signature = Signer.of_raw raw }
      | 3 -> Certificate (read_cert rd)
      | 4 ->
        let wanted = read_ref rd in
        let requester = Wire.Reader.uint rd in
        Fetch_request { wanted; requester }
      | 5 -> Fetch_response (read_certified ~lane rd)
      | 6 ->
        let ck_seq = Wire.Reader.uint rd in
        let ck_digest = Wire.Reader.digest rd in
        let ck_voter = Wire.Reader.uint rd in
        let raw = Wire.Reader.raw rd 32 in
        Checkpoint_vote { ck_seq; ck_digest; ck_voter; ck_signature = Signer.of_raw raw }
      | 7 ->
        let sq_requester = Wire.Reader.uint rd in
        Sync_request { sq_requester; sq_req = read_sync_request rd }
      | 8 ->
        let sp_responder = Wire.Reader.uint rd in
        Sync_response { sp_responder; sp_resp = read_sync_response ~lane rd }
      | tag -> failwith (Printf.sprintf "unknown message tag %d" tag)
    in
    Wire.Reader.expect_end rd;
    Ok msg
  with
  | Wire.Reader.Malformed m -> Error m
  | Failure m -> Error m
  | Invalid_argument m -> Error m

(* Sizes: the proposal dominates (inline batch). We model the batch payload
   as its true byte size rather than the metadata-only encoding above. *)
let ref_size = 2 + 2 + 32

let node_size (n : node) =
  1 (* tag *) + 4 (* round *) + 2 (* author *) + 8 (* timestamp *)
  + Batch.wire_size n.batch
  + 2
  + ((List.length n.parents + List.length n.weak_parents) * ref_size)
  + Signer.signature_size

let cert_size (c : certificate) = ref_size + Multisig.wire_size c.multisig

let sync_request_size = function
  | Get_certificates_in_range _ -> 1 + 4 + 4 + 4
  | Get_checkpoint -> 1

let sync_response_size = function
  | Certificates { sc_certs; _ } ->
    1 + 2 + 4 + 4
    + List.fold_left (fun acc cn -> acc + node_size cn.cn_node + cert_size cn.cn_cert) 0 sc_certs
  | Checkpoint_blob { cb_blob } -> (
    (* A blob is charged its encoded bytes: the candidate, its signer list
       and its aggregate, as the codec writes them. *)
    1 + 1 + match cb_blob with None -> 0 | Some blob -> String.length blob)

let message_size = function
  | Proposal n -> node_size n
  | Vote _ -> 1 + 4 + 2 + 32 + 2 + Signer.signature_size
  | Certificate c -> 1 + cert_size c
  | Fetch_request _ -> 1 + ref_size + 2
  | Fetch_response cn -> 1 + node_size cn.cn_node + cert_size cn.cn_cert
  | Checkpoint_vote _ -> 1 + 4 + 32 + 2 + Signer.signature_size
  | Sync_request { sq_req; _ } -> 1 + 2 + sync_request_size sq_req
  | Sync_response { sp_resp; _ } -> 1 + 2 + sync_response_size sp_resp
