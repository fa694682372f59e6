(* Tests for the crypto substrate: SHA-256 against FIPS vectors, digests,
   simulated signatures and multi-signatures, and the wire codec. *)

module Sha256 = Shoalpp_crypto.Sha256
module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Bitset = Shoalpp_support.Bitset
module Wire = Shoalpp_codec.Wire

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* SHA-256 *)

let test_sha_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( String.make 1_000_000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
    ]
  in
  List.iter
    (fun (input, expected) -> checks "vector" expected (Sha256.to_hex (Sha256.digest_string input)))
    cases

let test_sha_block_boundaries () =
  (* Lengths around the 64-byte block and padding boundaries. *)
  List.iter
    (fun len ->
      let s = String.init len (fun i -> Char.chr (i land 0xff)) in
      let ctx = Sha256.init () in
      Sha256.feed_string ctx s;
      checks
        (Printf.sprintf "len %d incremental = one-shot" len)
        (Sha256.to_hex (Sha256.digest_string s))
        (Sha256.to_hex (Sha256.finalize ctx)))
    [ 0; 1; 54; 55; 56; 63; 64; 65; 119; 120; 127; 128; 1000 ]

let prop_sha_incremental =
  QCheck.Test.make ~name:"chunked feeding matches one-shot" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (int_bound 64))
    (fun (s, chunk) ->
      let chunk = max 1 chunk in
      let ctx = Sha256.init () in
      let rec feed pos =
        if pos < String.length s then begin
          let len = min chunk (String.length s - pos) in
          Sha256.feed_string ctx (String.sub s pos len);
          feed (pos + len)
        end
      in
      feed 0;
      String.equal (Sha256.finalize ctx) (Sha256.digest_string s))

let test_sha_finalize_twice_raises () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "reuse" (Invalid_argument "Sha256: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

let test_hmac_vectors () =
  (* RFC 4231 test case 2 and the classic quick-brown-fox vector. *)
  checks "rfc4231-2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.to_hex (Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"));
  checks "fox"
    "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
    (Sha256.to_hex (Sha256.hmac ~key:"key" "The quick brown fox jumps over the lazy dog"))

let test_hmac_long_key () =
  (* Keys longer than the block size are pre-hashed; must not raise and must
     differ from the same message under a different long key. *)
  let k1 = String.make 100 'k' and k2 = String.make 100 'l' in
  checkb "long keys distinct" false (String.equal (Sha256.hmac ~key:k1 "m") (Sha256.hmac ~key:k2 "m"))

(* Textbook RFC 2104 HMAC built on the one-shot digest, kept here as the
   reference the precomputed key schedule must match. *)
let reference_hmac ~key msg =
  let key = if String.length key > 64 then Sha256.digest_string key else key in
  let pad fill =
    String.init 64 (fun i ->
        let k = if i < String.length key then Char.code key.[i] else 0 in
        Char.chr (k lxor fill))
  in
  Sha256.digest_string (pad 0x5c ^ Sha256.digest_string (pad 0x36 ^ msg))

let test_hmac_with_matches_reference () =
  List.iter
    (fun klen ->
      let key = String.init klen (fun i -> Char.chr (((7 * i) + klen) land 0xff)) in
      let schedule = Sha256.hmac_key key in
      List.iter
        (fun mlen ->
          let msg = String.init mlen (fun i -> Char.chr (((31 * i) + 5) land 0xff)) in
          let expected = Sha256.to_hex (reference_hmac ~key msg) in
          let label = Printf.sprintf "key %d msg %d" klen mlen in
          checks label expected (Sha256.to_hex (Sha256.hmac_with schedule msg));
          checks (label ^ " (hmac)") expected (Sha256.to_hex (Sha256.hmac ~key msg)))
        [ 0; 1; 55; 56; 63; 64; 65; 119; 120; 200 ])
    [ 0; 20; 32; 64; 65; 131 ]

let test_hmac_rfc4231_long_key () =
  (* RFC 4231 test case 6: a 131-byte key is hashed before use. *)
  checks "rfc4231-6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Sha256.to_hex
       (Sha256.hmac_with
          (Sha256.hmac_key (String.make 131 '\xaa'))
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_key_shared () =
  (* Reusing one schedule must not change it: interleaved calls agree. *)
  let schedule = Sha256.hmac_key "shared" in
  let a = Sha256.hmac_with schedule "a" in
  ignore (Sha256.hmac_with schedule (String.make 200 'b'));
  checks "stable" (Sha256.to_hex a) (Sha256.to_hex (Sha256.hmac_with schedule "a"))

let test_sha_padding_spills () =
  (* 56 bytes leave no room for the 8-byte length in the last block, so the
     in-place padding must compress an extra block. *)
  let s = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq" in
  checki "length" 56 (String.length s);
  let expected = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" in
  checks "one-shot" expected (Sha256.to_hex (Sha256.digest_string s));
  let ctx = Sha256.init () in
  String.iter (fun c -> Sha256.feed_string ctx (String.make 1 c)) s;
  checks "byte at a time" expected (Sha256.to_hex (Sha256.finalize ctx))

(* ------------------------------------------------------------------ *)
(* SHA-256 kernels: test-only C entry points run one named compression
   function (0 = portable, 1 = SHA extensions) whatever kernel the module
   picked, so every kernel compiled in is checked on any CPU that can run
   it. "Available" means the CPU can run it, not that it passed the
   module's self-test, so a broken accelerated kernel fails here. *)

external kernel_available : int -> bool = "shoalpp_sha256_test_available"
external kernel_digest : int -> string -> string = "shoalpp_sha256_test_digest"
external kernel_hmac : int -> string -> string -> string = "shoalpp_sha256_test_hmac"

let portable = 0
let sha_ni = 1

(* Lengths 0..300 cross every block and padding boundary several times. *)
let kernel_msg i = String.init i (fun j -> Char.chr (((j * 31) + i) land 0xff))
let kernel_key i = String.init (i mod 150) (fun j -> Char.chr (((j * 7) + i) land 0xff))

let check_kernel_vectors k =
  let hex = Sha256.to_hex in
  List.iter
    (fun (input, expected) -> checks "FIPS 180-4" expected (hex (kernel_digest k input)))
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
      ( String.make 1_000_000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
    ];
  let long_key = String.make 131 '\xaa' in
  List.iter
    (fun (key, msg, expected) -> checks "RFC 4231" expected (hex (kernel_hmac k key msg)))
    [
      ( String.make 20 '\x0b',
        "Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
      ( "Jefe",
        "what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
      ( String.make 20 '\xaa',
        String.make 50 '\xdd',
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
      ( String.init 25 (fun i -> Char.chr (i + 1)),
        String.make 50 '\xcd',
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b" );
      ( long_key,
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
      ( long_key,
        "This is a test using a larger than block-size key and a larger than block-size data. \
         The key needs to be hashed before being used by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
    ];
  (* Every length 0..300, pinned as a digest over the concatenated digests
     (computed with an independent SHA-256), and compared length by length
     with the portable kernel and with the module's public functions. *)
  let digests = Buffer.create (301 * 32) and hmacs = Buffer.create (301 * 32) in
  for i = 0 to 300 do
    let msg = kernel_msg i and key = kernel_key i in
    let d = kernel_digest k msg and h = kernel_hmac k key msg in
    let label = Printf.sprintf "len %d" i in
    checks (label ^ " digest = portable") (hex (kernel_digest portable msg)) (hex d);
    checks (label ^ " digest = active") (hex (Sha256.digest_string msg)) (hex d);
    checks (label ^ " hmac = portable") (hex (kernel_hmac portable key msg)) (hex h);
    checks (label ^ " hmac = active") (hex (Sha256.hmac ~key msg)) (hex h);
    Buffer.add_string digests d;
    Buffer.add_string hmacs h
  done;
  checks "digests 0..300" "2508c478cc7c1417db7b6e5532ddda7c5c497ad1e51c11df37059147d9b81354"
    (hex (Sha256.digest_string (Buffer.contents digests)));
  checks "hmacs 0..300" "efd7b34b783e27d86a74b64aa46ee9ac3a5cbe812c40978a0ff4f44fb2a89a37"
    (hex (Sha256.digest_string (Buffer.contents hmacs)));
  (* Random keys up to 200 bytes (past the 64-byte block, so long keys are
     hashed by the kernel under test) and random messages. *)
  let rng = Random.State.make [| 18 |] in
  let random_string len = String.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
  for _ = 1 to 200 do
    let key = random_string (Random.State.int rng 201) in
    let msg = random_string (Random.State.int rng 301) in
    checks
      (Printf.sprintf "random key %d msg %d" (String.length key) (String.length msg))
      (hex (kernel_hmac portable key msg))
      (hex (kernel_hmac k key msg))
  done

let test_kernel_portable () = check_kernel_vectors portable

let test_kernel_sha_ni () =
  if not (kernel_available sha_ni) then Alcotest.skip ();
  check_kernel_vectors sha_ni

let test_kernel_active_named () =
  checkb "portable always available" true (kernel_available portable);
  checks "active kernel"
    (if kernel_available sha_ni then "sha-ni" else "portable")
    (Sha256.kernel ());
  Alcotest.check_raises "unknown kernel"
    (Invalid_argument "Sha256: kernel not available on this CPU") (fun () ->
      ignore (kernel_digest 7 "abc"))

(* ------------------------------------------------------------------ *)
(* Digest32 *)

let test_digest32_basics () =
  let d = Digest32.of_string "hello" in
  checki "raw length" 32 (String.length (Digest32.raw d));
  checki "hex length" 64 (String.length (Digest32.hex d));
  checki "short hex" 8 (String.length (Digest32.short_hex d));
  checkb "self equal" true (Digest32.equal d d);
  checkb "zero differs" false (Digest32.equal d Digest32.zero);
  Alcotest.check_raises "of_raw wrong size" (Invalid_argument "Digest32.of_raw: need 32 bytes")
    (fun () -> ignore (Digest32.of_raw "short"))

let test_digest32_concat_order_sensitive () =
  let a = Digest32.of_string "a" and b = Digest32.of_string "b" in
  checkb "order matters" false (Digest32.equal (Digest32.concat [ a; b ]) (Digest32.concat [ b; a ]))

let prop_digest32_hash_consistent =
  QCheck.Test.make ~name:"equal digests hash equal" ~count:100 QCheck.string (fun s ->
      let a = Digest32.of_string s and b = Digest32.of_string s in
      Digest32.equal a b && Digest32.hash a = Digest32.hash b && Digest32.compare a b = 0)

(* ------------------------------------------------------------------ *)
(* Signer *)

let test_signer_roundtrip () =
  let kp = Signer.keygen ~cluster_seed:5 ~replica:3 in
  let s = Signer.sign kp "message" in
  let keys = Signer.registry ~cluster_seed:5 ~n:7 in
  checkb "verifies" true (Signer.verify keys 3 "message" s);
  checkb "wrong message" false (Signer.verify keys 3 "other" s);
  checkb "wrong replica" false (Signer.verify keys 4 "message" s);
  checkb "wrong cluster" false (Signer.verify (Signer.registry ~cluster_seed:6 ~n:7) 3 "message" s)

let test_signer_deterministic_keys () =
  let a = Signer.keygen ~cluster_seed:1 ~replica:0 in
  let b = Signer.keygen ~cluster_seed:1 ~replica:0 in
  checkb "same signature" true (String.equal (Signer.raw (Signer.sign a "m")) (Signer.raw (Signer.sign b "m")))

let test_signer_of_raw () =
  let kp = Signer.keygen ~cluster_seed:1 ~replica:0 in
  let s = Signer.sign kp "m" in
  let s' = Signer.of_raw (Signer.raw s) in
  checkb "roundtrip verifies" true (Signer.verify (Signer.registry ~cluster_seed:1 ~n:4) 0 "m" s');
  Alcotest.check_raises "bad length" (Invalid_argument "Signer.of_raw: need 32 bytes") (fun () ->
      ignore (Signer.of_raw "xx"))

let test_signer_committee_keys () =
  let committee = Shoalpp_dag.Committee.make ~n:7 ~cluster_seed:12 () in
  for r = 0 to 6 do
    checks
      (Printf.sprintf "replica %d" r)
      (Signer.raw (Signer.sign (Signer.keygen ~cluster_seed:12 ~replica:r) "m"))
      (Signer.raw (Signer.sign (Shoalpp_dag.Committee.keypair committee r) "m"))
  done

let test_signer_unknown_id () =
  let n = 4 in
  let keys = Signer.registry ~cluster_seed:3 ~n in
  let s = Signer.sign (Signer.keygen ~cluster_seed:3 ~replica:n) "m" in
  checkb "id -1" false (Signer.verify keys (-1) "m" s);
  checkb "id n" false (Signer.verify keys n "m" s)

(* ------------------------------------------------------------------ *)
(* Multisig *)

let sigs_over ~cluster_seed ~msg replicas =
  List.map
    (fun r ->
      let kp = Signer.keygen ~cluster_seed ~replica:r in
      (r, Signer.sign kp msg))
    replicas

let test_multisig_roundtrip () =
  let msg = "vote preimage" in
  let agg = Multisig.aggregate ~n:7 (sigs_over ~cluster_seed:9 ~msg [ 0; 2; 5 ]) in
  checki "signers" 3 (Multisig.num_signers agg);
  check Alcotest.(list int) "signer ids" [ 0; 2; 5 ] (Bitset.to_list (Multisig.signers agg));
  let keys = Signer.registry ~cluster_seed:9 ~n:7 in
  checkb "verifies" true (Multisig.verify keys agg msg);
  checkb "wrong message" false (Multisig.verify keys agg "other")

let test_multisig_order_insensitive () =
  let msg = "m" in
  let a = Multisig.aggregate ~n:5 (sigs_over ~cluster_seed:1 ~msg [ 3; 1; 4 ]) in
  let b = Multisig.aggregate ~n:5 (sigs_over ~cluster_seed:1 ~msg [ 1; 4; 3 ]) in
  let keys = Signer.registry ~cluster_seed:1 ~n:5 in
  checkb "same aggregate verifies" true (Multisig.verify keys a msg && Multisig.verify keys b msg);
  check Alcotest.(list int) "same signers" (Bitset.to_list (Multisig.signers a))
    (Bitset.to_list (Multisig.signers b))

let test_multisig_duplicate_rejected () =
  let msg = "m" in
  Alcotest.check_raises "duplicate" (Invalid_argument "Multisig.aggregate: duplicate signer")
    (fun () -> ignore (Multisig.aggregate ~n:5 (sigs_over ~cluster_seed:1 ~msg [ 2; 2 ])))

let test_multisig_out_of_range_rejected () =
  let msg = "m" in
  Alcotest.check_raises "range" (Invalid_argument "Multisig.aggregate: signer out of range")
    (fun () -> ignore (Multisig.aggregate ~n:3 (sigs_over ~cluster_seed:1 ~msg [ 3 ])))

let test_multisig_forgery_detected () =
  (* An aggregate built from a signature over a different message must not
     verify over the claimed message. *)
  let honest = sigs_over ~cluster_seed:1 ~msg:"real" [ 0; 1 ] in
  let forged = (2, Signer.sign (Signer.keygen ~cluster_seed:1 ~replica:2) "fake") :: honest in
  let agg = Multisig.aggregate ~n:4 forged in
  checkb "forgery rejected" false (Multisig.verify (Signer.registry ~cluster_seed:1 ~n:4) agg "real")

let test_multisig_wire_size () =
  let agg = Multisig.aggregate ~n:100 (sigs_over ~cluster_seed:1 ~msg:"m" [ 0; 99 ]) in
  checki "48 + ceil(100/8)" (48 + 13) (Multisig.wire_size agg)

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let test_wire_scalars () =
  let w = Wire.Writer.create () in
  Wire.Writer.uint w 300;
  Wire.Writer.u8 w 0xAB;
  Wire.Writer.u32 w 0xDEADBEEF;
  Wire.Writer.u64 w 0x1122334455667788L;
  Wire.Writer.float w 3.14;
  Wire.Writer.bytes w "hello";
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  checki "uint" 300 (Wire.Reader.uint r);
  checki "u8" 0xAB (Wire.Reader.u8 r);
  checki "u32" 0xDEADBEEF (Wire.Reader.u32 r);
  check Alcotest.int64 "u64" 0x1122334455667788L (Wire.Reader.u64 r);
  check (Alcotest.float 1e-12) "float" 3.14 (Wire.Reader.float r);
  checks "bytes" "hello" (Wire.Reader.bytes r);
  checkb "at end" true (Wire.Reader.at_end r);
  Wire.Reader.expect_end r

let test_wire_list () =
  let w = Wire.Writer.create () in
  Wire.Writer.list w (Wire.Writer.uint w) [ 1; 2; 3 ];
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  check Alcotest.(list int) "list" [ 1; 2; 3 ] (Wire.Reader.list r Wire.Reader.uint)

let test_wire_truncated () =
  let r = Wire.Reader.of_string "\x05ab" in
  (* length prefix says 5, only 2 bytes remain *)
  checkb "raises malformed" true
    (match Wire.Reader.bytes r with
    | exception Wire.Reader.Malformed _ -> true
    | _ -> false)

let test_wire_trailing_bytes () =
  let r = Wire.Reader.of_string "\x01\x02" in
  ignore (Wire.Reader.u8 r);
  checkb "trailing detected" true
    (match Wire.Reader.expect_end r with exception Wire.Reader.Malformed _ -> true | () -> false)

let test_wire_digest_roundtrip () =
  let d = Digest32.of_string "x" in
  let w = Wire.Writer.create () in
  Wire.Writer.digest w d;
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  checkb "digest" true (Digest32.equal d (Wire.Reader.digest r))

let prop_wire_string_roundtrip =
  QCheck.Test.make ~name:"length-prefixed bytes roundtrip" ~count:200 QCheck.string (fun s ->
      let w = Wire.Writer.create () in
      Wire.Writer.bytes w s;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      String.equal s (Wire.Reader.bytes r) && Wire.Reader.at_end r)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "crypto.sha256",
      [
        Alcotest.test_case "FIPS vectors" `Slow test_sha_vectors;
        Alcotest.test_case "block boundaries" `Quick test_sha_block_boundaries;
        Alcotest.test_case "finalize twice raises" `Quick test_sha_finalize_twice_raises;
        Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
        Alcotest.test_case "hmac long key" `Quick test_hmac_long_key;
        Alcotest.test_case "hmac_with matches reference" `Quick test_hmac_with_matches_reference;
        Alcotest.test_case "hmac rfc4231 long key" `Quick test_hmac_rfc4231_long_key;
        Alcotest.test_case "hmac key shared" `Quick test_hmac_key_shared;
        Alcotest.test_case "padding spills a block" `Quick test_sha_padding_spills;
      ]
      @ qsuite [ prop_sha_incremental ] );
    ( "crypto.sha256-kernels",
      [
        Alcotest.test_case "portable kernel" `Quick test_kernel_portable;
        Alcotest.test_case "sha-ni kernel" `Quick test_kernel_sha_ni;
        Alcotest.test_case "active kernel named" `Quick test_kernel_active_named;
      ] );
    ( "crypto.digest32",
      [
        Alcotest.test_case "basics" `Quick test_digest32_basics;
        Alcotest.test_case "concat order" `Quick test_digest32_concat_order_sensitive;
      ]
      @ qsuite [ prop_digest32_hash_consistent ] );
    ( "crypto.signer",
      [
        Alcotest.test_case "sign/verify" `Quick test_signer_roundtrip;
        Alcotest.test_case "deterministic keys" `Quick test_signer_deterministic_keys;
        Alcotest.test_case "of_raw" `Quick test_signer_of_raw;
        Alcotest.test_case "committee keys match keygen" `Quick test_signer_committee_keys;
        Alcotest.test_case "unknown id rejected" `Quick test_signer_unknown_id;
      ] );
    ( "crypto.multisig",
      [
        Alcotest.test_case "roundtrip" `Quick test_multisig_roundtrip;
        Alcotest.test_case "order insensitive" `Quick test_multisig_order_insensitive;
        Alcotest.test_case "duplicate rejected" `Quick test_multisig_duplicate_rejected;
        Alcotest.test_case "out of range rejected" `Quick test_multisig_out_of_range_rejected;
        Alcotest.test_case "forgery detected" `Quick test_multisig_forgery_detected;
        Alcotest.test_case "wire size" `Quick test_multisig_wire_size;
      ] );
    ( "codec.wire",
      [
        Alcotest.test_case "scalars" `Quick test_wire_scalars;
        Alcotest.test_case "lists" `Quick test_wire_list;
        Alcotest.test_case "truncated" `Quick test_wire_truncated;
        Alcotest.test_case "trailing bytes" `Quick test_wire_trailing_bytes;
        Alcotest.test_case "digest roundtrip" `Quick test_wire_digest_roundtrip;
      ]
      @ qsuite [ prop_wire_string_roundtrip ] );
  ]
