(* Bindings to the C kernel in sha256_stubs.c. A context is a bytes value
   the C side updates in place; an [hmac_key] is a string holding the inner
   and outer midstates. *)

external select_kernel : unit -> string = "shoalpp_sha256_select_kernel"

(* Evaluated at module initialisation, before any domain starts. *)
let kernel_name = select_kernel ()
let kernel () = kernel_name

type ctx = Bytes.t

external init : unit -> ctx = "shoalpp_sha256_init"

external feed_string_raw : ctx -> string -> bool = "shoalpp_sha256_feed" [@@noalloc]

external finalize_into : ctx -> bytes -> bool = "shoalpp_sha256_finalize" [@@noalloc]

let already_finalized () = invalid_arg "Sha256: context already finalized"

let feed_string ctx s = if not (feed_string_raw ctx s) then already_finalized ()

let finalize ctx =
  let out = Bytes.create 32 in
  if not (finalize_into ctx out) then already_finalized ();
  Bytes.unsafe_to_string out

external digest_string : string -> string = "shoalpp_sha256_digest"
external digest_sub_raw : string -> int -> int -> string = "shoalpp_sha256_digest_sub"

let digest_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Sha256.digest_sub";
  digest_sub_raw s pos len

type hmac_key = string

external hmac_key : string -> hmac_key = "shoalpp_sha256_hmac_key"
external hmac_with : hmac_key -> string -> string = "shoalpp_sha256_hmac"

let hmac ~key msg = hmac_with (hmac_key key) msg

let to_hex raw =
  let buf = Buffer.create (2 * String.length raw) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) raw;
  Buffer.contents buf
