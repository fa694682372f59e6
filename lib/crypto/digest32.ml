type t = string

let of_raw s =
  if String.length s <> 32 then invalid_arg "Digest32.of_raw: need 32 bytes";
  s

let of_string s = Sha256.digest_string s
let of_substring s ~pos ~len = Sha256.digest_sub s ~pos ~len
let concat ds = Sha256.digest_string (String.concat "" ds)
let raw t = t
let hex = Sha256.to_hex
let short_hex t = String.sub (hex t) 0 8
let equal = String.equal
let compare = String.compare

let hash t =
  (* First 62 bits of the digest, already uniform. *)
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code t.[i]
  done;
  !v land max_int

let pp fmt t = Format.pp_print_string fmt (short_hex t)
let zero = String.make 32 '\000'
