type public = int
type keypair = { pub : public; key : Sha256.hmac_key }
type signature = string
type registry = keypair array

let secret_for ~cluster_seed ~replica =
  Sha256.digest_string (Printf.sprintf "shoalpp-secret-%d-%d" cluster_seed replica)

let keygen ~cluster_seed ~replica =
  { pub = replica; key = Sha256.hmac_key (secret_for ~cluster_seed ~replica) }

let public kp = kp.pub
let sign kp msg = Sha256.hmac_with kp.key msg
let registry ~cluster_seed ~n = Array.init n (fun replica -> keygen ~cluster_seed ~replica)
let size reg = Array.length reg

let has_key reg pub = pub >= 0 && pub < Array.length reg

let keypair_of reg pub =
  if not (has_key reg pub) then invalid_arg "Signer.keypair_of: no key for replica";
  reg.(pub)

let verify reg pub msg signature =
  has_key reg pub && String.equal (sign reg.(pub) msg) signature

let signature_size = 48
let raw s = s

let of_raw s =
  if String.length s <> 32 then invalid_arg "Signer.of_raw: need 32 bytes";
  s
let pp fmt s = Format.pp_print_string fmt (String.sub (Sha256.to_hex s) 0 8)
