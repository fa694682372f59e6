module Digest32 = Shoalpp_crypto.Digest32

module H = Hashtbl.Make (struct
  type t = Digest32.t

  let equal = Digest32.equal
  let hash = Digest32.hash
end)

type 'a t = 'a H.t

let create () = H.create 256
let put t k v = H.replace t k v
let get t k = H.find_opt t k
let mem t k = H.mem t k
let remove t k = H.remove t k
let size t = H.length t
let iter f t = H.iter f t
