module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer

type t = { n : int; f : int; cluster_seed : int; genesis : Digest32.t; keys : Signer.registry }

let make ~n ?(cluster_seed = 0) () =
  if n < 4 then invalid_arg "Committee.make: need n >= 4";
  let f = (n - 1) / 3 in
  let genesis = Digest32.of_string (Printf.sprintf "genesis/%d/%d" n cluster_seed) in
  { n; f; cluster_seed; genesis; keys = Signer.registry ~cluster_seed ~n }

let quorum t = t.n - t.f
let weak_quorum t = t.f + 1
let fast_quorum t = (2 * t.f) + 1
let keypair t replica = Signer.keypair_of t.keys replica
let valid_replica t r = r >= 0 && r < t.n
let pp fmt t = Format.fprintf fmt "committee(n=%d,f=%d)" t.n t.f
