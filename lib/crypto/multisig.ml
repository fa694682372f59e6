module Bitset = Shoalpp_support.Bitset

type t = { mask : Bitset.t; combined : string }

(* The aggregate: SHA-256 over the signatures in ascending signer order,
   which [iter] must yield. *)
let combine iter =
  let ctx = Sha256.init () in
  iter (fun s -> Sha256.feed_string ctx (Signer.raw s));
  Sha256.finalize ctx

let aggregate ~n sigs =
  let mask = Bitset.create n in
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) sigs in
  List.iter
    (fun (pub, _) ->
      if pub < 0 || pub >= n then invalid_arg "Multisig.aggregate: signer out of range";
      if Bitset.mem mask pub then invalid_arg "Multisig.aggregate: duplicate signer";
      Bitset.set mask pub)
    sorted;
  { mask; combined = combine (fun f -> List.iter (fun (_, s) -> f s) sorted) }

let signers t = Bitset.copy t.mask
let num_signers t = Bitset.count t.mask

let capacity t = Bitset.capacity t.mask

let verify reg t msg =
  (* Recompute what each signer's signature must be (the registry is public
     within the simulation) and check the combined hash. A bitmap sized for
     another committee names no registry, so it never verifies. *)
  Bitset.capacity t.mask = Signer.size reg
  && String.equal t.combined
       (combine (fun f ->
            Bitset.iter (fun pub -> f (Signer.sign (Signer.keypair_of reg pub) msg)) t.mask))

let wire_size t = 48 + ((Bitset.capacity t.mask + 7) / 8)

let pp fmt t = Format.fprintf fmt "multisig%a" Bitset.pp t.mask
