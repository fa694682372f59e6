module Bitset = Shoalpp_support.Bitset

type t = { mask : Bitset.t; combined : string }

(* The aggregate: SHA-256 over the signatures in ascending signer order,
   which [iter] must yield. *)
let combine iter =
  let ctx = Sha256.init () in
  iter (fun s -> Sha256.feed_string ctx (Signer.raw s));
  Sha256.finalize ctx

(* The signer bitmap of [ids], each in [0, n) and named once; [fn] names
   the caller in the error. *)
let mask_of ~fn ~n ids =
  let mask = Bitset.create n in
  List.iter
    (fun pub ->
      if pub < 0 || pub >= n then invalid_arg (fn ^ ": signer out of range");
      if Bitset.mem mask pub then invalid_arg (fn ^ ": duplicate signer");
      Bitset.set mask pub)
    ids;
  mask

let aggregate ~n sigs =
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) sigs in
  let mask = mask_of ~fn:"Multisig.aggregate" ~n (List.map fst sorted) in
  { mask; combined = combine (fun f -> List.iter (fun (_, s) -> f s) sorted) }

let max_capacity = 1024
let combined_size = 32

let of_wire ~n ~signers ~combined =
  if n < 0 || n > max_capacity then invalid_arg "Multisig.of_wire: capacity out of range";
  if String.length combined <> combined_size then
    invalid_arg "Multisig.of_wire: aggregate has the wrong length";
  { mask = mask_of ~fn:"Multisig.of_wire" ~n signers; combined }

let combined t = t.combined
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
