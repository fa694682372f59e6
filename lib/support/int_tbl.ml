(* A hash table keyed by ints, hashed by identity. The polymorphic
   [Hashtbl] hashes every int key through the C [caml_hash]; protocol keys
   (rounds, packed (round, author) positions) are small dense ints, so the
   key itself spreads them over the buckets. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)
