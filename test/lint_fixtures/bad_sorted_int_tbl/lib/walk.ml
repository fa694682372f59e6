(* Fixture: traversals of the int-keyed table visit bucket order just as
   [Hashtbl]'s do, bare or through the library path. *)
let iter tbl = Int_tbl.iter (fun _ _ -> ()) tbl
let fold tbl = Shoalpp_support.Int_tbl.fold (fun _ _ acc -> acc) tbl 0
let keys tbl = Int_tbl.to_seq_keys tbl

(* point lookups and length are order-free: not flagged *)
let ok tbl k = Int_tbl.length tbl + Option.value ~default:0 (Int_tbl.find_opt tbl k)
