(** Fixture. Invariants: none. *)
val iter : 'a Int_tbl.t -> unit
val fold : 'a Int_tbl.t -> int
val keys : 'a Int_tbl.t -> int Seq.t
val ok : int Int_tbl.t -> int -> int
