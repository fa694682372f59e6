type t = { id : int; size : int; submitted_at : float; origin : int }

let default_size = 310

let make ~id ?(size = default_size) ~submitted_at ~origin () = { id; size; submitted_at; origin }

let header_size = 8
let wire_size t = t.size + header_size

let pp fmt t = Format.fprintf fmt "tx#%d(%dB@r%d,%.1fms)" t.id t.size t.origin t.submitted_at
