type t = { spec : string; one_way : float array array }

(* Approximate public inter-region RTTs (ms) for the paper's ten GCP regions.
   Order: us-west1, us-east1, europe-west4, europe-southwest1,
   asia-northeast3, asia-southeast1, asia-south1, southamerica-east1,
   africa-south1, australia-southeast1. Diagonal = intra-region RTT. *)
let gcp_rtt =
  [|
    [| 2.; 60.; 135.; 145.; 120.; 170.; 215.; 175.; 250.; 140. |];
    [| 60.; 2.; 90.; 100.; 180.; 215.; 200.; 120.; 230.; 200. |];
    [| 135.; 90.; 2.; 25.; 220.; 165.; 120.; 200.; 155.; 250. |];
    [| 145.; 100.; 25.; 2.; 240.; 180.; 130.; 190.; 165.; 270. |];
    [| 120.; 180.; 220.; 240.; 2.; 70.; 130.; 255.; 300.; 135. |];
    [| 170.; 215.; 165.; 180.; 70.; 2.; 60.; 300.; 260.; 95. |];
    [| 215.; 200.; 120.; 130.; 130.; 60.; 2.; 300.; 230.; 150. |];
    [| 175.; 120.; 200.; 190.; 255.; 300.; 300.; 2.; 317.; 280. |];
    [| 250.; 230.; 155.; 165.; 300.; 260.; 230.; 317.; 2.; 275. |];
    [| 140.; 200.; 250.; 270.; 135.; 95.; 150.; 280.; 275.; 2. |];
  |]

let gcp10 () =
  let one_way = Array.map (Array.map (fun rtt -> rtt /. 2.0)) gcp_rtt in
  { spec = "gcp10"; one_way }

(* The shortest decimal that reads back as exactly [ms]. *)
let ms_repr ms =
  let short = Printf.sprintf "%g" ms in
  if float_of_string short = ms then short else Printf.sprintf "%.17g" ms

let uniform ~delay_ms = { spec = "uniform:" ^ ms_repr delay_ms; one_way = [| [| delay_ms |] |] }

let clique ~regions ~one_way_ms =
  let one_way =
    Array.init regions (fun i ->
        Array.init regions (fun j -> if i = j then 0.5 else one_way_ms))
  in
  { spec = Printf.sprintf "clique:%d,%s" regions (ms_repr one_way_ms); one_way }

let of_spec spec =
  let delay ms =
    match float_of_string_opt ms with
    | Some d when Float.is_finite d && d >= 0.0 -> Some d
    | _ -> None
  in
  match String.split_on_char ':' (String.lowercase_ascii spec) with
  | [ "gcp10" ] -> Ok (gcp10 ())
  | [ "uniform"; ms ] -> (
    match delay ms with
    | Some delay_ms -> Ok (uniform ~delay_ms)
    | None -> Error (Printf.sprintf "bad uniform delay %S (want uniform:MS, MS >= 0)" ms))
  | [ "clique"; rest ] -> (
    let bad = Printf.sprintf "bad clique spec %S (want clique:K,MS, K >= 1, MS >= 0)" rest in
    match String.split_on_char ',' rest with
    | [ k; ms ] -> (
      match (int_of_string_opt k, delay ms) with
      | Some regions, Some one_way_ms when regions > 0 -> Ok (clique ~regions ~one_way_ms)
      | _ -> Error bad)
    | _ -> Error bad)
  | _ -> Error (Printf.sprintf "unknown topology %S (gcp10 | uniform:MS | clique:K,MS)" spec)

let to_spec t = t.spec

let num_regions t = Array.length t.one_way

let one_way_ms t i j = t.one_way.(i).(j)

let assign_round_robin t ~n = Array.init n (fun i -> i mod num_regions t)

let delay_matrix t ~n =
  let regions = assign_round_robin t ~n in
  Array.init n (fun src ->
      Array.init n (fun dst ->
          if src = dst then 0.0 else one_way_ms t regions.(src) regions.(dst)))

let max_one_way_ms t =
  Array.fold_left (fun acc row -> Array.fold_left Float.max acc row) 0.0 t.one_way
