(* Declarative fault scenarios.

   A scenario is a named list of abstract fault specs ("crash 2 replicas at
   t=5s and recover them at t=15s", "partition a minority for 20s",
   "1 equivocating proposer") that is only bound to concrete replica ids
   when materialized against a cluster size n. Specs assign roles from the
   highest replica ids downward (drops excepted: they take the lowest), so
   a crash preset and a crash-recover preset fail the same replicas. *)

type byz_kind = Equivocate | Silent_anchor | Delay_votes of float

type spec =
  | Crash of { count : int; at : float; recover_at : float option }
  | Partition of { minority : int; from_time : float; until_time : float }
  | Byzantine of { count : int; kind : byz_kind; from_time : float; until_time : float }
  | Drop of { count : int; rate : float; from_time : float; until_time : float }

type t = { name : string; specs : spec list }

let none = { name = "none"; specs = [] }

let byzantine ?(count = 1) ?(kind = Equivocate) ?(from_time = 0.0) ?(until_time = infinity) () =
  { name = "byzantine"; specs = [ Byzantine { count; kind; from_time; until_time } ] }

let partition ?(minority = 0) ?(from_time = 8_000.0) ?(duration = 20_000.0) () =
  {
    name = "partition";
    specs = [ Partition { minority; from_time; until_time = from_time +. duration } ];
  }

let crash_recover ?(count = 1) ?(at = 5_000.0) ?(recover_at = 15_000.0) () =
  { name = "crash-recover"; specs = [ Crash { count; at; recover_at = Some recover_at } ] }

let crash ?(count = 1) ?(at = 0.0) () =
  { name = "crash"; specs = [ Crash { count; at; recover_at = None } ] }

let drop ?(count = 1) ?(rate = 0.01) ?(from_time = 0.0) () =
  { name = "drop"; specs = [ Drop { count; rate; from_time; until_time = infinity } ] }

let combine = function
  | [] -> none
  | [ t ] -> t
  | ts ->
    let specs = List.concat_map (fun t -> t.specs) ts in
    { name = String.concat "+" (List.map (fun t -> t.name) ts); specs }

(* ------------------------------------------------------------------ *)
(* Parsing: "name" or "name:key=val,key=val". *)

let byz_kind_of_string = function
  | "equivocate" -> Ok Equivocate
  | "silent" -> Ok Silent_anchor
  | "delay" -> Ok (Delay_votes 400.0)
  | s -> Error (Printf.sprintf "unknown byzantine kind %S (equivocate|silent|delay)" s)

let byz_kind_name = function
  | Equivocate -> "equivocate"
  | Silent_anchor -> "silent"
  | Delay_votes _ -> "delay"

(* Each preset's keys, for rejecting typos ([recovr=]) rather than running
   silently on the default. *)
let preset_keys = function
  | "none" -> Some []
  | "byzantine" -> Some [ "count"; "kind"; "delay"; "from"; "until" ]
  | "partition" -> Some [ "minority"; "from"; "dur" ]
  | "crash-recover" | "crash_recover" -> Some [ "count"; "at"; "recover" ]
  | "crash" -> Some [ "count" ]
  | "drop" -> Some [ "count"; "rate"; "from" ]
  | _ -> None

let parse spec_string =
  let ( let* ) = Result.bind in
  let name, tokens =
    match String.index_opt spec_string ':' with
    | None -> (spec_string, [])
    | Some i ->
      let rest = String.sub spec_string (i + 1) (String.length spec_string - i - 1) in
      ( String.sub spec_string 0 i,
        String.split_on_char ',' rest |> List.filter (fun s -> s <> "") )
  in
  let name = String.lowercase_ascii name in
  let* keys =
    Option.to_result (preset_keys name)
      ~none:
        (Printf.sprintf "unknown scenario %S (none|byzantine|partition|crash-recover|crash|drop)"
           name)
  in
  let* kvs =
    List.fold_left
      (fun acc tok ->
        let* kvs = acc in
        match String.index_opt tok '=' with
        | None -> Error (Printf.sprintf "%s: expected key=value, got %S" name tok)
        | Some i ->
          let k = String.sub tok 0 i and v = String.sub tok (i + 1) (String.length tok - i - 1) in
          if not (List.mem k keys) then
            Error
              (Printf.sprintf "%s: unknown key %S (keys: %s)" name k
                 (if keys = [] then "none" else String.concat ", " keys))
          else if List.mem_assoc k kvs then Error (Printf.sprintf "%s: key %S given twice" name k)
          else Ok ((k, v) :: kvs))
      (Ok []) tokens
  in
  let value key default conv what =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some v ->
      Option.to_result (conv v) ~none:(Printf.sprintf "%s: expected %s, got %S" key what v)
  in
  let check ok msg = if ok then Ok () else Error (name ^ ": " ^ msg) in
  (* [not (x >= 0)] also refuses nan. *)
  let non_negative key x = check (x >= 0.0) (Printf.sprintf "%s must be >= 0, got %g" key x) in
  let float_kv key default =
    let* x = value key default float_of_string_opt "a number" in
    let* () = non_negative key x in
    Ok x
  in
  let int_kv key default =
    let* c = value key default int_of_string_opt "an integer" in
    let* () = non_negative key (float_of_int c) in
    Ok c
  in
  match name with
  | "byzantine" ->
    let* count = int_kv "count" 1 in
    let* from_time = float_kv "from" 0.0 in
    let* until_time = float_kv "until" infinity in
    let* () = check (until_time >= from_time) "until must not precede from" in
    let* kind =
      match List.assoc_opt "kind" kvs with
      | None -> Ok Equivocate
      | Some k -> byz_kind_of_string (String.lowercase_ascii k)
    in
    let* kind =
      match kind with
      | Delay_votes _ ->
        let* d = float_kv "delay" 400.0 in
        Ok (Delay_votes d)
      | k -> Ok k
    in
    Ok (byzantine ~count ~kind ~from_time ~until_time ())
  | "partition" ->
    let* minority = int_kv "minority" 0 in
    let* from_time = float_kv "from" 8_000.0 in
    let* duration = float_kv "dur" 20_000.0 in
    Ok (partition ~minority ~from_time ~duration ())
  | "crash-recover" | "crash_recover" ->
    let* count = int_kv "count" 1 in
    let* at = float_kv "at" 5_000.0 in
    let* recover_at = float_kv "recover" 15_000.0 in
    let* () =
      check (recover_at > at)
        (Printf.sprintf "recover (%g) must come after at (%g)" recover_at at)
    in
    Ok (crash_recover ~count ~at ~recover_at ())
  | "crash" ->
    let* count = int_kv "count" 1 in
    Ok (crash ~count ())
  | "drop" ->
    let* count = int_kv "count" 1 in
    let* rate = value "rate" 0.01 float_of_string_opt "a number" in
    let* () =
      check (rate >= 0.0 && rate <= 1.0) (Printf.sprintf "rate must be in [0, 1], got %g" rate)
    in
    let* from_time = float_kv "from" 0.0 in
    Ok (drop ~count ~rate ~from_time ())
  | _ (* "none" *) -> Ok none

let pp_spec fmt = function
  | Crash { count; at; recover_at } -> (
    match recover_at with
    | None -> Format.fprintf fmt "crash %d at %gms" count at
    | Some r -> Format.fprintf fmt "crash %d at %gms, recover at %gms" count at r)
  | Partition { minority; from_time; until_time } ->
    Format.fprintf fmt "partition minority=%d [%gms, %gms)" minority from_time until_time
  | Byzantine { count; kind; from_time; until_time } ->
    Format.fprintf fmt "byzantine %d (%s) [%gms, %gms)" count (byz_kind_name kind) from_time
      until_time
  | Drop { count; rate; from_time; until_time } ->
    Format.fprintf fmt "drop %d rate=%g [%gms, %gms)" count rate from_time until_time

let pp fmt t =
  if t.specs = [] then Format.pp_print_string fmt t.name
  else
    Format.fprintf fmt "%s (%a)" t.name
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") pp_spec)
      t.specs

let name t = t.name

(* ------------------------------------------------------------------ *)
(* Materialization against a concrete cluster size. Faulty roles take the
   highest replica ids; with n = 3f+1 and default counts, every preset
   stays within the f-tolerance of the protocols. *)

let top_ids ~n count = List.init (min count n) (fun i -> n - 1 - i)

let minority_size ~n minority = if minority > 0 then min minority (n - 1) else (n - 1) / 3

(* The timeline is three flat lists, each queried by a scan: a run has a
   handful of faults, and an empty list costs nothing on the hot path. *)
type timeline = {
  downs : (int * float * bool) list;  (** (replica, time, is a recovery) *)
  drops : (int list * float * float * float) list;  (** (replicas, rate, from, until) *)
  cuts : (int list * float * float) list;  (** (minority side, from, until) *)
}

let schedule t ~n =
  let add tl = function
    | Crash { count; at; recover_at } ->
      let replicas = top_ids ~n count in
      let downs = List.fold_left (fun d r -> (r, at, false) :: d) tl.downs replicas in
      let downs =
        match recover_at with
        | None -> downs
        | Some up -> List.fold_left (fun d r -> (r, up, true) :: d) downs replicas
      in
      { tl with downs }
    | Partition { minority; from_time; until_time } ->
      let cut = top_ids ~n (minority_size ~n minority) in
      { tl with cuts = (cut, from_time, until_time) :: tl.cuts }
    | Byzantine _ -> tl (* behavioural; injected at the replica layer *)
    | Drop { count; rate; from_time; until_time } ->
      let replicas = List.init (min count n) Fun.id in
      { tl with drops = (replicas, rate, from_time, until_time) :: tl.drops }
  in
  List.fold_left add { downs = []; drops = []; cuts = [] } t.specs

(* The latest event at or before [time] decides; a recovery wins a tie. *)
let is_crashed tl ~replica ~time =
  let rec latest at up = function
    | [] -> not up
    | (r, t, u) :: rest when r = replica && t <= time && (t > at || (t = at && u)) ->
      latest t u rest
    | _ :: rest -> latest at up rest
  in
  latest neg_infinity true tl.downs

let egress_drop_rate tl ~src ~time =
  List.fold_left
    (fun acc (replicas, rate, from_time, until_time) ->
      if time >= from_time && time < until_time && List.mem src replicas then
        1.0 -. ((1.0 -. acc) *. (1.0 -. rate))
      else acc)
    0.0 tl.drops

let reachable tl ~src ~dst ~time =
  src = dst
  || List.for_all
       (fun (cut, from_time, until_time) ->
         time < from_time || time >= until_time || List.mem src cut = List.mem dst cut)
       tl.cuts

let byzantine_for t ~n ~replica =
  let specs =
    List.filter_map
      (function
        | Byzantine { count; kind; from_time; until_time }
          when List.mem replica (top_ids ~n count) ->
          Some (kind, from_time, until_time)
        | _ -> None)
      t.specs
  in
  if specs = [] then fun _ -> None
  else
    fun time ->
      List.find_map
        (fun (kind, from_time, until_time) ->
          if time >= from_time && time < until_time then Some kind else None)
        specs

let crash_recoveries t ~n =
  List.concat_map
    (function
      | Crash { count; at; recover_at = Some r } ->
        List.map (fun replica -> (replica, at, r)) (top_ids ~n count)
      | _ -> [])
    t.specs

let timed_crashes t ~n =
  List.concat_map
    (function
      | Crash { count; at; recover_at = None } when at > 0.0 ->
        List.map (fun replica -> (replica, at)) (top_ids ~n count)
      | Crash { count; at; recover_at = Some _ } ->
        List.map (fun replica -> (replica, at)) (top_ids ~n count)
      | _ -> [])
    t.specs

let has_recovery t =
  List.exists (function Crash { recover_at = Some _; _ } -> true | _ -> false) t.specs

let partition_windows t ~n =
  List.filter_map
    (function
      | Partition { minority; from_time; until_time } ->
        let m = minority_size ~n minority in
        Some (from_time, until_time, m)
      | _ -> None)
    t.specs

(* Timers go in this fixed order — crashes, recoveries, then each window's
   open and heal — so engine tie-breaks are the same for every system. *)
let schedule_events t ~n ~schedule_at ~crash ~recover ~partition =
  List.iter (fun (replica, at) -> schedule_at at (fun () -> crash replica)) (timed_crashes t ~n);
  List.iter
    (fun (replica, _crash_at, recover_at) -> schedule_at recover_at (fun () -> recover replica))
    (crash_recoveries t ~n);
  List.iter
    (fun (from_time, until_time, minority) ->
      schedule_at from_time (fun () -> partition ~opened:true ~time:from_time ~minority);
      if until_time < infinity then
        schedule_at until_time (fun () -> partition ~opened:false ~time:until_time ~minority))
    (partition_windows t ~n)
