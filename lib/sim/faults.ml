(* Declarative fault scenarios.

   A scenario is a named list of abstract fault specs ("crash 2 replicas at
   t=5s and recover them at t=15s", "partition a minority for 20s",
   "1 equivocating proposer") that is only bound to concrete replica ids
   when materialized against a cluster size n. Specs assign roles from the
   highest replica ids downward, matching the --crashes convention, so
   scenario runs compare directly against the existing crash experiments. *)

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

let parse_kv s =
  match String.index_opt s '=' with
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> None

let parse spec_string =
  let name, kvs =
    match String.index_opt spec_string ':' with
    | None -> (spec_string, [])
    | Some i ->
      let rest = String.sub spec_string (i + 1) (String.length spec_string - i - 1) in
      ( String.sub spec_string 0 i,
        String.split_on_char ',' rest |> List.filter (fun s -> s <> "") )
  in
  let kvs = List.filter_map parse_kv kvs in
  let float_kv key default =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some v -> (
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "%s: expected a number, got %S" key v))
  in
  let int_kv key default =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some v -> (
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "%s: expected an integer, got %S" key v))
  in
  let ( let* ) = Result.bind in
  match String.lowercase_ascii name with
  | "none" -> Ok none
  | "byzantine" ->
    let* count = int_kv "count" 1 in
    let* from_time = float_kv "from" 0.0 in
    let* until_time = float_kv "until" infinity in
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
    Ok (crash_recover ~count ~at ~recover_at ())
  | other ->
    Error (Printf.sprintf "unknown scenario %S (none|byzantine|partition|crash-recover)" other)

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

let schedule t ~n ~base =
  List.fold_left
    (fun fault spec ->
      match spec with
      | Crash { count; at; recover_at } ->
        let replicas = top_ids ~n count in
        let fault = Fault_schedule.crash_many fault ~replicas ~at in
        (match recover_at with
        | None -> fault
        | Some r -> List.fold_left (fun f replica -> Fault_schedule.recover f ~replica ~at:r) fault replicas)
      | Partition { minority; from_time; until_time } ->
        let m = minority_size ~n minority in
        let cut = top_ids ~n m in
        let rest = List.filter (fun i -> not (List.mem i cut)) (List.init n Fun.id) in
        Fault_schedule.partition fault ~groups:[ rest; cut ] ~from_time ~until_time
      | Byzantine _ -> fault (* behavioural; injected at the replica layer *)
      | Drop { count; rate; from_time; until_time } ->
        Fault_schedule.drop_egress fault ~replicas:(List.init (min count n) Fun.id) ~rate ~from_time
          ~until_time ())
    base t.specs

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

let has_byzantine t = List.exists (function Byzantine _ -> true | _ -> false) t.specs

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
