(* What the two subcommands of [shoalpp] share: one definition of each
   common flag (only the defaults differ per subcommand), the topology and
   fault-scenario vocabularies, and one export-and-exit epilogue. *)

module Export = Shoalpp_runtime.Export
module Topology = Shoalpp_sim.Topology
module Faults = Shoalpp_sim.Faults
open Cmdliner

type common = {
  n : int;
  load : float;
  duration : float;
  warmup : float;
  timeout : float option;
  seed : int;
  no_verify : bool;
  checkpoint_interval : int;
  topology : Topology.t option;  (** [None]: the subcommand's default *)
  scenario : Faults.t;  (** every [--scenario] given, combined in order *)
  trace_out : string option;
  metrics_out : string option;
}

let topology_arg =
  let parse s = Result.map_error (fun m -> `Msg m) (Topology.of_spec s) in
  Arg.conv (parse, fun fmt t -> Format.pp_print_string fmt (Topology.to_spec t))

(* [check] refuses what the subcommand cannot run, as a parse error. *)
let scenario_arg ~check =
  let parse s =
    Result.map_error
      (fun m -> `Msg m)
      (Result.bind (Faults.parse s) (fun t -> Result.map (fun () -> t) (check t)))
  in
  Arg.conv (parse, Faults.pp)

let common ~n ~load ~duration ~warmup ~topology_doc ~scenario_check ~scenario_doc =
  let mk n load duration warmup timeout seed no_verify checkpoint_interval topology scenarios
      trace_out metrics_out =
    {
      n;
      load;
      duration;
      warmup;
      timeout;
      seed;
      no_verify;
      checkpoint_interval = max 0 checkpoint_interval;
      topology;
      scenario = Faults.combine scenarios;
      trace_out;
      metrics_out;
    }
  in
  let file name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc) in
  Term.(
    const mk
    $ Arg.(value & opt int n & info [ "n"; "replicas" ] ~doc:"Number of replicas.")
    $ Arg.(value & opt float load & info [ "load" ] ~doc:"Offered load, tx/s.")
    $ Arg.(
        value
        & opt float duration
        & info [ "duration" ] ~doc:"Run length, ms (simulated for sim, wall clock for node).")
    $ Arg.(value & opt float warmup & info [ "warmup" ] ~doc:"Warmup excluded, ms.")
    $ Arg.(value & opt (some float) None & info [ "timeout" ] ~doc:"Round timeout override, ms.")
    $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed (keys, clients, network).")
    $ Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip signature verification (faster).")
    $ Arg.(
        value
        & opt int 0
        & info [ "checkpoint-interval" ] ~docv:"C"
            ~doc:
              "Certify a checkpoint (and prune history below it) every C committed anchors; 0 \
               (default) disables the bounded-memory lifecycle. Rounded up to a multiple of the \
               DAG count so the boundary always lands on the round-robin merge seam. Commit \
               sequences are identical at any value.")
    $ Arg.(
        value
        & opt (some topology_arg) None
        & info [ "topology" ] ~docv:"SPEC"
            ~doc:
              ("gcp10 (the paper's 10-region GCP RTT matrix, replicas placed round-robin) | \
                uniform:MS | clique:K,MS (K regions, MS one-way between them). " ^ topology_doc))
    $ Arg.(
        value
        & opt_all (scenario_arg ~check:scenario_check) []
        & info [ "scenario" ] ~docv:"SPEC"
            ~doc:
              ("Declarative fault scenario: a preset name, optionally followed by \
                :key=val,... Repeatable: the faults of every given scenario apply, in the \
                order given. " ^ scenario_doc))
    $ file "trace-out" "Write the typed event trace as JSONL."
    $ file "metrics-out" "Write the telemetry snapshot (counters, stage histograms) as JSON.")

let write_file path f =
  match open_out path with
  | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  | exception Sys_error msg ->
    Printf.eprintf "shoalpp: cannot write %s (%s)\n" path msg;
    exit 1

(* The epilogue of every run: export what was asked for, then exit 1 if
   the safety audit failed. *)
let finish c ~events ~telemetry ~ok =
  (match c.trace_out with
  | Some path ->
    write_file path (fun oc -> Export.write_jsonl oc events);
    Format.printf "trace: %d events -> %s@." (List.length events) path
  | None -> ());
  (match c.metrics_out with
  | Some path ->
    write_file path (fun oc ->
        Export.write_metrics oc telemetry;
        output_char oc '\n');
    Format.printf "metrics: %s@." path
  | None -> ());
  if not ok then exit 1
