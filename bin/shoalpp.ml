(* Command-line front end. [shoalpp sim] runs any system of the paper's
   evaluation on the simulated deployment and prints the paper-style
   report; [shoalpp node] runs the same Shoal++ replicas on a wall clock
   (see Node_cmd). Both take the common flags of Cli.

   Examples:
     dune exec bin/shoalpp.exe -- sim --system shoal++ -n 16 --load 2000
     dune exec bin/shoalpp.exe -- sim --system mysticeti --scenario drop:count=5,from=20000 --series
     dune exec bin/shoalpp.exe -- sim --system bullshark --scenario crash:count=5 --duration 30000
     dune exec bin/shoalpp.exe -- sim --scenario byzantine:count=1,kind=equivocate
     dune exec bin/shoalpp.exe -- sim --scenario partition:from=8000,dur=20000 --series
     dune exec bin/shoalpp.exe -- sim --scenario crash-recover:at=5000,recover=15000
     dune exec bin/shoalpp.exe -- sim --trace-out run.jsonl --chrome-out run.trace.json \
       --metrics-out run.metrics.json
     dune exec bin/shoalpp.exe -- node -n 4 --duration 2000 --load 200 --transport tcp *)

module E = Shoalpp_baselines.Experiment
module Report = Shoalpp_runtime.Report
module Export = Shoalpp_runtime.Export
open Cmdliner

(* A system's CLI name is its report name with '-' for ' ', plus the
   aliases shoalpp, faster-anchors and more-faster-anchors. *)
let system_conv =
  let systems = E.all_dag_systems @ [ E.Jolteon; E.Mysticeti ] in
  let cli_name s = String.map (fun c -> if c = ' ' then '-' else c) (E.system_name s) in
  let parse s =
    let s =
      match String.lowercase_ascii s with
      | "shoalpp" -> "shoal++"
      | ("faster-anchors" | "more-faster-anchors") as a -> "shoal++-" ^ a
      | s -> s
    in
    match List.find_opt (fun sys -> cli_name sys = s) systems with
    | Some sys -> Ok sys
    | None -> Error (`Msg (Printf.sprintf "unknown system %S" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (E.system_name s))

let run (c : Cli.common) system dags stagger series chrome_out =
  let params =
    {
      E.default_params with
      E.n = c.Cli.n;
      load_tps = c.Cli.load;
      duration_ms = c.Cli.duration;
      warmup_ms = c.Cli.warmup;
      topology = Option.value c.Cli.topology ~default:E.default_params.E.topology;
      scenario = c.Cli.scenario;
      round_timeout_ms = c.Cli.timeout;
      num_dags = dags;
      stagger_ms = stagger;
      verify_signatures = not c.Cli.no_verify;
      checkpoint_interval = c.Cli.checkpoint_interval;
      seed = c.Cli.seed;
      trace = c.Cli.trace_out <> None || chrome_out <> None;
    }
  in
  let outcome = E.run system params in
  Format.printf "%a@." Report.pp_extended outcome.E.report;
  Format.printf "audit: %s; requeued=%d; messages=%d (dropped %d); %.1f MB sent@."
    (if outcome.E.audit_ok then "consistent logs, no duplicates" else "FAILED")
    outcome.E.requeued outcome.E.report.Report.messages_sent
    outcome.E.report.Report.messages_dropped
    (outcome.E.report.Report.bytes_sent /. 1.0e6);
  (match chrome_out with
  | Some path ->
    Cli.write_file path (fun oc -> Export.write_chrome_trace oc outcome.E.events);
    Format.printf "chrome trace: %s (load in Perfetto or chrome://tracing)@." path
  | None -> ());
  if series then begin
    Format.printf "@.time series (1s windows):@.";
    Shoalpp_support.Tablefmt.print
      ~header:[ "t(s)"; "tps"; "mean latency(ms)" ]
      (List.map
         (fun (t, tps) ->
           let lat =
             match List.assoc_opt t outcome.E.latency_series with
             | Some l -> Printf.sprintf "%.0f" l
             | None -> "-"
           in
           [ Printf.sprintf "%.0f" (t /. 1000.0); Printf.sprintf "%.0f" tps; lat ])
         outcome.E.throughput_series)
  end;
  Cli.finish c ~events:outcome.E.events ~telemetry:outcome.E.report.Report.telemetry
    ~ok:outcome.E.audit_ok

let sim =
  let system =
    Arg.(value & opt system_conv E.Shoalpp & info [ "system"; "s" ] ~doc:"System to run.")
  in
  let dags = Arg.(value & opt (some int) None & info [ "dags" ] ~doc:"Parallel DAGs override.") in
  let stagger =
    Arg.(value & opt (some float) None & info [ "stagger" ] ~doc:"DAG stagger override, ms.")
  in
  let series = Arg.(value & flag & info [ "series" ] ~doc:"Print per-second time series.") in
  let chrome_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-out" ] ~docv:"FILE"
          ~doc:"Write the event trace in Chrome trace_event JSON (Perfetto-loadable).")
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Run a simulated BFT consensus deployment (Shoal++ and baselines)")
    Term.(
      const run
      $ Cli.common ~n:16 ~load:1000.0 ~duration:30_000.0 ~warmup:3_000.0
          ~topology_doc:"Default gcp10." ~scenario_check:(fun _ -> Ok ())
          ~scenario_doc:
            "Presets: none | byzantine | partition | crash-recover | crash | drop — e.g. \
             byzantine:count=1,kind=equivocate|silent|delay, \
             partition:from=8000,dur=20000,minority=5, \
             crash-recover:count=1,at=5000,recover=15000, crash:count=5 (down from t=0), \
             drop:count=1,rate=0.01,from=20000 (egress drops)."
      $ system $ dags $ stagger $ series $ chrome_out)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "shoalpp" ~doc:"Shoal++ and its baselines, simulated or in real time")
          [ sim; Node_cmd.cmd ]))
