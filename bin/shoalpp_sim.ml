(* Command-line front end: run any system of the paper's evaluation on the
   simulated deployment and print the paper-style report.

   Examples:
     dune exec bin/shoalpp_sim.exe -- --system shoal++ -n 16 --load 2000
     dune exec bin/shoalpp_sim.exe -- --system mysticeti --drop 5,0.01,20000 --series
     dune exec bin/shoalpp_sim.exe -- --system bullshark --crashes 5 --duration 30000
     dune exec bin/shoalpp_sim.exe -- --scenario byzantine:count=1,kind=equivocate
     dune exec bin/shoalpp_sim.exe -- --scenario partition:from=8000,dur=20000 --series
     dune exec bin/shoalpp_sim.exe -- --scenario crash-recover:at=5000,recover=15000
     dune exec bin/shoalpp_sim.exe -- --trace-out run.jsonl --chrome-out run.trace.json \
       --metrics-out run.metrics.json *)

module E = Shoalpp_baselines.Experiment
module Report = Shoalpp_runtime.Report
module Export = Shoalpp_runtime.Export
open Cmdliner

let write_file path f =
  match open_out path with
  | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  | exception Sys_error msg ->
    Printf.eprintf "shoalpp_sim: cannot write %s (%s)\n" path msg;
    exit 1

let system_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "shoal++" | "shoalpp" -> Ok E.Shoalpp
    | "shoal" -> Ok E.Shoal
    | "bullshark" -> Ok E.Bullshark
    | "shoal++-faster-anchors" | "faster-anchors" -> Ok E.Shoalpp_faster_anchors
    | "shoal++-more-faster-anchors" | "more-faster-anchors" -> Ok E.Shoalpp_more_faster_anchors
    | "shoal-more-dags" -> Ok E.Shoal_more_dags
    | "bullshark-more-dags" -> Ok E.Bullshark_more_dags
    | "jolteon" -> Ok E.Jolteon
    | "mysticeti" -> Ok E.Mysticeti
    | other -> Error (`Msg (Printf.sprintf "unknown system %S" other))
  in
  let print fmt s = Format.pp_print_string fmt (E.system_name s) in
  Arg.conv (parse, print)

let topology_conv =
  let parse s =
    match String.split_on_char ':' (String.lowercase_ascii s) with
    | [ "gcp10" ] -> Ok E.Gcp10
    | [ "uniform"; ms ] -> (
      match float_of_string_opt ms with
      | Some v -> Ok (E.Uniform v)
      | None -> Error (`Msg "uniform:<one-way-ms>"))
    | [ "clique"; spec ] -> (
      match String.split_on_char ',' spec with
      | [ k; ms ] -> (
        match (int_of_string_opt k, float_of_string_opt ms) with
        | Some k, Some ms -> Ok (E.Clique (k, ms))
        | _ -> Error (`Msg "clique:<regions>,<one-way-ms>"))
      | _ -> Error (`Msg "clique:<regions>,<one-way-ms>"))
    | _ -> Error (`Msg "expected gcp10 | uniform:<ms> | clique:<k>,<ms>")
  in
  let print fmt = function
    | E.Gcp10 -> Format.pp_print_string fmt "gcp10"
    | E.Uniform ms -> Format.fprintf fmt "uniform:%g" ms
    | E.Clique (k, ms) -> Format.fprintf fmt "clique:%d,%g" k ms
  in
  Arg.conv (parse, print)

let scenario_conv =
  let parse s =
    match Shoalpp_sim.Faults.parse s with
    | Ok sc -> Ok sc
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Shoalpp_sim.Faults.pp)

let drop_conv =
  let parse s =
    match String.split_on_char ',' s with
    | [ k; rate; from ] -> (
      match (int_of_string_opt k, float_of_string_opt rate, float_of_string_opt from) with
      | Some k, Some rate, Some from -> Ok (k, rate, from)
      | _ -> Error (`Msg "expected <replicas>,<rate>,<from-ms>"))
    | _ -> Error (`Msg "expected <replicas>,<rate>,<from-ms>")
  in
  let print fmt (k, rate, from) = Format.fprintf fmt "%d,%g,%g" k rate from in
  Arg.conv (parse, print)

let run system n load duration warmup topology crashes scenario drop timeout dags stagger seed
    no_verify checkpoint_interval series trace_out chrome_out metrics_out =
  let params =
    {
      E.default_params with
      E.n;
      load_tps = load;
      duration_ms = duration;
      warmup_ms = warmup;
      topology;
      crashes;
      scenario;
      drop_spec = drop;
      round_timeout_ms = timeout;
      num_dags = dags;
      stagger_ms = stagger;
      verify_signatures = not no_verify;
      checkpoint_interval = max 0 checkpoint_interval;
      seed;
      trace = trace_out <> None || chrome_out <> None;
    }
  in
  let outcome = E.run system params in
  Format.printf "%a@." Report.pp_extended outcome.E.report;
  Format.printf "audit: %s; requeued=%d; messages=%d (dropped %d); %.1f MB sent@."
    (if outcome.E.audit_ok then "consistent logs, no duplicates" else "FAILED")
    outcome.E.requeued outcome.E.report.Report.messages_sent
    outcome.E.report.Report.messages_dropped
    (outcome.E.report.Report.bytes_sent /. 1.0e6);
  (match trace_out with
  | Some path ->
    write_file path (fun oc -> Export.write_jsonl oc outcome.E.events);
    Format.printf "trace: %d events -> %s@." (List.length outcome.E.events) path
  | None -> ());
  (match chrome_out with
  | Some path ->
    write_file path (fun oc -> Export.write_chrome_trace oc outcome.E.events);
    Format.printf "chrome trace: %s (load in Perfetto or chrome://tracing)@." path
  | None -> ());
  (match metrics_out with
  | Some path ->
    write_file path (fun oc ->
        Export.write_metrics oc outcome.E.report.Report.telemetry;
        output_char oc '\n');
    Format.printf "metrics: %s@." path
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
  if not outcome.E.audit_ok then exit 1

let cmd =
  let system =
    Arg.(value & opt system_conv E.Shoalpp & info [ "system"; "s" ] ~doc:"System to run.")
  in
  let n = Arg.(value & opt int 16 & info [ "n"; "replicas" ] ~doc:"Number of replicas.") in
  let load = Arg.(value & opt float 1000.0 & info [ "load" ] ~doc:"Offered load, tx/s.") in
  let duration =
    Arg.(value & opt float 30_000.0 & info [ "duration" ] ~doc:"Simulated run length, ms.")
  in
  let warmup = Arg.(value & opt float 3_000.0 & info [ "warmup" ] ~doc:"Warmup excluded, ms.") in
  let topology =
    Arg.(value & opt topology_conv E.Gcp10 & info [ "topology" ] ~doc:"gcp10 | uniform:MS | clique:K,MS.")
  in
  let crashes =
    Arg.(value & opt int 0 & info [ "crashes" ] ~doc:"Crash this many replicas at t=0.")
  in
  let scenario =
    Arg.(
      value
      & opt scenario_conv Shoalpp_sim.Faults.none
      & info [ "scenario" ] ~docv:"SPEC"
          ~doc:
            "Declarative fault scenario: none | byzantine | partition | crash-recover, \
             optionally followed by :key=val,... — e.g. \
             byzantine:count=1,kind=equivocate|silent|delay, \
             partition:from=8000,dur=20000,minority=5, \
             crash-recover:count=1,at=5000,recover=15000.")
  in
  let drop =
    Arg.(value & opt (some drop_conv) None & info [ "drop" ] ~doc:"Egress drops: K,RATE,FROM_MS.")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~doc:"Round timeout override, ms.")
  in
  let dags = Arg.(value & opt (some int) None & info [ "dags" ] ~doc:"Parallel DAGs override.") in
  let stagger =
    Arg.(value & opt (some float) None & info [ "stagger" ] ~doc:"DAG stagger override, ms.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let no_verify =
    Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip signature verification (faster).")
  in
  let checkpoint_interval =
    Arg.(
      value
      & opt int 0
      & info [ "checkpoint-interval" ] ~docv:"C"
          ~doc:
            "Certify a checkpoint (and prune history below it) every C committed anchors; 0 \
             (default) disables the bounded-memory lifecycle. Rounded up to a multiple of the \
             DAG count so the boundary always lands on the round-robin merge seam. Commit \
             sequences are identical at any value.")
  in
  let series = Arg.(value & flag & info [ "series" ] ~doc:"Print per-second time series.") in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE" ~doc:"Write the typed event trace as JSONL.")
  in
  let chrome_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-out" ] ~docv:"FILE"
          ~doc:"Write the event trace in Chrome trace_event JSON (Perfetto-loadable).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the telemetry snapshot (counters, stage histograms) as JSON.")
  in
  Cmd.v
    (Cmd.info "shoalpp_sim" ~doc:"Run a simulated BFT consensus deployment (Shoal++ and baselines)")
    Term.(
      const run $ system $ n $ load $ duration $ warmup $ topology $ crashes $ scenario $ drop
      $ timeout $ dags $ stagger $ seed $ no_verify $ checkpoint_interval $ series $ trace_out
      $ chrome_out $ metrics_out)

let () = exit (Cmd.eval cmd)
