(* Geo-distributed protocol comparison — the paper's headline scenario in
   miniature (its Fig 5 at one load point).

   Runs Shoal++, Shoal, Bullshark, Jolteon and Mysticeti on the 10-region
   GCP topology and prints the paper-style latency/throughput table plus
   the commit-rule breakdown that explains *why* Shoal++ is fast (nearly
   everything commits via the 4-message-delay Fast Direct Commit rule).

     dune exec examples/geo_comparison.exe *)

module E = Shoalpp_baselines.Experiment
module Report = Shoalpp_runtime.Report
module Tablefmt = Shoalpp_support.Tablefmt

let () =
  let params =
    {
      E.default_params with
      E.n = 16;
      load_tps = 2_000.0;
      duration_ms = 20_000.0;
      warmup_ms = 3_000.0;
      (* Signature *bytes* still travel and cost bandwidth; skipping the
         HMAC recomputation keeps the example snappy. *)
      verify_signatures = false;
    }
  in
  Format.printf
    "10-region GCP topology, %d replicas, %.0f tx/s offered, %.0f s simulated@.@." params.E.n
    params.E.load_tps
    (params.E.duration_ms /. 1000.0);
  let systems = [ E.Jolteon; E.Bullshark; E.Shoal; E.Mysticeti; E.Shoalpp ] in
  let outcomes = List.map (fun s -> (s, E.run s params)) systems in
  Tablefmt.print
    ~header:(Report.table_header @ [ "fast"; "direct"; "indirect"; "audit" ])
    (List.map
       (fun (_, (o : E.outcome)) ->
         Report.table_row o.E.report
         @ [
             string_of_int o.E.report.Report.fast_commits;
             string_of_int o.E.report.Report.direct_commits;
             string_of_int o.E.report.Report.indirect_commits;
             (if o.E.audit_ok then "ok" else "FAILED");
           ])
       outcomes);
  let p50 sys =
    (List.assoc sys (List.map (fun (s, o) -> (s, o.E.report.Report.latency_p50)) outcomes))
  in
  Format.printf
    "@.Shoal++ vs Shoal: %.0f%% lower median latency; vs Bullshark: %.0f%% lower.@."
    (100.0 *. (1.0 -. (p50 E.Shoalpp /. p50 E.Shoal)))
    (100.0 *. (1.0 -. (p50 E.Shoalpp /. p50 E.Bullshark)))
