(* Benchmark entry point: one run of one workload.

     perfbench.exe --workload sim-gcp10 --seed 3 --seconds 10 --trace 0

   Prints one line per metric, the run record as a JSON line, and last a
   JSON object with the keys correct, attempted, failed and metrics. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
   the per-layer ones from a traced run. Exits 1 when a correctness check
   fails. perfbench/run.py builds this and wraps it for the command line in
   BENCHMARK.json. *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = Printf.sprintf "%.17g" f
let json_list f l = "[" ^ String.concat ", " (List.map f l) ^ "]"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tamper = ref false in
  let names = List.map fst Harness.workloads in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time of one run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ( "--tamper-digest",
        Arg.Set tamper,
        " corrupt one repetition's log digest (checks that the correctness gate fires)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload names) then begin
    prerr_endline ("perfbench: unknown workload " ^ json_string !workload ^ "; " ^ usage);
    exit 2
  end;
  let r =
    Harness.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~tamper:!tamper
  in
  let non_finite =
    List.filter_map
      (fun (x : Harness.metric) ->
        if Float.is_finite x.Harness.value then None
        else Some (x.Harness.name ^ " is not a finite number"))
      r.Harness.metrics
  in
  let problems = r.Harness.problems @ non_finite in
  List.iter
    (fun (x : Harness.metric) ->
      Printf.printf "%-34s %18.6f %s\n" x.Harness.name x.Harness.value x.Harness.unit_)
    r.Harness.metrics;
  List.iter (fun (k, v) -> Printf.printf "%-34s %s\n" k v) r.Harness.notes;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  print_endline
    (json_object
       [
         ( "record",
           json_object
             [
               ("workload", json_string !workload);
               ("seed", string_of_int !seed);
               ("seconds", json_float !seconds);
               ("trace", string_of_int !trace);
               ("ocaml_version", json_string Sys.ocaml_version);
               ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
               ("rep_cpu_s", json_list (fun (c, _) -> json_float c) r.Harness.reps);
               ("rep_kernel_s", json_list (fun (_, k) -> json_float k) r.Harness.reps);
               ("notes", json_object (List.map (fun (k, v) -> (k, json_string v)) r.Harness.notes));
               ("problems", json_list json_string problems);
             ] );
       ]);
  let correct = problems = [] in
  print_endline
    (json_object
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int r.Harness.attempted);
         ("failed", string_of_int r.Harness.failed);
         ( "metrics",
           json_object
             (List.map
                (fun (x : Harness.metric) ->
                  ( x.Harness.name,
                    json_object
                      [
                        ( "value",
                          json_float (if Float.is_finite x.Harness.value then x.Harness.value else 0.0) );
                        ("unit", json_string x.Harness.unit_);
                      ] ))
                r.Harness.metrics) );
       ]);
  exit (if correct then 0 else 1)
