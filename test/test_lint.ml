(* shoalpp_lint: fixture corpus (one known-bad tree per rule class, plus
   allowlisted-OK and clean cases) and the meta-test asserting the real
   lib/bin/bench/tools/trace tree produces zero diagnostics under the
   checked-in policy — the machine-checked form of the sans-I/O seam and
   of docs/CONCURRENCY.md's ownership discipline. *)

module Lint = Shoalpp_lint_core.Lint
module Lint_config = Shoalpp_lint_core.Lint_config
module Json = Shoalpp_runtime.Export.Json

let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Strict policy for fixtures: every rule applies to everything under lib/.
   The race pass stays off (empty ownership map) so the Parsetree-rule
   fixtures keep their exact counts. *)
let strict ?(allowlist = []) () =
  {
    Lint_config.effect_allowed = [];
    sorted_modules = [ "lib/" ];
    polycmp_modules = [ "lib/" ];
    mli_required_under = [ "lib/" ];
    allowlist;
    ownership = [];
    lock_wrappers = [];
  }

(* Race policy for the concurrency fixtures: only the ownership-driven
   rules are in play (effects allowed, no sorted/polycmp/mli noise). *)
let race ?(ownership = [ ("lib/", [ Lint_config.Main; Lint_config.Lane ]) ])
    ?(allowlist = []) () =
  {
    Lint_config.effect_allowed = [ "lib/" ];
    sorted_modules = [];
    polycmp_modules = [];
    mli_required_under = [];
    allowlist;
    ownership;
    lock_wrappers = [ "with_mu"; "Mutex.protect" ];
  }

let fixture_root name = Filename.concat "lint_fixtures" name

let run_fixture ?allowlist name =
  Lint.run ~config:(strict ?allowlist ()) ~root:(fixture_root name) ~paths:[ "lib" ] ()

let run_race ?ownership ?allowlist name =
  (* fixtures carry no _build, so cmt lookup would be a no-op anyway;
     [~use_cmt:false] pins the Parsetree-refs path deterministically *)
  Lint.run
    ~config:(race ?ownership ?allowlist ())
    ~use_cmt:false ~root:(fixture_root name) ~paths:[ "lib" ] ()

let count rule diags =
  List.length (List.filter (fun d -> String.equal d.Lint.d_rule rule) diags)

(* ------------------------------------------------------------------ *)
(* Known-bad fixtures: each rule class must fire. *)

let test_effect_confinement () =
  let diags = run_fixture "bad_effect" in
  (* .ml: Unix.gettimeofday, Sys.time, Random.int, Mutex.create and the
     [module U = Unix] alias; .mli: the Mutex.t type reference. *)
  checki "effect sites flagged" 6 (count "effect-confinement" diags);
  checki "nothing else flagged" 6 (List.length diags)

let test_sorted_iteration () =
  let diags = run_fixture "bad_sorted" in
  checki "iter/fold/to_seq flagged" 3 (count "sorted-iteration" diags);
  checki "Hashtbl.length not flagged" 3 (List.length diags)

(* The int-keyed table is a [Hashtbl] specialization: renaming the module
   must not lift the rule. *)
let test_sorted_iteration_int_tbl () =
  let diags = run_fixture "bad_sorted_int_tbl" in
  checki "Int_tbl iter/fold/to_seq_keys flagged" 3 (count "sorted-iteration" diags);
  checki "lookups and length not flagged" 3 (List.length diags)

let test_poly_compare () =
  let diags = run_fixture "bad_polycmp" in
  (* bare [compare], Hashtbl.hash, tuple [=], string [<>]; the immediate
     [x = 1] comparison must stay unflagged. *)
  checki "poly-compare sites flagged" 4 (count "poly-compare" diags);
  checki "immediate int = not flagged" 4 (List.length diags)

let test_interface_hygiene () =
  let diags = run_fixture "bad_interface" in
  checki "missing .mli flagged" 1 (count "missing-mli" diags);
  checki "missing Invariants: flagged" 1 (count "missing-invariants-doc" diags);
  checki "documented files pass" 2 (List.length diags)

let test_parse_error () =
  let diags = run_fixture "bad_parse" in
  checki "unparseable file reported" 1 (count "parse-error" diags)

(* ------------------------------------------------------------------ *)
(* Race-pass fixtures: the four concurrency rules. *)

let test_shared_mutable_state () =
  let diags = run_race "bad_shared_state" in
  (* Hashtbl.create, bare ref, ref captured under a closure, array
     literal; Atomic/Mutex/guarded/function-local/immutable/single-role
     forms stay silent. *)
  checki "shared mutable globals flagged" 4 (count "shared-mutable-state" diags);
  checki "nothing else flagged" 4 (List.length diags)

let test_shared_queue_and_table () =
  let diags = run_race "bad_shared_queue" in
  (* Int_tbl.create, Shoalpp_support.Heap.create, Heap.create; the
     guarded and function-local forms stay silent. *)
  checki "shared tables and queues flagged" 3 (count "shared-mutable-state" diags);
  checki "nothing else flagged" 3 (List.length diags)

let test_lock_discipline () =
  let diags = run_race "bad_lock" in
  (* unguarded read, raw Mutex.lock, the unprotected guarded write, a
     requires_lock call outside any span; wrapper / blessed-match /
     Fun.protect shapes pass. *)
  checki "lock-discipline sites flagged" 4 (count "lock-discipline" diags);
  checki "nothing else flagged" 4 (List.length diags)

let crossdomain_ownership =
  [
    ("lib/mainmod.ml", [ Lint_config.Main ]);
    ("lib/lanemod.ml", [ Lint_config.Lane ]);
    ("lib/okshared.ml", [ Lint_config.Main; Lint_config.Lane ]);
  ]

let test_cross_domain_effect () =
  let diags = run_race ~ownership:crossdomain_ownership "bad_crossdomain" in
  (* ref :=, field <-, Hashtbl.replace into a main-owned module from a
     lane-owned one; a read and an Atomic op stay silent. *)
  checki "cross-domain mutations flagged" 3 (count "cross-domain-effect" diags);
  checki "nothing else flagged" 3 (List.length diags)

let test_ownership_annotations () =
  let diags = run_race ~ownership:[ ("lib/", [ Lint_config.Main ]) ] "bad_ownership" in
  (* unknown role, payload-less domain attr, guarded_by naming no mutex,
     typoed attribute name. *)
  checki "annotation errors flagged" 4 (count "domain-ownership" diags);
  checki "nothing else flagged" 4 (List.length diags)

(* ------------------------------------------------------------------ *)
(* OK fixtures: allowlisting and the repaired idioms. *)

let test_allowlisted_ok () =
  let allowlist =
    [
      {
        Lint_config.a_path = "lib/clock.ml";
        a_rule = "effect-confinement";
        a_reason = "fixture: documented wall-clock use";
      };
    ]
  in
  checki "allowlisted effect suppressed" 0 (List.length (run_fixture ~allowlist "ok_allowlisted"))

let test_clean_ok () = checki "clean fixture has no diagnostics" 0 (List.length (run_fixture "ok_clean"))

let test_stale_allowlist () =
  let allowlist =
    [
      {
        Lint_config.a_path = "lib/mod.ml";
        a_rule = "effect-confinement";
        a_reason = "fixture: excuses nothing";
      };
    ]
  in
  let diags = run_fixture ~allowlist "ok_clean" in
  checki "unused allowlist entry reported" 1 (count "stale-allowlist" diags);
  checki "nothing else" 1 (List.length diags)

(* A directory-prefix entry must suppress every matching diagnostic under
   it — and must be reported stale when the rule never fires there. *)
let test_prefix_allowlist_suppresses () =
  let allowlist =
    [
      {
        Lint_config.a_path = "lib/";
        a_rule = "shared-mutable-state";
        a_reason = "fixture: whole-directory waiver";
      };
    ]
  in
  checki "prefix entry suppresses all four" 0
    (List.length (run_race ~allowlist "bad_shared_state"))

let test_prefix_allowlist_stale () =
  let allowlist =
    [
      {
        Lint_config.a_path = "lib/";
        a_rule = "lock-discipline";
        a_reason = "fixture: excuses nothing under this tree";
      };
    ]
  in
  let diags = run_race ~allowlist "bad_shared_state" in
  checki "real diagnostics kept" 4 (count "shared-mutable-state" diags);
  checki "unused prefix entry reported" 1 (count "stale-allowlist" diags);
  checki "nothing else" 5 (List.length diags)

(* ------------------------------------------------------------------ *)
(* Machine-readable output: --format=json must parse and carry the fields. *)

let test_json_output () =
  let diags = run_fixture "bad_sorted" in
  match Json.parse (Lint.json_of_diags diags) with
  | None -> Alcotest.fail "lint JSON output does not parse"
  | Some (Json.List items) ->
    checki "one object per diagnostic" (List.length diags) (List.length items);
    List.iter2
      (fun d item ->
        let str k = match Json.member k item with Some (Json.Str s) -> s | _ -> "<missing>" in
        let int k = match Json.member k item with Some (Json.Int i) -> i | _ -> -1 in
        checks "file field" d.Lint.d_file (str "file");
        checks "rule field" d.Lint.d_rule (str "rule");
        checks "severity field" "error" (str "severity");
        checks "message field" d.Lint.d_msg (str "message");
        checki "line field" d.Lint.d_line (int "line");
        checki "col field" d.Lint.d_col (int "col"))
      diags items
  | Some _ -> Alcotest.fail "lint JSON output is not an array"

let test_json_escaping () =
  (* Messages with quotes/backslashes/control bytes must still produce
     parseable JSON with the exact string round-tripped. *)
  let d =
    {
      Lint.d_file = "lib/we\"ird\\name.ml";
      d_line = 3;
      d_col = 7;
      d_rule = "domain-ownership";
      d_msg = "unknown role \"quantum\"\n\ttab and \x01 control";
    }
  in
  match Json.parse (Lint.json_of_diags [ d ]) with
  | Some (Json.List [ item ]) ->
    let str k = match Json.member k item with Some (Json.Str s) -> s | _ -> "<missing>" in
    checks "file round-trips" d.Lint.d_file (str "file");
    checks "message round-trips" d.Lint.d_msg (str "message")
  | _ -> Alcotest.fail "escaped lint JSON does not parse"

(* ------------------------------------------------------------------ *)
(* Meta-test: the real tree lints clean under the checked-in policy. *)

let find_repo_root () =
  (* Tests run in _build/default/test; the source root is the nearest
     ancestor holding dune-project (and the linted directories). *)
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project")
       && Sys.is_directory (Filename.concat dir "lib")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent
  in
  up (Sys.getcwd ())

let real_paths = [ "lib"; "bin"; "bench"; "tools/trace" ]

let test_real_tree_clean () =
  match find_repo_root () with
  | None -> Alcotest.fail "could not locate the repository root from the test cwd"
  | Some root ->
    let diags = Lint.run ~config:Lint_config.default ~root ~paths:real_paths () in
    checks "zero diagnostics on lib/ bin/ bench/ tools/trace/" "shoalpp_lint: 0 issues\n"
      (Lint.text_of_diags diags)

let test_real_tree_clean_no_cmt () =
  (* The syntactic-refs fallback must reach the same fixpoint verdict:
     cmt availability may sharpen edges but never changes clean-vs-dirty
     on the checked-in tree. *)
  match find_repo_root () with
  | None -> Alcotest.fail "could not locate the repository root from the test cwd"
  | Some root ->
    let diags = Lint.run ~config:Lint_config.default ~use_cmt:false ~root ~paths:real_paths () in
    checks "zero diagnostics without .cmt edges" "shoalpp_lint: 0 issues\n"
      (Lint.text_of_diags diags)

let suite =
  [
    ( "lint.rules",
      [
        Alcotest.test_case "effect confinement" `Quick test_effect_confinement;
        Alcotest.test_case "sorted iteration" `Quick test_sorted_iteration;
        Alcotest.test_case "sorted iteration over Int_tbl" `Quick test_sorted_iteration_int_tbl;
        Alcotest.test_case "poly compare" `Quick test_poly_compare;
        Alcotest.test_case "interface hygiene" `Quick test_interface_hygiene;
        Alcotest.test_case "parse error" `Quick test_parse_error;
      ] );
    ( "lint.race",
      [
        Alcotest.test_case "shared mutable state" `Quick test_shared_mutable_state;
        Alcotest.test_case "shared tables and queues" `Quick test_shared_queue_and_table;
        Alcotest.test_case "lock discipline" `Quick test_lock_discipline;
        Alcotest.test_case "cross-domain effect" `Quick test_cross_domain_effect;
        Alcotest.test_case "ownership annotations" `Quick test_ownership_annotations;
      ] );
    ( "lint.policy",
      [
        Alcotest.test_case "allowlisted fixture is clean" `Quick test_allowlisted_ok;
        Alcotest.test_case "clean fixture is clean" `Quick test_clean_ok;
        Alcotest.test_case "stale allowlist reported" `Quick test_stale_allowlist;
        Alcotest.test_case "prefix allowlist suppresses" `Quick test_prefix_allowlist_suppresses;
        Alcotest.test_case "prefix allowlist stale" `Quick test_prefix_allowlist_stale;
        Alcotest.test_case "json output round-trips" `Quick test_json_output;
        Alcotest.test_case "json escaping round-trips" `Quick test_json_escaping;
        Alcotest.test_case "real tree has zero diagnostics" `Quick test_real_tree_clean;
        Alcotest.test_case "real tree clean without cmt" `Quick test_real_tree_clean_no_cmt;
      ] );
  ]
