(* shoalpp_lint engine: compiler-AST determinism & layering analysis.

   Parses every .ml/.mli with compiler-libs (Parsetree only — no typing, no
   ppx, strictly read-only) and enforces the seam/determinism rules of
   [Lint_config]:

   - [effect-confinement]   Unix / Thread / Mutex / Condition / Domain /
                            stdlib Random / Sys.time outside the sans-I/O
                            backend (config [effect_allowed]).
   - [sorted-iteration]     Hashtbl.iter/fold/to_seq in modules that feed
                            trace export, report rendering, digests or
                            message emission (config [sorted_modules]) —
                            route through Shoalpp_support.Sorted_tbl.
   - [poly-compare]         bare [compare] / [Hashtbl.hash], and [=]/[<>]
                            on syntactically structured operands, inside
                            protocol-key modules (config [polycmp_modules]).
                            Being untyped, this is a sound-by-construction
                            *syntactic* approximation: it cannot see through
                            aliases, but every flagged site is a real
                            polymorphic-comparison call.
   - [missing-mli] /        interface hygiene under [mli_required_under]:
     [missing-invariants-doc]  every .ml has an .mli and every .mli carries
                            an [Invariants:] doc-comment.
   - [parse-error]          a file compiler-libs cannot parse.
   - [stale-allowlist]      an allowlist entry that suppressed nothing —
                            the suppression list cannot outlive the code
                            it excuses.

   On top of the Parsetree rules sits the *race pass* (active when the
   config carries a non-empty ownership map) — the machine-checked form of
   docs/CONCURRENCY.md:

   - [domain-ownership]     annotation validity: unknown role strings in
                            [@@@shoalpp.domain], missing payloads,
                            guarded_by naming no known mutex, typoed
                            shoalpp.* attributes.
   - [shared-mutable-state] top-level refs / Hashtbls / mutable records /
                            arrays in a module *reachable* from more than
                            one domain role, unless Atomic, declared
                            [@@shoalpp.guarded_by], or allowlisted.
   - [lock-discipline]      guarded state touched outside an acquire-
                            release span; [Mutex.lock] without an
                            exception-safe unlock on all paths;
                            [@@shoalpp.requires_lock] functions called
                            without the lock.
   - [cross-domain-effect]  direct mutation of a module owned by a
                            disjoint role set — lane<->main effects must
                            flow through Backend.schedule/post.

   Everything file-local stays Parsetree-syntactic; the one global
   ingredient — which roles can reach a module — is a fixpoint over the
   inter-module reference graph. Edges are read from `.cmt` Typedtrees
   when available (resolved [Path.t]s, so aliases and [open]s cannot hide
   an edge) and unioned with syntactic longident heads as the fallback.

   Diagnostics are returned sorted by (file, line, col, rule): the linter
   practices the determinism it preaches. *)

type diagnostic = {
  d_file : string;
  d_line : int;
  d_col : int;
  d_rule : string;
  d_msg : string;
}

(* ------------------------------------------------------------------ *)
(* Path policy. *)

(* A pattern ending in '/' is a directory prefix; otherwise exact match. *)
let path_matches ~pat path =
  let n = String.length pat in
  if n > 0 && pat.[n - 1] = '/' then String.length path >= n && String.sub path 0 n = pat
  else String.equal pat path

let matches_any pats path = List.exists (fun pat -> path_matches ~pat path) pats

(* Per-file view of the config. *)
type file_rules = {
  effects_allowed : bool;
  sorted_required : bool;
  polycmp : bool;
  mli_rules : bool;
}

let rules_for (config : Lint_config.t) path =
  {
    effects_allowed = matches_any config.effect_allowed path;
    sorted_required = matches_any config.sorted_modules path;
    polycmp = matches_any config.polycmp_modules path;
    mli_rules = matches_any config.mli_required_under path;
  }

(* ------------------------------------------------------------------ *)
(* AST rules. *)

let effect_modules = [ "Unix"; "Thread"; "Mutex"; "Condition"; "Domain"; "Random" ]

let effect_violation lid =
  match Longident.flatten lid with
  | [ "Sys"; "time" ] -> Some "Sys.time reads the wall clock"
  | "Random" :: _ ->
    Some "stdlib Random is process-global OS-seedable state; use Shoalpp_support.Rng"
  | (("Unix" | "Thread" | "Mutex" | "Condition" | "Domain") as m) :: _ ->
    Some (m ^ " is an ambient OS effect")
  | _ -> None

let hashtbl_traversals = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

(* Hash tables whose traversals visit bindings in bucket order: the stdlib
   one and the int-keyed specialization in lib/support, named bare or
   through its library path. *)
let hash_table_module = function
  | [ "Hashtbl" ] | [ "Int_tbl" ] | [ "Shoalpp_support"; "Int_tbl" ] -> true
  | _ -> false

(* [M.f] as (M's path, f). *)
let split_last lid =
  match List.rev (Longident.flatten lid) with
  | f :: rev_path -> Some (List.rev rev_path, f)
  | [] -> None

let sorted_violation lid =
  match split_last lid with
  | Some (m, f) when hash_table_module m && List.mem f hashtbl_traversals ->
    Some (String.concat "." (m @ [ f ]))
  | _ -> None

let polycmp_ident_violation lid =
  match Longident.flatten lid with
  | [ "compare" ] | [ "Stdlib"; "compare" ] ->
    Some "bare polymorphic [compare]; use an explicit comparator (Int.compare, Digest32.compare, ...)"
  | [ "Hashtbl"; ("hash" | "seeded_hash") ] ->
    Some "polymorphic Hashtbl.hash; use the key type's own hash"
  | _ -> None

(* Operands of [=]/[<>] that are syntactically non-immediate — the cases an
   untyped pass can flag without false positives on ints/bools/chars. *)
let structured_operand (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string _)
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _
  | Pexp_construct (_, Some _)
  | Pexp_variant (_, Some _) ->
    true
  | _ -> false

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let ast_diagnostics ~path ~rules ast_kind source =
  let diags = ref [] in
  let add loc rule msg =
    let line, col = pos_of loc in
    diags := { d_file = path; d_line = line; d_col = col; d_rule = rule; d_msg = msg } :: !diags
  in
  let check_lid loc lid =
    (if not rules.effects_allowed then
       match effect_violation lid with
       | Some why ->
         add loc "effect-confinement"
           (Printf.sprintf "%s — only lib/backend/ and bin/node_cmd.ml may touch it"
              why)
       | None -> ());
    (if rules.sorted_required then
       match sorted_violation lid with
       | Some what ->
         add loc "sorted-iteration"
           (what
          ^ " visits bindings in hash order; this module feeds emitted bytes — use \
             Shoalpp_support.Sorted_tbl, or sort what the traversal collects")
       | None -> ());
    if rules.polycmp then
      match polycmp_ident_violation lid with Some msg -> add loc "poly-compare" msg | None -> ()
  in
  let open Ast_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_lid loc txt
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident (("=" | "<>") as op); _ }; _ }, args)
      when rules.polycmp && List.exists (fun (_, a) -> structured_operand a) args ->
      add e.pexp_loc "poly-compare"
        (Printf.sprintf
           "structural [%s] on a non-immediate operand; use an explicit equality \
            (String.equal, Digest32.equal, pattern match, ...)"
           op)
    | _ -> ());
    default_iterator.expr self e
  in
  let module_expr self (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> check_lid loc txt
    | _ -> ());
    default_iterator.module_expr self m
  in
  let typ self (t : Parsetree.core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; loc }, _) ->
      if not rules.effects_allowed then (
        match effect_violation txt with
        | Some why -> add loc "effect-confinement" (why ^ " (type reference leaks the dependency)")
        | None -> ())
    | _ -> ());
    default_iterator.typ self t
  in
  let iterator = { default_iterator with expr; module_expr; typ } in
  (match ast_kind with
  | `Impl -> iterator.structure iterator (source : Parsetree.structure)
  | `Intf -> assert false);
  !diags

let intf_diagnostics ~path ~rules (sg : Parsetree.signature) =
  (* Signatures contain no expressions; only type references can violate the
     effect seam. Reuse the iterator by wrapping nothing: walk types. *)
  let diags = ref [] in
  let add loc rule msg =
    let line, col = pos_of loc in
    diags := { d_file = path; d_line = line; d_col = col; d_rule = rule; d_msg = msg } :: !diags
  in
  let open Ast_iterator in
  let typ self (t : Parsetree.core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; loc }, _) ->
      if not rules.effects_allowed then (
        match effect_violation txt with
        | Some why -> add loc "effect-confinement" (why ^ " (type reference leaks the dependency)")
        | None -> ())
    | _ -> ());
    default_iterator.typ self t
  in
  let module_type self (mt : Parsetree.module_type) =
    (match mt.pmty_desc with
    | Pmty_ident { txt; loc } | Pmty_alias { txt; loc } ->
      if not rules.effects_allowed then (
        match effect_violation txt with
        | Some why -> add loc "effect-confinement" why
        | None -> ())
    | _ -> ());
    default_iterator.module_type self mt
  in
  let iterator = { default_iterator with typ; module_type } in
  iterator.signature iterator sg;
  !diags

(* ------------------------------------------------------------------ *)
(* Parsing. *)

let read_file abs =
  let ic = open_in_bin abs in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_with parser ~path text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  match parser lexbuf with
  | ast -> Ok ast
  | exception exn ->
    let loc =
      match exn with
      | Syntaxerr.Error e -> Some (Syntaxerr.location_of_error e)
      | Lexer.Error (_, loc) -> Some loc
      | _ -> None
    in
    let line, col = match loc with Some l -> pos_of l | None -> (1, 0) in
    Error
      {
        d_file = path;
        d_line = line;
        d_col = col;
        d_rule = "parse-error";
        d_msg = "compiler-libs failed to parse this file";
      }

(* ------------------------------------------------------------------ *)
(* File collection. *)

let is_source path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

let rec walk ~root rel acc =
  let abs = if rel = "" then root else Filename.concat root rel in
  if Sys.is_directory abs then begin
    let entries = Sys.readdir abs in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        if String.length entry = 0 || entry.[0] = '.' || String.equal entry "_build" then acc
        else walk ~root (if rel = "" then entry else rel ^ "/" ^ entry) acc)
      acc entries
  end
  else if is_source rel then rel :: acc
  else acc

(* ------------------------------------------------------------------ *)
(* Per-file analysis. *)

let lint_source ~config ~path text =
  let rules = rules_for config path in
  let ast_diags =
    if Filename.check_suffix path ".mli" then
      match parse_with Parse.interface ~path text with
      | Ok sg -> intf_diagnostics ~path ~rules sg
      | Error d -> [ d ]
    else
      match parse_with Parse.implementation ~path text with
      | Ok st -> ast_diagnostics ~path ~rules `Impl st
      | Error d -> [ d ]
  in
  let doc_diags =
    if rules.mli_rules && Filename.check_suffix path ".mli" then
      (* Textual on purpose: the Invariants: contract lives in prose, and a
         substring check keeps it independent of odoc attribute encoding. *)
      let has_invariants =
        let needle = "Invariants:" in
        let n = String.length text and m = String.length needle in
        let rec scan i = i + m <= n && (String.sub text i m = needle || scan (i + 1)) in
        scan 0
      in
      if has_invariants then []
      else
        [
          {
            d_file = path;
            d_line = 1;
            d_col = 0;
            d_rule = "missing-invariants-doc";
            d_msg = "every .mli must document its invariants in an 'Invariants:' doc-comment";
          };
        ]
    else []
  in
  ast_diags @ doc_diags

(* ------------------------------------------------------------------ *)
(* Race pass: domain ownership, shared mutable state, lock discipline,
   cross-domain effects. *)

module SS = Set.Make (String)

let role_bit = function Lint_config.Main -> 1 | Lint_config.Lane -> 2 | Lint_config.Pool -> 4
let mask_of_roles roles = List.fold_left (fun m r -> m lor role_bit r) 0 roles

let roles_of_mask m =
  List.filter (fun r -> m land role_bit r <> 0) [ Lint_config.Main; Lint_config.Lane; Lint_config.Pool ]

let mask_name m = String.concat "+" (List.map Lint_config.role_name (roles_of_mask m))
let popcount m = (m land 1) + ((m lsr 1) land 1) + ((m lsr 2) land 1)

let roles_of_string = function
  | "main" -> Some [ Lint_config.Main ]
  | "lane" -> Some [ Lint_config.Lane ]
  | "pool" -> Some [ Lint_config.Pool ]
  | "shared" -> Some [ Lint_config.Main; Lint_config.Lane; Lint_config.Pool ]
  | _ -> None

let shoalpp_attr (attr : Parsetree.attribute) =
  let name = attr.attr_name.txt in
  let pre = "shoalpp." in
  let n = String.length pre in
  if String.length name > n && String.sub name 0 n = pre then
    Some (String.sub name n (String.length name - n))
  else None

let string_payload (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

let lid_last lid = match List.rev (Longident.flatten lid) with x :: _ -> x | [] -> ""
let rec lid_head (lid : Longident.t) =
  match lid with Lident s -> s | Ldot (p, _) -> lid_head p | Lapply (p, _) -> lid_head p

(* Last "__"-separated segment of a compilation-unit name: dune mangles
   wrapped-library units as Lib__Module. *)
let last_dunder_seg s =
  let n = String.length s in
  let rec find i best =
    if i + 1 >= n then best
    else if s.[i] = '_' && s.[i + 1] = '_' then find (i + 2) (i + 2)
    else find (i + 1) best
  in
  let start = find 0 0 in
  String.sub s start (n - start)

let split_dunder s =
  let n = String.length s in
  let rec go i start acc =
    if i + 1 < n && s.[i] = '_' && s.[i + 1] = '_' then
      go (i + 2) (i + 2) (String.sub s start (i - start) :: acc)
    else if i >= n then List.rev (String.sub s start (n - start) :: acc)
    else go (i + 1) start acc
  in
  go 0 0 []

let is_capitalized s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

(* --- expression shape helpers --- *)

let expr_contains pred e =
  let found = ref false in
  let open Ast_iterator in
  let expr self x =
    if pred x then found := true;
    default_iterator.expr self x
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  !found

let is_apply_of comps (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> Longident.flatten txt = comps
  | _ -> false

let is_mutex_lock lid = Longident.flatten lid = [ "Mutex"; "lock" ]

(* The canonical exception-safe acquire-release continuation:
     Mutex.lock mu;
     match body with
     | v -> ... Mutex.unlock mu ...; v
     | exception e -> ... Mutex.unlock mu ...; raise e
   (at least one [exception] case, an unlock on every arm), or
     Mutex.lock mu; Fun.protect ~finally:(fun () -> ... unlock ...) f *)
let blessed_continuation (cont : Parsetree.expression) =
  match cont.pexp_desc with
  | Pexp_match (_, cases) ->
    List.exists
      (fun (c : Parsetree.case) ->
        match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false)
      cases
    && List.for_all
         (fun (c : Parsetree.case) -> expr_contains (is_apply_of [ "Mutex"; "unlock" ]) c.pc_rhs)
         cases
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when Longident.flatten txt = [ "Fun"; "protect" ] ->
    List.exists
      (fun ((lbl : Asttypes.arg_label), a) ->
        match lbl with
        | Labelled "finally" -> expr_contains (is_apply_of [ "Mutex"; "unlock" ]) a
        | _ -> false)
      args
  | _ -> false

let is_lock_wrapper (config : Lint_config.t) lid =
  let comps = Longident.flatten lid in
  List.exists
    (fun w ->
      let wc = String.split_on_char '.' w in
      let lw = List.length wc and lc = List.length comps in
      lc >= lw
      && List.for_all2 String.equal wc
           (List.filteri (fun i _ -> i >= lc - lw) comps))
    config.lock_wrappers

(* Allocation shapes that make a top-level binding shared mutable state.
   The scan does not descend into functions (a [ref] under a lambda is
   per-call state) — except that a closure *capturing* outer mutable
   state is caught because the allocation sits outside the [fun]. *)
let classify_ctor lid =
  match Longident.flatten lid with
  | [ "ref" ] -> `Mutable "ref"
  | [ ("Hashtbl" | "Queue" | "Stack" | "Buffer") as m; "create" ] -> `Mutable (m ^ ".create")
  (* the lib/support tables and due-time queue, bare or by library path *)
  | ([ ("Int_tbl" | "Heap"); "create" ] | [ "Shoalpp_support"; ("Int_tbl" | "Heap"); "create" ])
    as path ->
    `Mutable (String.concat "." path)
  | [ "Bytes"; (("create" | "make" | "init" | "of_string") as f) ] -> `Mutable ("Bytes." ^ f)
  | [ "Array"; (("make" | "init" | "create_float" | "of_list" | "copy" | "append" | "concat"
                | "sub" | "make_matrix") as f) ] ->
    `Mutable ("Array." ^ f)
  | [ "Atomic"; "make" ] | [ "Mutex"; "create" ] | [ "Condition"; "create" ] -> `Exempt
  | [ "Semaphore"; _; "make" ] -> `Exempt
  | _ -> `Other

let find_mutable_shape ~mutable_labels (e : Parsetree.expression) =
  let found = ref None in
  let open Ast_iterator in
  let expr self (x : Parsetree.expression) =
    if Option.is_none !found then
      match x.pexp_desc with
      | Pexp_fun _ | Pexp_function _ -> ()
      | Pexp_lazy _ -> found := Some "lazy (cross-domain force of the thunk is a race)"
      | Pexp_array _ -> found := Some "array literal"
      | Pexp_record (fields, _)
        when List.exists
               (fun ((l : Longident.t Asttypes.loc), _) -> SS.mem (lid_last l.txt) mutable_labels)
               fields ->
        found := Some "record with mutable fields"
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
        match classify_ctor txt with
        | `Mutable what -> found := Some what
        | `Exempt -> ()
        | `Other -> default_iterator.expr self x)
      | _ -> default_iterator.expr self x
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  !found

(* Mutating stdlib entry points whose first argument is the mutated
   structure ([Atomic.*] deliberately absent: Atomics are the sanctioned
   cross-domain mechanism). *)
let mutating_call m f =
  match (m, f) with
  | ("Hashtbl" | "Int_tbl"), ("replace" | "add" | "remove" | "reset" | "clear" | "filter_map_inplace")
    ->
    true
  | "Heap", ("add" | "pop" | "pop_exn" | "clear") -> true
  | "Queue", ("push" | "add" | "pop" | "take" | "clear" | "transfer") -> true
  | "Stack", ("push" | "pop" | "clear") -> true
  | "Buffer", ("clear" | "reset") -> true
  | "Buffer", f -> String.length f >= 4 && String.sub f 0 4 = "add_"
  | "Array", ("set" | "fill" | "blit") -> true
  | "Bytes", ("set" | "fill" | "blit") -> true
  | _ -> false

(* The module a field/ident chain is rooted in, if qualified:
   [Mod.x], [Mod.r.f], [Mod.Sub.t.g] — all rooted at [Mod]. *)
let rec root_module (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Ldot _ as lid; _ } -> Some (lid_head lid)
  | Pexp_field (r, _) -> root_module r
  | _ -> None

type mutation = { mu_target : string; mu_loc : Location.t; mu_what : string }

type global = {
  gl_loc : Location.t;
  gl_what : string;
  gl_roles : Lint_config.role list option;  (* [@@@shoalpp.domain] section override *)
}

type facts = {
  fa_path : string;
  fa_file_roles : Lint_config.role list option;  (* file-leading floating attribute *)
  fa_globals : global list;
  fa_refs : SS.t;  (* capitalized longident components referenced *)
  fa_mutations : mutation list;
  fa_local : diagnostic list;  (* lock-discipline + domain-ownership *)
}

let empty_facts path =
  {
    fa_path = path;
    fa_file_roles = None;
    fa_globals = [];
    fa_refs = SS.empty;
    fa_mutations = [];
    fa_local = [];
  }

let rec binding_name (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> binding_name p
  | _ -> None

let collect_facts ~(config : Lint_config.t) ~path (st : Parsetree.structure) =
  let diags = ref [] in
  let add loc rule msg =
    let line, col = pos_of loc in
    diags := { d_file = path; d_line = line; d_col = col; d_rule = rule; d_msg = msg } :: !diags
  in
  (* --- pass 1a: mutexes and record shapes, so later passes can validate
     guarded_by regardless of declaration order --- *)
  let top_mutexes = ref SS.empty in
  let label_mutexes = ref SS.empty in
  let mutable_labels = ref SS.empty in
  let is_mutex_type (ct : Parsetree.core_type) =
    match ct.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> Longident.flatten txt = [ "Mutex"; "t" ]
    | _ -> false
  in
  let rec scan_decls (items : Parsetree.structure) =
    List.iter
      (fun (si : Parsetree.structure_item) ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match binding_name vb.pvb_pat with
              | Some name when expr_contains (is_apply_of [ "Mutex"; "create" ]) vb.pvb_expr ->
                top_mutexes := SS.add name !top_mutexes
              | _ -> ())
            vbs
        | Pstr_type (_, tds) ->
          List.iter
            (fun (td : Parsetree.type_declaration) ->
              match td.ptype_kind with
              | Ptype_record labels ->
                List.iter
                  (fun (ld : Parsetree.label_declaration) ->
                    if is_mutex_type ld.pld_type then
                      label_mutexes := SS.add ld.pld_name.txt !label_mutexes;
                    match ld.pld_mutable with
                    | Mutable -> mutable_labels := SS.add ld.pld_name.txt !mutable_labels
                    | Immutable -> ())
                  labels
              | _ -> ())
            tds
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } -> scan_decls sub
        | _ -> ())
      items
  in
  scan_decls st;
  (* --- pass 1b: annotations (with validity checking), domain sections,
     mutable globals --- *)
  let guarded_globals = ref SS.empty in
  let req_locks = ref SS.empty in
  let guarded_labels = ref SS.empty in
  let globals = ref [] in
  let file_roles = ref None in
  let check_label_attrs (labels : Parsetree.label_declaration list) =
    List.iter
      (fun (ld : Parsetree.label_declaration) ->
        List.iter
          (fun (attr : Parsetree.attribute) ->
            match shoalpp_attr attr with
            | None -> ()
            | Some "guarded_by" -> (
              match string_payload attr with
              | None ->
                add attr.attr_loc "domain-ownership"
                  "[@shoalpp.guarded_by] needs a string payload naming the mutex field"
              | Some mu ->
                (* the guard may live in another record (a sub-structure
                   guarded by its owner's mutex) or at top level — any
                   Mutex.t declared in this module qualifies *)
                if SS.mem mu !label_mutexes || SS.mem mu !top_mutexes then
                  guarded_labels := SS.add ld.pld_name.txt !guarded_labels
                else
                  add attr.attr_loc "domain-ownership"
                    (Printf.sprintf
                       "[@shoalpp.guarded_by %S] names no Mutex.t declared in this module" mu))
            | Some other ->
              add attr.attr_loc "domain-ownership"
                (Printf.sprintf
                   "unknown shoalpp attribute [shoalpp.%s] on a record field (known here: \
                    guarded_by)"
                   other))
          (ld.pld_attributes @ ld.pld_type.ptyp_attributes))
      labels
  in
  let rec scan_items section (items : Parsetree.structure) =
    List.fold_left
      (fun section (si : Parsetree.structure_item) ->
        match si.pstr_desc with
        | Pstr_attribute attr -> (
          match shoalpp_attr attr with
          | None -> section
          | Some "domain" -> (
            match string_payload attr with
            | None ->
              add attr.attr_loc "domain-ownership"
                "[@@@shoalpp.domain] needs a string payload: \"main\", \"lane\", \"pool\" or \
                 \"shared\"";
              section
            | Some s -> (
              match roles_of_string s with
              | Some roles ->
                if Option.is_none !file_roles && !globals = [] then
                  (* only a *leading* attribute re-owns the whole file; we
                     approximate "leading" as "before any mutable global",
                     which is what ownership decisions act on *)
                  file_roles := Some roles;
                Some roles
              | None ->
                add attr.attr_loc "domain-ownership"
                  (Printf.sprintf
                     "unknown domain role %S (expected \"main\", \"lane\", \"pool\" or \
                      \"shared\")"
                     s);
                section))
          | Some other ->
            add attr.attr_loc "domain-ownership"
              (Printf.sprintf
                 "unknown floating shoalpp attribute [shoalpp.%s] (known: domain)" other);
            section)
        | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              let guarded = ref false in
              List.iter
                (fun (attr : Parsetree.attribute) ->
                  match shoalpp_attr attr with
                  | None -> ()
                  | Some "guarded_by" -> (
                    match string_payload attr with
                    | None ->
                      add attr.attr_loc "domain-ownership"
                        "[@@shoalpp.guarded_by] needs a string payload naming the mutex"
                    | Some mu ->
                      if SS.mem mu !top_mutexes then begin
                        guarded := true;
                        match binding_name vb.pvb_pat with
                        | Some name -> guarded_globals := SS.add name !guarded_globals
                        | None -> ()
                      end
                      else
                        add attr.attr_loc "domain-ownership"
                          (Printf.sprintf
                             "[@@shoalpp.guarded_by %S] names no top-level Mutex.t of this \
                              module"
                             mu))
                  | Some "requires_lock" -> (
                    match string_payload attr with
                    | None ->
                      add attr.attr_loc "domain-ownership"
                        "[@@shoalpp.requires_lock] needs a string payload naming the mutex"
                    | Some mu ->
                      if SS.mem mu !top_mutexes || SS.mem mu !label_mutexes then (
                        match binding_name vb.pvb_pat with
                        | Some name -> req_locks := SS.add name !req_locks
                        | None -> ())
                      else
                        add attr.attr_loc "domain-ownership"
                          (Printf.sprintf
                             "[@@shoalpp.requires_lock %S] names no mutex declared in this \
                              module"
                             mu))
                  | Some other ->
                    add attr.attr_loc "domain-ownership"
                      (Printf.sprintf
                         "unknown shoalpp attribute [shoalpp.%s] on a binding (known: \
                          guarded_by, requires_lock)"
                         other))
                vb.pvb_attributes;
              if not !guarded then
                match find_mutable_shape ~mutable_labels:!mutable_labels vb.pvb_expr with
                | Some what ->
                  globals :=
                    { gl_loc = vb.pvb_loc; gl_what = what; gl_roles = section } :: !globals
                | None -> ())
            vbs;
          section
        | Pstr_type (_, tds) ->
          List.iter
            (fun (td : Parsetree.type_declaration) ->
              match td.ptype_kind with Ptype_record labels -> check_label_attrs labels | _ -> ())
            tds;
          section
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
          ignore (scan_items section sub);
          section
        | _ -> section)
      section items
    |> ignore
  in
  scan_items None st;
  (* --- pass 2: expression walk — lock spans, guarded accesses, raw
     Mutex.lock shapes, cross-module mutation sites, reference heads --- *)
  let refs = ref SS.empty in
  let mutations = ref [] in
  let note_lid lid =
    List.iter (fun c -> if is_capitalized c then refs := SS.add c !refs) (Longident.flatten lid)
  in
  let in_span = ref false in
  let in_req = ref false in
  let open Ast_iterator in
  let rec expr self (e : Parsetree.expression) =
    (* mutation sites first: independent of span state *)
    (match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident (":=" | "incr" | "decr"); _ }; _ },
          (_, ({ pexp_desc = Pexp_ident { txt = Ldot _ as tgt; _ }; _ } as a1)) :: _ ) ->
      ignore a1;
      mutations :=
        { mu_target = lid_head tgt; mu_loc = e.pexp_loc; mu_what = Longident.last tgt ^ " := ..." }
        :: !mutations
    | Pexp_setfield (r, { txt = f; _ }, _) -> (
      match root_module r with
      | Some m ->
        mutations :=
          { mu_target = m; mu_loc = e.pexp_loc; mu_what = "field " ^ lid_last f ^ " <- ..." }
          :: !mutations
      | None -> ())
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Ldot (Lident sm, fn); _ }; _ },
          (_, a1) :: _ )
      when mutating_call sm fn -> (
      match root_module a1 with
      | Some m ->
        mutations :=
          { mu_target = m; mu_loc = e.pexp_loc; mu_what = sm ^ "." ^ fn } :: !mutations
      | None -> ())
    | _ -> ());
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
      note_lid txt;
      (match txt with
      | Lident name when not !in_span ->
        if SS.mem name !guarded_globals then
          add loc "lock-discipline"
            (Printf.sprintf "guarded global [%s] touched outside an acquire-release span" name)
        else if SS.mem name !req_locks then
          add loc "lock-discipline"
            (Printf.sprintf
               "[%s] is declared [@@shoalpp.requires_lock] but is used outside a guarded span"
               name)
      | _ -> ())
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt = f; _ }; _ } as fe), args)
      when is_lock_wrapper config f ->
      expr self fe;
      let saved = !in_span in
      in_span := true;
      List.iter (fun (_, a) -> expr self a) args;
      in_span := saved
    | Pexp_sequence
        ( { pexp_desc = Pexp_apply ({ pexp_desc = Pexp_ident { txt = l; _ }; _ }, largs); _ },
          cont )
      when is_mutex_lock l && blessed_continuation cont ->
      List.iter (fun (_, a) -> expr self a) largs;
      let saved = !in_span in
      in_span := true;
      expr self cont;
      in_span := saved
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = l; loc }; _ }, _) when is_mutex_lock l ->
      if not !in_req then
        add loc "lock-discipline"
          "Mutex.lock without an exception-safe unlock on all paths — use a with_mu/\
           Mutex.protect wrapper, the lock/match-with-exception/unlock shape, or \
           Fun.protect ~finally";
      default_iterator.expr self e
    | Pexp_field (_, { txt = f; loc }) when SS.mem (lid_last f) !guarded_labels && not !in_span ->
      add loc "lock-discipline"
        (Printf.sprintf "guarded field [%s] read outside an acquire-release span" (lid_last f));
      default_iterator.expr self e
    | Pexp_setfield (_, { txt = f; loc }, _)
      when SS.mem (lid_last f) !guarded_labels && not !in_span ->
      add loc "lock-discipline"
        (Printf.sprintf "guarded field [%s] written outside an acquire-release span" (lid_last f));
      default_iterator.expr self e
    | _ -> default_iterator.expr self e
  in
  let module_expr self (m : Parsetree.module_expr) =
    (match m.pmod_desc with Pmod_ident { txt; _ } -> note_lid txt | _ -> ());
    default_iterator.module_expr self m
  in
  let typ self (t : Parsetree.core_type) =
    (match t.ptyp_desc with Ptyp_constr ({ txt; _ }, _) -> note_lid txt | _ -> ());
    default_iterator.typ self t
  in
  let structure_item self (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          let req =
            match binding_name vb.pvb_pat with Some n -> SS.mem n !req_locks | None -> false
          in
          let saved_span = !in_span and saved_req = !in_req in
          in_span := req;
          in_req := req;
          self.expr self vb.pvb_expr;
          in_span := saved_span;
          in_req := saved_req)
        vbs
    | _ -> default_iterator.structure_item self si
  in
  let it = { default_iterator with expr; module_expr; typ; structure_item } in
  it.structure it st;
  {
    fa_path = path;
    fa_file_roles = !file_roles;
    fa_globals = List.rev !globals;
    fa_refs = !refs;
    fa_mutations = List.rev !mutations;
    fa_local = !diags;
  }

(* --- .cmt reference extraction --- *)

let components_of_unit_name name =
  List.filter is_capitalized (split_dunder name)

let refs_of_cmt_structure (str : Typedtree.structure) =
  let refs = ref SS.empty in
  let rec add_path (p : Path.t) =
    match p with
    | Path.Pident id -> List.iter (fun c -> refs := SS.add c !refs) (components_of_unit_name (Ident.name id))
    | Path.Pdot (p, s) ->
      if is_capitalized s then refs := SS.add s !refs;
      add_path p
    | Path.Papply (a, b) ->
      add_path a;
      add_path b
    | Path.Pextra_ty (p, _) -> add_path p
  in
  let open Tast_iterator in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> add_path p
    | Texp_new (p, _, _) -> add_path p
    | _ -> ());
    default_iterator.expr self e
  in
  let module_expr self (m : Typedtree.module_expr) =
    (match m.mod_desc with Tmod_ident (p, _) -> add_path p | _ -> ());
    default_iterator.module_expr self m
  in
  let typ self (t : Typedtree.core_type) =
    (match t.ctyp_desc with Ttyp_constr (p, _, _) -> add_path p | _ -> ());
    default_iterator.typ self t
  in
  let it = { default_iterator with expr; module_expr; typ } in
  it.structure it str;
  !refs

(* Locate the .cmt dune produced for [path]: scan the file's directory (and
   its _build/default twin, for source-root runs) for .objs/.eobjs dirs and
   match the unit name's last dune-mangling segment. Any failure — missing
   dir, unreadable cmt, interface-only annots — degrades silently to the
   Parsetree fallback. *)
let cmt_refs ~root ~path =
  let dir = Filename.dirname path in
  let unit = String.capitalize_ascii (Filename.remove_extension (Filename.basename path)) in
  let bases =
    [ Filename.concat root dir; Filename.concat root (Filename.concat "_build/default" dir) ]
  in
  let candidates = ref [] in
  List.iter
    (fun base ->
      match Sys.readdir base with
      | entries ->
        Array.sort String.compare entries;
        Array.iter
          (fun ent ->
            let objs = Filename.concat base ent in
            if
              (Filename.check_suffix ent ".objs" || Filename.check_suffix ent ".eobjs")
              && (try Sys.is_directory objs with Sys_error _ -> false)
            then
              let byte = Filename.concat objs "byte" in
              match Sys.readdir byte with
              | files ->
                Array.sort String.compare files;
                Array.iter
                  (fun f ->
                    if
                      Filename.check_suffix f ".cmt"
                      && String.capitalize_ascii (last_dunder_seg (Filename.chop_suffix f ".cmt"))
                         = unit
                    then candidates := Filename.concat byte f :: !candidates)
                  files
              | exception Sys_error _ -> ())
          entries
      | exception Sys_error _ -> ())
    bases;
  let try_read acc cmt_path =
    match acc with
    | Some _ -> acc
    | None -> (
      match Cmt_format.read_cmt cmt_path with
      | { cmt_sourcefile = Some src; cmt_annots = Implementation str; _ }
        when String.equal (Filename.basename src) (Filename.basename path) ->
        Some (refs_of_cmt_structure str)
      | _ -> None
      | exception _ -> None)
  in
  List.fold_left try_read None (List.rev !candidates)

(* --- ownership resolution and the global pass --- *)

let ownership_of (config : Lint_config.t) ~file_roles path =
  match file_roles with
  | Some roles -> roles
  | None -> (
    let best =
      List.fold_left
        (fun acc (pat, roles) ->
          if path_matches ~pat path then
            match acc with
            | Some (bpat, _) when String.length bpat >= String.length pat -> acc
            | _ -> Some (pat, roles)
          else acc)
        None config.ownership
    in
    match best with Some (_, roles) -> roles | None -> [])

let race_diagnostics ~(config : Lint_config.t) ~use_cmt ~root ~files =
  if config.ownership = [] then []
  else begin
    let mls = List.filter (fun p -> Filename.check_suffix p ".ml") files in
    let facts =
      List.map
        (fun path ->
          match parse_with Parse.implementation ~path (read_file (Filename.concat root path)) with
          | Ok st -> collect_facts ~config ~path st
          | Error _ -> empty_facts path (* parse-error already reported *))
        mls
    in
    (* Reference targets are *library members* only: an executable module
       (bin/, bench/) can never be linked against, and a dune library
       wrapper module (e.g. Shoalpp_sim) is not a file. Without this, a
       reference to a wrapper would resolve to a same-named executable
       module and its whole dependency cone inherit every referrer's
       roles. *)
    let lib_dirs = ref SS.empty and stanza_names = ref SS.empty in
    let text_contains hay needle =
      let n = String.length hay and m = String.length needle in
      let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
      scan 0
    in
    List.iter
      (fun dir ->
        let dune = Filename.concat (Filename.concat root dir) "dune" in
        match read_file dune with
        | text ->
          if text_contains text "(library" then lib_dirs := SS.add dir !lib_dirs;
          (* crude [(name tok)] extraction — enough for wrapper exclusion *)
          let n = String.length text in
          let rec names i =
            if i + 5 > n then ()
            else if String.sub text i 5 = "(name" then begin
              let j = ref (i + 5) in
              while !j < n && (text.[!j] = ' ' || text.[!j] = '\n' || text.[!j] = '\t') do
                incr j
              done;
              let s = !j in
              while
                !j < n && text.[!j] <> ')' && text.[!j] <> ' ' && text.[!j] <> '\n'
                && text.[!j] <> '\t'
              do
                incr j
              done;
              if !j > s then
                stanza_names := SS.add (String.capitalize_ascii (String.sub text s (!j - s))) !stanza_names;
              names !j
            end
            else names (i + 1)
          in
          names 0
        | exception Sys_error _ -> ())
      (List.sort_uniq String.compare (List.map Filename.dirname mls));
    let mod_of = Hashtbl.create 64 in
    List.iter
      (fun p ->
        let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename p)) in
        if SS.mem (Filename.dirname p) !lib_dirs && not (SS.mem m !stanza_names) then
          Hashtbl.replace mod_of m p)
      mls;
    let own = Hashtbl.create 64 in
    List.iter
      (fun fa ->
        Hashtbl.replace own fa.fa_path
          (mask_of_roles (ownership_of config ~file_roles:fa.fa_file_roles fa.fa_path)))
      facts;
    let own_mask p = match Hashtbl.find_opt own p with Some m -> m | None -> 0 in
    (* reachability: start from ownership, union referrer roles along
       reference edges until fixpoint *)
    let reach = Hashtbl.create 64 in
    List.iter (fun fa -> Hashtbl.replace reach fa.fa_path (own_mask fa.fa_path)) facts;
    let edges =
      List.map
        (fun fa ->
          let refs =
            if use_cmt then
              match cmt_refs ~root ~path:fa.fa_path with
              | Some r -> SS.union fa.fa_refs r
              | None -> fa.fa_refs
            else fa.fa_refs
          in
          let targets =
            SS.fold
              (fun m acc ->
                match Hashtbl.find_opt mod_of m with
                | Some p when not (String.equal p fa.fa_path) -> p :: acc
                | _ -> acc)
              refs []
          in
          (fa.fa_path, targets))
        facts
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (src, targets) ->
          let ms = match Hashtbl.find_opt reach src with Some m -> m | None -> 0 in
          List.iter
            (fun tgt ->
              let mt = match Hashtbl.find_opt reach tgt with Some m -> m | None -> 0 in
              if mt lor ms <> mt then begin
                Hashtbl.replace reach tgt (mt lor ms);
                changed := true
              end)
            targets)
        edges
    done;
    (match Sys.getenv_opt "SHOALPP_LINT_DEBUG" with
    | Some _ ->
      List.iter
        (fun (src, targets) ->
          Printf.eprintf "EDGE %s (own=%s reach=%s) -> %s\n" src
            (mask_name (own_mask src))
            (mask_name (match Hashtbl.find_opt reach src with Some m -> m | None -> 0))
            (String.concat " " targets))
        edges
    | None -> ());
    let diag path loc rule msg =
      let line, col = pos_of loc in
      { d_file = path; d_line = line; d_col = col; d_rule = rule; d_msg = msg }
    in
    let shared =
      List.concat_map
        (fun fa ->
          let file_mask =
            match Hashtbl.find_opt reach fa.fa_path with Some m -> m | None -> 0
          in
          List.filter_map
            (fun g ->
              let mask =
                match g.gl_roles with Some roles -> mask_of_roles roles | None -> file_mask
              in
              if popcount mask >= 2 then
                Some
                  (diag fa.fa_path g.gl_loc "shared-mutable-state"
                     (Printf.sprintf
                        "top-level mutable state (%s) reachable from domain roles {%s} — \
                         make it Atomic.t, declare [@@shoalpp.guarded_by], or confine the \
                         module to one role"
                        g.gl_what (mask_name mask)))
              else None)
            fa.fa_globals)
        facts
    in
    let cross =
      List.concat_map
        (fun fa ->
          let own_a = own_mask fa.fa_path in
          if own_a = 0 then []
          else
            List.filter_map
              (fun m ->
                match Hashtbl.find_opt mod_of m.mu_target with
                | Some bpath when not (String.equal bpath fa.fa_path) ->
                  let own_b = own_mask bpath in
                  if own_b <> 0 && own_a land own_b = 0 then
                    Some
                      (diag fa.fa_path m.mu_loc "cross-domain-effect"
                         (Printf.sprintf
                            "direct mutation (%s) of %s-owned module %s from a %s-role \
                             module — cross-domain effects must flow through \
                             Backend.schedule/post"
                            m.mu_what (mask_name own_b) m.mu_target (mask_name own_a)))
                  else None
                | _ -> None)
              fa.fa_mutations)
        facts
    in
    List.concat_map (fun fa -> fa.fa_local) facts @ shared @ cross
  end

let compare_diag a b =
  let c = String.compare a.d_file b.d_file in
  if c <> 0 then c
  else
    let c = Int.compare a.d_line b.d_line in
    if c <> 0 then c
    else
      let c = Int.compare a.d_col b.d_col in
      if c <> 0 then c else String.compare a.d_rule b.d_rule

let run ~(config : Lint_config.t) ?(use_cmt = true) ~root ~paths () =
  let files =
    List.concat_map (fun p -> List.rev (walk ~root p [])) paths
    |> List.sort_uniq String.compare
  in
  let raw =
    List.concat_map
      (fun path ->
        let abs = Filename.concat root path in
        let file_diags = lint_source ~config ~path (read_file abs) in
        let missing_mli =
          if
            Filename.check_suffix path ".ml"
            && (rules_for config path).mli_rules
            && not (Sys.file_exists (abs ^ "i"))
          then
            [
              {
                d_file = path;
                d_line = 1;
                d_col = 0;
                d_rule = "missing-mli";
                d_msg = "every .ml under lib/ must have an interface file";
              };
            ]
          else []
        in
        file_diags @ missing_mli)
      files
  in
  let raw = raw @ race_diagnostics ~config ~use_cmt ~root ~files in
  (* Apply the allowlist; any entry that suppressed nothing is stale.
     Entries use the same pattern language as the rest of the config, so a
     directory-prefix suppression both applies to every file under it and
     is reported stale once no file under it produces the diagnostic. *)
  let used = Array.make (List.length config.allowlist) false in
  let kept =
    List.filter
      (fun d ->
        let suppressed = ref false in
        List.iteri
          (fun i (a : Lint_config.allow) ->
            if path_matches ~pat:a.a_path d.d_file && String.equal a.a_rule d.d_rule then begin
              used.(i) <- true;
              suppressed := true
            end)
          config.allowlist;
        not !suppressed)
      raw
  in
  let stale =
    List.concat
      (List.mapi
         (fun i (a : Lint_config.allow) ->
           if used.(i) then []
           else
             [
               {
                 d_file = a.a_path;
                 d_line = 0;
                 d_col = 0;
                 d_rule = "stale-allowlist";
                 d_msg =
                   Printf.sprintf
                     "allowlist entry (%s, %s) suppressed nothing — delete it" a.a_path
                     a.a_rule;
               };
             ])
         config.allowlist)
  in
  List.sort compare_diag (kept @ stale)

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let text_of_diags diags =
  let buf = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d: [%s] %s\n" d.d_file d.d_line d.d_col d.d_rule d.d_msg))
    diags;
  Buffer.add_string buf
    (Printf.sprintf "shoalpp_lint: %d issue%s\n" (List.length diags)
       (if List.length diags = 1 then "" else "s"));
  Buffer.contents buf

let pp_text oc diags = output_string oc (text_of_diags diags)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_diags diags =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "\n  {\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"severity\":\"error\",\
            \"message\":\"%s\"}"
           (json_escape d.d_file) d.d_line d.d_col (json_escape d.d_rule) (json_escape d.d_msg)))
    diags;
  Buffer.add_string buf (if diags = [] then "]\n" else "\n]\n");
  Buffer.contents buf

let pp_json oc diags = output_string oc (json_of_diags diags)
