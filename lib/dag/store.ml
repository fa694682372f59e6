module Digest32 = Shoalpp_crypto.Digest32
module Int_tbl = Shoalpp_support.Int_tbl

type round_slot = {
  nodes : Types.certified_node option array; (* by author *)
  cert_refs : int array; (* certified round+1 references to (this round, author) *)
  weak : int array; (* weak votes: round+1 proposals referencing (this round, author) *)
  proposals : Types.node list array;
      (* proposals seen from each author of THIS round, one per digest;
         two only under equivocation. The first counts for weak votes. *)
  stamp : int array; (* generation of the last traversal that visited (this round, author) *)
}

type t = {
  n : int;
  genesis : Digest32.t;
  rounds : round_slot Int_tbl.t;
  mutable highest : int;
  mutable lowest : int; (* logical GC floor: ordering ignores rounds below *)
  mutable retain_gate : int option;
      (* checkpoint-certified physical-deletion ceiling: [Some g] keeps
         rounds in [min g lowest, lowest) in the tables — invisible to
         ordering, still serveable to catching-up peers. [None] deletes at
         the logical floor (pre-checkpoint behavior). *)
  mutable stored : int; (* physical floor: lowest round still in the tables *)
  mutable low_slot : int;
      (* no slot exists below this round: a sweep walks the rounds from
         here to its floor. A late insert for a round under a past floor
         (a fetched node, a proposal note) lowers it. *)
  mutable gen : int; (* generation of the latest traversal *)
}

let create ~n ~genesis_digest =
  {
    n;
    genesis = genesis_digest;
    rounds = Int_tbl.create 64;
    highest = -1;
    lowest = 0;
    retain_gate = None;
    stored = 0;
    low_slot = 0;
    gen = 0;
  }

let n t = t.n

let slot t round =
  match Int_tbl.find_opt t.rounds round with
  | Some s -> s
  | None ->
    let s =
      {
        nodes = Array.make t.n None;
        cert_refs = Array.make t.n 0;
        weak = Array.make t.n 0;
        proposals = Array.make t.n [];
        stamp = Array.make t.n 0;
      }
    in
    Int_tbl.replace t.rounds round s;
    if round < t.low_slot then t.low_slot <- round;
    s

let slot_opt t round = Int_tbl.find_opt t.rounds round

let bump_parent_counters t (node : Types.node) which =
  List.iter
    (fun (p : Types.node_ref) ->
      if p.Types.ref_round >= t.lowest then begin
        let s = slot t p.Types.ref_round in
        match which with
        | `Cert -> s.cert_refs.(p.Types.ref_author) <- s.cert_refs.(p.Types.ref_author) + 1
        | `Weak -> s.weak.(p.Types.ref_author) <- s.weak.(p.Types.ref_author) + 1
      end)
    node.Types.parents

let add_certified t (cn : Types.certified_node) =
  let node = cn.Types.cn_node in
  let s = slot t node.Types.round in
  match s.nodes.(node.Types.author) with
  | Some _ -> false
  | None ->
    s.nodes.(node.Types.author) <- Some cn;
    if node.Types.round > t.highest then t.highest <- node.Types.round;
    bump_parent_counters t node `Cert;
    true

let has_digest d (p : Types.node) = Digest32.equal p.Types.digest d

(* A copy of a stored digest replaces it (the newest copy is kept). *)
let note_proposal t (node : Types.node) =
  let s = slot t node.Types.round in
  match s.proposals.(node.Types.author) with
  | [] ->
    s.proposals.(node.Types.author) <- [ node ];
    bump_parent_counters t node `Weak;
    true
  | seen ->
    let others = List.filter (fun p -> not (has_digest node.Types.digest p)) seen in
    s.proposals.(node.Types.author) <- node :: others;
    false

let get t ~round ~author =
  match slot_opt t round with
  | None -> None
  | Some s -> if author >= 0 && author < t.n then s.nodes.(author) else None

let get_by_ref t (r : Types.node_ref) =
  match get t ~round:r.Types.ref_round ~author:r.Types.ref_author with
  | Some cn when Digest32.equal cn.Types.cn_node.Types.digest r.Types.ref_digest -> Some cn
  | _ -> None

let mem_ref t r = Option.is_some (get_by_ref t r)

let proposal t (r : Types.node_ref) =
  match slot_opt t r.Types.ref_round with
  | Some s when r.Types.ref_author >= 0 && r.Types.ref_author < t.n ->
    List.find_opt (has_digest r.Types.ref_digest) s.proposals.(r.Types.ref_author)
  | _ -> None

let nodes_at t ~round =
  match slot_opt t round with
  | None -> []
  | Some s -> Array.to_list s.nodes |> List.filter_map Fun.id

let count_at t ~round =
  match slot_opt t round with
  | None -> 0
  | Some s -> Array.fold_left (fun acc n -> if Option.is_some n then acc + 1 else acc) 0 s.nodes

let highest_round t = t.highest

let certified_refs t ~round ~author =
  match slot_opt t round with None -> 0 | Some s -> s.cert_refs.(author)

let weak_votes t ~round ~author =
  match slot_opt t round with None -> 0 | Some s -> s.weak.(author)

(* Traversals mark a visit by writing a fresh generation into the visited
   position's [stamp] cell: no visited table is allocated, and a position
   without a slot is never marked (nothing is stored there to walk). *)
let next_gen t =
  t.gen <- t.gen + 1;
  t.gen

let causal_history t root ~skip =
  let gen = next_gen t in
  let missing = ref [] in
  (* Positions visited that have no slot (or an author out of range):
     holding no node, each is missing or genesis. Rare, so a list. *)
  let absent = ref [] in
  let collected = ref [] in
  let note_missing (r : Types.node_ref) =
    if not (Digest32.equal r.Types.ref_digest t.genesis) then missing := r :: !missing
  in
  let rec visit (r : Types.node_ref) =
    let round = r.Types.ref_round and author = r.Types.ref_author in
    if round >= t.lowest then
      match slot_opt t round with
      | Some s when author >= 0 && author < t.n ->
        if s.stamp.(author) <> gen && not (skip r) then begin
          s.stamp.(author) <- gen;
          match s.nodes.(author) with
          | Some cn when Digest32.equal cn.Types.cn_node.Types.digest r.Types.ref_digest ->
            List.iter visit cn.Types.cn_node.Types.parents;
            List.iter visit cn.Types.cn_node.Types.weak_parents;
            collected := cn :: !collected
          | _ -> note_missing r
        end
      | _ ->
        if
          (not (List.exists (fun (ar, aa) -> ar = round && aa = author) !absent))
          && not (skip r)
        then begin
          absent := (round, author) :: !absent;
          note_missing r
        end
  in
  visit root;
  if !missing <> [] then Error (List.sort_uniq Types.compare_ref !missing)
  else begin
    let nodes =
      List.sort
        (fun (a : Types.certified_node) b ->
          let c = Int.compare a.Types.cn_node.Types.round b.Types.cn_node.Types.round in
          if c <> 0 then c else Int.compare a.Types.cn_node.Types.author b.Types.cn_node.Types.author)
        !collected
    in
    Ok nodes
  end

(* Reachability search from [of_] down to round [floor], which holds the
   target ([hit]). A position without a node stops its path, so only
   positions with a slot need a mark. *)
let search_down t ~floor ~hit (of_ : Types.node_ref) =
  let gen = next_gen t in
  let rec search (r : Types.node_ref) =
    let round = r.Types.ref_round and author = r.Types.ref_author in
    if round < floor then false
    else if hit r then true
    else
      match slot_opt t round with
      | Some s when author >= 0 && author < t.n ->
        if s.stamp.(author) = gen then false
        else begin
          s.stamp.(author) <- gen;
          match s.nodes.(author) with
          | Some cn when Digest32.equal cn.Types.cn_node.Types.digest r.Types.ref_digest ->
            List.exists search cn.Types.cn_node.Types.parents
            || List.exists search cn.Types.cn_node.Types.weak_parents
          | _ -> false
        end
      | _ -> false
  in
  search of_

let is_ancestor t ~ancestor ~of_ =
  if Types.ref_equal ancestor of_ then true
  else if ancestor.Types.ref_round >= of_.Types.ref_round then false
  else search_down t ~floor:ancestor.Types.ref_round ~hit:(Types.ref_equal ancestor) of_

let position_ancestor t ~round ~author ~of_ =
  if of_.Types.ref_round = round && of_.Types.ref_author = author then true
  else if round >= of_.Types.ref_round then false
  else
    search_down t ~floor:round
      ~hit:(fun (r : Types.node_ref) -> r.Types.ref_round = round && r.Types.ref_author = author)
      of_

(* Physically delete rounds below [below] (never above the logical floor),
   walking the rounds from the lowest slot up. *)
let sweep t ~below =
  let below = min below t.lowest in
  let nodes = ref 0 and proposals = ref 0 in
  for r = t.low_slot to below - 1 do
    match slot_opt t r with
    | Some s ->
      Array.iter (fun n -> if Option.is_some n then incr nodes) s.nodes;
      Array.iter (fun l -> proposals := !proposals + List.length l) s.proposals;
      Int_tbl.remove t.rounds r
    | None -> ()
  done;
  if below > t.low_slot then t.low_slot <- below;
  if below > t.stored then t.stored <- below;
  (!nodes, !proposals)

let prune_below t ~round =
  if round > t.lowest then t.lowest <- round;
  sweep t ~below:(match t.retain_gate with None -> round | Some g -> min round g)

let set_retain_gate t ~round =
  let gate = match t.retain_gate with None -> round | Some g -> max g round in
  t.retain_gate <- Some gate;
  sweep t ~below:gate

let lowest_retained t = t.lowest
let lowest_stored t = min t.stored t.lowest
