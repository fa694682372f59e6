module Digest32 = Shoalpp_crypto.Digest32

type round_slot = {
  nodes : Types.certified_node option array; (* by author *)
  cert_refs : int array; (* certified round+1 references to (this round, author) *)
  weak : int array; (* weak votes: round+1 proposals referencing (this round, author) *)
  proposal_seen : bool array; (* first-proposal dedup for authors of THIS round *)
}

type t = {
  n : int;
  genesis : Digest32.t;
  rounds : (int, round_slot) Hashtbl.t;
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
}

let create ~n ~genesis_digest =
  {
    n;
    genesis = genesis_digest;
    rounds = Hashtbl.create 64;
    highest = -1;
    lowest = 0;
    retain_gate = None;
    stored = 0;
    low_slot = 0;
  }

let n t = t.n

let slot t round =
  match Hashtbl.find_opt t.rounds round with
  | Some s -> s
  | None ->
    let s =
      {
        nodes = Array.make t.n None;
        cert_refs = Array.make t.n 0;
        weak = Array.make t.n 0;
        proposal_seen = Array.make t.n false;
      }
    in
    Hashtbl.replace t.rounds round s;
    if round < t.low_slot then t.low_slot <- round;
    s

let slot_opt t round = Hashtbl.find_opt t.rounds round

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

let note_proposal t (node : Types.node) =
  let s = slot t node.Types.round in
  if s.proposal_seen.(node.Types.author) then false
  else begin
    s.proposal_seen.(node.Types.author) <- true;
    bump_parent_counters t node `Weak;
    true
  end

let get t ~round ~author =
  match slot_opt t round with
  | None -> None
  | Some s -> if author >= 0 && author < t.n then s.nodes.(author) else None

let get_by_ref t (r : Types.node_ref) =
  match get t ~round:r.Types.ref_round ~author:r.Types.ref_author with
  | Some cn when Digest32.equal cn.Types.cn_node.Types.digest r.Types.ref_digest -> Some cn
  | _ -> None

let mem_ref t r = Option.is_some (get_by_ref t r)

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

(* Key for visited sets during traversal: packed to an immediate int so the
   per-node membership tests allocate nothing (a tuple key costs 3 words on
   every [mem]/[replace]). Rounds are bounded far below 2^62 / n. *)
let key t (r : Types.node_ref) = (r.Types.ref_round * t.n) + r.Types.ref_author

let causal_history t root ~skip =
  let visited = Hashtbl.create 64 in
  let missing = ref [] in
  let collected = ref [] in
  let rec visit (r : Types.node_ref) =
    if r.Types.ref_round >= t.lowest && (not (Hashtbl.mem visited (key t r))) && not (skip r)
    then begin
      Hashtbl.replace visited (key t r) ();
      match get_by_ref t r with
      | None -> if not (Digest32.equal r.Types.ref_digest t.genesis) then missing := r :: !missing
      | Some cn ->
        List.iter visit cn.Types.cn_node.Types.parents;
        List.iter visit cn.Types.cn_node.Types.weak_parents;
        collected := cn :: !collected
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

let is_ancestor t ~ancestor ~of_ =
  if Types.ref_equal ancestor of_ then true
  else if ancestor.Types.ref_round >= of_.Types.ref_round then false
  else begin
    let visited = Hashtbl.create 64 in
    let rec search (r : Types.node_ref) =
      if r.Types.ref_round < ancestor.Types.ref_round then false
      else if Types.ref_equal r ancestor then true
      else if Hashtbl.mem visited (key t r) then false
      else begin
        Hashtbl.replace visited (key t r) ();
        match get_by_ref t r with
        | None -> false
        | Some cn ->
          List.exists search cn.Types.cn_node.Types.parents
          || List.exists search cn.Types.cn_node.Types.weak_parents
      end
    in
    search of_
  end

let position_ancestor t ~round ~author ~of_ =
  if of_.Types.ref_round = round && of_.Types.ref_author = author then true
  else if round >= of_.Types.ref_round then false
  else begin
    let visited = Hashtbl.create 64 in
    let rec search (r : Types.node_ref) =
      if r.Types.ref_round < round then false
      else if r.Types.ref_round = round && r.Types.ref_author = author then true
      else if Hashtbl.mem visited (key t r) then false
      else begin
        Hashtbl.replace visited (key t r) ();
        match get_by_ref t r with
        | None -> false
        | Some cn ->
          List.exists search cn.Types.cn_node.Types.parents
          || List.exists search cn.Types.cn_node.Types.weak_parents
      end
    in
    search of_
  end

(* Physically delete rounds below [below] (never above the logical floor),
   walking the rounds from the lowest slot up. *)
let sweep t ~below =
  let below = min below t.lowest in
  let dropped = ref 0 in
  for r = t.low_slot to below - 1 do
    match slot_opt t r with
    | Some s ->
      Array.iter (fun n -> if Option.is_some n then incr dropped) s.nodes;
      Hashtbl.remove t.rounds r
    | None -> ()
  done;
  if below > t.low_slot then t.low_slot <- below;
  if below > t.stored then t.stored <- below;
  !dropped

let prune_below t ~round =
  if round > t.lowest then t.lowest <- round;
  sweep t ~below:(match t.retain_gate with None -> round | Some g -> min round g)

let set_retain_gate t ~round =
  let gate = match t.retain_gate with None -> round | Some g -> max g round in
  t.retain_gate <- Some gate;
  sweep t ~below:gate

let lowest_retained t = t.lowest
let lowest_stored t = min t.stored t.lowest
