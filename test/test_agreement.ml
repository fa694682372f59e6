(* Agreement property tests: the heart of consensus safety.

   Random certified DAGs are generated (random parent quorums, random
   insertion orders, random notify cadences) and replayed into independent
   drivers. Whatever the DAG looks like and however delivery interleaves,
   all drivers must emit identical ordered logs (the paper's Property 2 /
   Lemma 2). Also: wire-codec fuzzing — mutated bytes must never crash the
   decoder. *)

module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Committee = Shoalpp_dag.Committee
module Driver = Shoalpp_consensus.Driver
module Anchors = Shoalpp_consensus.Anchors
module Rng = Shoalpp_support.Rng

let committee = Committee.make ~n:4 ~cluster_seed:44 ()

let make_node ~round ~author ~parents =
  let batch = Shoalpp_workload.Batch.empty ~created_at:0.0 in
  let digest =
    Types.node_digest ~lane:0 ~round ~author ~batch_digest:batch.Shoalpp_workload.Batch.digest ~parents
      ~weak_parents:[]
  in
  {
    Types.round;
    author;
    batch;
    parents;
    weak_parents = [];
    digest;
    signature =
      Shoalpp_crypto.Signer.sign (Committee.keypair committee author)
        (Shoalpp_crypto.Digest32.raw digest);
    created_at = 0.0;
  }

let certify node =
  let preimage =
    Types.vote_preimage ~lane:0 ~round:node.Types.round ~author:node.Types.author
      ~digest:node.Types.digest
  in
  let sigs =
    List.init 3 (fun i ->
        (i, Shoalpp_crypto.Signer.sign (Committee.keypair committee i) preimage))
  in
  {
    Types.cn_node = node;
    cn_cert =
      {
        Types.cert_ref = Types.ref_of_node node;
        multisig = Shoalpp_crypto.Multisig.aggregate ~n:4 sigs;
      };
  }

(* Generate a random certified DAG: per round, each author exists with 90%
   probability and references a random >= quorum subset of the previous
   round's nodes. Returns certified nodes in round order. *)
let random_dag ~seed ~rounds =
  let rng = Rng.create seed in
  let all = ref [] in
  let prev = ref [] in
  for round = 0 to rounds do
    let authors = List.filter (fun _ -> round = 0 || Rng.float rng 1.0 < 0.9) [ 0; 1; 2; 3 ] in
    let authors = if List.length authors = 0 then [ 0 ] else authors in
    let nodes =
      List.map
        (fun author ->
          let parents =
            if round = 0 then []
            else begin
              let candidates = Array.of_list !prev in
              Rng.shuffle rng candidates;
              let min_parents = min (Committee.quorum committee) (Array.length candidates) in
              let extra =
                if Array.length candidates > min_parents then
                  Rng.int rng (Array.length candidates - min_parents + 1)
                else 0
              in
              Array.to_list (Array.sub candidates 0 (min_parents + extra))
            end
          in
          certify (make_node ~round ~author ~parents))
        authors
    in
    (* A DAG round needs >= quorum certified nodes to be reachable; if the
       filter produced fewer, top up deterministically. *)
    let nodes =
      if round > 0 && List.length nodes < Committee.quorum committee then
        List.map
          (fun author ->
            certify (make_node ~round ~author ~parents:!prev))
          [ 0; 1; 2 ]
      else nodes
    in
    prev := List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) nodes;
    all := !all @ nodes
  done;
  !all

type replayed = {
  log : (int * int * (int * int) list) list;  (** anchor round, author, ordered positions *)
  stats : Driver.stats;
}

(* Replay [dag] into a fresh driver, notifying every [cadence] insertions;
   [note_probability] controls which proposals contribute weak votes (they
   differ across replicas in reality — weak votes are a local, unordered
   signal, so agreement must hold regardless). *)
let replay ~mode ~fast ~dag ~cadence ~note_seed ~note_probability =
  let rng = Rng.create note_seed in
  let store = Store.create ~n:4 ~genesis_digest:committee.Committee.genesis in
  let segments = ref [] in
  let driver = ref None in
  let d =
    Driver.create
      {
        (Driver.default_config ~committee) with
        Driver.mode;
        fast_commit = fast;
        reputation_enabled = true;
      }
      {
        Driver.now = (fun () -> 0.0);
        cert_ref =
          (fun ~round ~author ->
            Option.map
              (fun (cn : Types.certified_node) -> Types.ref_of_node cn.Types.cn_node)
              (Store.get store ~round ~author));
        request_fetch = (fun _ -> ());
        on_segment = (fun s -> segments := s :: !segments);
        request_gc = (fun ~round:_ -> ());
        direct_guard = None;
      }
      ~store
  in
  driver := Some d;
  List.iteri
    (fun i (cn : Types.certified_node) ->
      if Rng.float rng 1.0 < note_probability then
        ignore (Store.note_proposal store cn.Types.cn_node);
      ignore (Store.add_certified store cn);
      if i mod cadence = 0 then Driver.notify d)
    dag;
  Driver.notify d;
  {
    log =
      List.rev_map
        (fun (s : Driver.segment) ->
          ( s.Driver.anchor.Types.ref_round,
            s.Driver.anchor.Types.ref_author,
            List.map
              (fun (cn : Types.certified_node) ->
                (cn.Types.cn_node.Types.round, cn.Types.cn_node.Types.author))
              s.Driver.nodes ))
        !segments;
    stats = Driver.stats d;
  }

let prop_drivers_agree mode fast name =
  QCheck.Test.make ~name ~count:40
    QCheck.(triple (int_bound 10_000) (int_range 1 9) (int_range 1 9))
    (fun (seed, cadence_a, cadence_b) ->
      let dag = random_dag ~seed ~rounds:8 in
      let a =
        replay ~mode ~fast ~dag ~cadence:cadence_a ~note_seed:(seed + 1) ~note_probability:0.9
      in
      let b =
        replay ~mode ~fast ~dag ~cadence:cadence_b ~note_seed:(seed + 2) ~note_probability:0.6
      in
      (* The replica with fewer weak votes may commit strictly fewer anchors
         (some only later), but their common log prefix must agree. *)
      let rec common_prefix_equal x y =
        match (x, y) with
        | [], _ | _, [] -> true
        | hx :: tx, hy :: ty -> hx = hy && common_prefix_equal tx ty
      in
      common_prefix_equal a.log b.log)

let prop_no_position_ordered_twice =
  QCheck.Test.make ~name:"no position ordered twice" ~count:40 QCheck.(int_bound 10_000)
    (fun seed ->
      let dag = random_dag ~seed ~rounds:8 in
      let r = replay ~mode:Anchors.All_eligible ~fast:true ~dag ~cadence:1 ~note_seed:seed ~note_probability:1.0 in
      let positions = List.concat_map (fun (_, _, nodes) -> nodes) r.log in
      List.length positions = List.length (List.sort_uniq compare positions))

let prop_segments_respect_anchor_order =
  QCheck.Test.make ~name:"anchor rounds non-decreasing within tolerance" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let dag = random_dag ~seed ~rounds:8 in
      let r = replay ~mode:Anchors.All_eligible ~fast:true ~dag ~cadence:1 ~note_seed:seed ~note_probability:1.0 in
      (* Anchor rounds may only move forward (within a round the vector
         resolves in order; SKIP_TO only jumps forward). *)
      let rec nondecreasing = function
        | (r1, _, _) :: ((r2, _, _) :: _ as rest) -> r1 <= r2 && nondecreasing rest
        | _ -> true
      in
      nondecreasing r.log)

(* ------------------------------------------------------------------ *)
(* Codec fuzzing. *)

let prop_decoder_never_crashes =
  QCheck.Test.make ~name:"mutated messages never crash the decoder" ~count:300
    QCheck.(triple (int_bound 100_000) small_nat (int_bound 255))
    (fun (seed, pos, byte) ->
      let rng = Rng.create seed in
      let node =
        make_node ~round:0 ~author:Rng.(int rng 4) ~parents:[]
      in
      let encoded = Types.encode_message (Types.Proposal node) in
      let pos = pos mod String.length encoded in
      let mutated = Bytes.of_string encoded in
      Bytes.set mutated pos (Char.chr byte);
      match Types.decode_message ~lane:0 (Bytes.to_string mutated) with
      | Ok _ | Error _ -> true)

let prop_random_bytes_rejected =
  QCheck.Test.make ~name:"random bytes decode to error" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 0 200))
    (fun (seed, len) ->
      let rng = Rng.create seed in
      let junk = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
      match Types.decode_message ~lane:0 junk with
      | Error _ -> true
      | Ok (Types.Proposal _) | Ok (Types.Fetch_response _) ->
        false (* a random blob must not parse into a signed node *)
      | Ok _ -> false)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "agreement.drivers",
      qsuite
        [
          prop_drivers_agree Anchors.All_eligible true "shoal++ drivers agree on random DAGs";
          prop_drivers_agree Anchors.One_per_round false "shoal drivers agree on random DAGs";
          prop_drivers_agree Anchors.Every_other_round false "bullshark drivers agree on random DAGs";
          prop_no_position_ordered_twice;
          prop_segments_respect_anchor_order;
        ] );
    ( "agreement.fuzz", qsuite [ prop_decoder_never_crashes; prop_random_bytes_rejected ] );
  ]
