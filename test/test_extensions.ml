(* Tests for extension features and remaining edge cases: all-to-all
   certification (§5.4), the Mysticeti direct-commit guard, broadcast send
   orders, WAL without group commit, codec bounds. *)

module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Committee = Shoalpp_dag.Committee
module Instance = Shoalpp_dag.Instance
module Driver = Shoalpp_consensus.Driver
module Anchors = Shoalpp_consensus.Anchors
module Engine = Shoalpp_sim.Engine
module Topology = Shoalpp_sim.Topology
module Netmodel = Shoalpp_sim.Netmodel
module Faults = Shoalpp_sim.Faults
module Wal = Shoalpp_storage.Wal
module Wire = Shoalpp_codec.Wire
module E = Shoalpp_baselines.Experiment

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let committee = Committee.make ~n:4 ~cluster_seed:88 ()

(* A small harness like test_instance's, parameterized on the a2a flag. *)
type harness = {
  engine : Engine.t;
  mutable instances : Instance.t array;
  stores : Store.t array;
  mutable messages : (int * int * Types.message) list; (* src, dst, msg *)
}

let make_harness ~all_to_all () =
  let engine = Engine.create () in
  let n = committee.Committee.n in
  let stores =
    Array.init n (fun _ -> Store.create ~n ~genesis_digest:committee.Committee.genesis)
  in
  let h = { engine; instances = [||]; stores; messages = [] } in
  let deliver ~src ~dst msg =
    h.messages <- (src, dst, msg) :: h.messages;
    ignore
      (Engine.schedule engine ~after:10.0 (fun () ->
           Instance.handle_message h.instances.(dst) ~src msg))
  in
  h.instances <-
    Array.init n (fun replica ->
        let cfg =
          {
            (Instance.default_config ~committee ~replica) with
            Instance.all_to_all_votes = all_to_all;
          }
        in
        Instance.create cfg
          {
            Instance.broadcast =
              (fun msg ->
                for dst = 0 to n - 1 do
                  deliver ~src:replica ~dst msg
                done);
            send = (fun ~dst msg -> deliver ~src:replica ~dst msg);
            now = (fun () -> Engine.now engine);
            schedule = (Shoalpp_backend.Backend_sim.timers engine).Shoalpp_backend.Backend.Timers.schedule;
            pull_batch = (fun ~max:_ -> []);
            anchors_of_round = (fun _ -> []);
            persist = (fun _msg cb -> ignore (Engine.schedule engine ~after:0.5 (fun () -> cb ())));
            on_proposal_noted = (fun _ -> ());
            on_certified = (fun _ -> ());
            on_cert_meta = (fun _ -> ());
          }
          ~store:stores.(replica));
  h

let test_a2a_progress_without_cert_messages () =
  let h = make_harness ~all_to_all:true () in
  Array.iter Instance.start h.instances;
  Engine.run ~until:1_500.0 h.engine;
  Array.iter
    (fun inst -> checkb "rounds advance" true (Instance.proposed_round inst > 8))
    h.instances;
  (* No Certificate messages at all; votes are broadcast instead. *)
  let certs =
    List.filter (fun (_, _, m) -> match m with Types.Certificate _ -> true | _ -> false)
      h.messages
  in
  checki "no certificate messages in a2a mode" 0 (List.length certs);
  (* Every replica aggregated every settled position locally. *)
  let settled = Instance.proposed_round h.instances.(0) - 2 in
  Array.iter
    (fun inst -> checki "full rounds" 4 (Instance.certs_known_at inst ~round:settled))
    h.instances

let test_a2a_faster_rounds_than_star () =
  let rounds_of ~all_to_all =
    let h = make_harness ~all_to_all () in
    Array.iter Instance.start h.instances;
    Engine.run ~until:2_000.0 h.engine;
    Instance.proposed_round h.instances.(0)
  in
  let star = rounds_of ~all_to_all:false in
  let a2a = rounds_of ~all_to_all:true in
  (* One message delay less per round: ~3md vs ~2md rounds. *)
  checkb (Printf.sprintf "a2a rounds faster (%d > %d)" a2a star) true (a2a > star + 10)

(* ------------------------------------------------------------------ *)
(* Driver direct_guard (the Mysticeti r+2 certificate-pattern hook). *)

let test_direct_guard_blocks_commit () =
  let store = Store.create ~n:4 ~genesis_digest:committee.Committee.genesis in
  let guard_enabled = ref false in
  let segments = ref 0 in
  let driver =
    Driver.create
      { (Driver.default_config ~committee) with Driver.mode = Anchors.All_eligible }
      {
        Driver.now = (fun () -> 0.0);
        cert_ref =
          (fun ~round ~author ->
            Option.map
              (fun (cn : Types.certified_node) -> Types.ref_of_node cn.Types.cn_node)
              (Store.get store ~round ~author));
        request_fetch = (fun _ -> ());
        on_segment = (fun _ -> incr segments);
        request_gc = (fun ~round:_ -> ());
        direct_guard = Some (fun ~round:_ ~author:_ -> !guard_enabled);
      }
      ~store
  in
  (* Build rounds 0-2 fully, with notes for weak votes. *)
  let make_node ~round ~author ~parents =
    let batch = Shoalpp_workload.Batch.empty ~created_at:0.0 in
    let digest =
      Types.node_digest ~round ~author ~batch_digest:batch.Shoalpp_workload.Batch.digest
        ~parents ~weak_parents:[]
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
  in
  let certify node =
    let preimage =
      Types.vote_preimage ~round:node.Types.round ~author:node.Types.author
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
  in
  let prev = ref [] in
  for round = 0 to 2 do
    let parents = if round = 0 then [] else !prev in
    let cns = List.map (fun a -> certify (make_node ~round ~author:a ~parents)) [ 0; 1; 2; 3 ] in
    List.iter
      (fun cn ->
        ignore (Store.note_proposal store cn.Types.cn_node);
        ignore (Store.add_certified store cn);
        Driver.notify driver)
      cns;
    prev := List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) cns
  done;
  checki "guard blocks all commits" 0 !segments;
  guard_enabled := true;
  Driver.notify driver;
  checkb "guard released, commits flow" true (!segments > 0)

(* ------------------------------------------------------------------ *)
(* Broadcast send orders. *)

let first_broadcast_targets order =
  let engine = Engine.create () in
  let topology = Topology.gcp10 () in
  let assignment = Topology.assign_round_robin topology ~n:10 in
  let config =
    { Netmodel.default_config with Netmodel.send_order = order; jitter_ms = 0.0; epoch_ms = 0.0 }
  in
  let net =
    Netmodel.create ~engine ~topology ~assignment ~fault:(Faults.schedule Faults.none ~n:10) ~config
      ~seed:4 ()
  in
  let arrivals = ref [] in
  for i = 0 to 9 do
    Netmodel.set_handler net i (fun ~src:_ () ->
        arrivals := (i, Engine.now engine) :: !arrivals)
  done;
  (* Large messages so egress serialization separates send slots. *)
  Netmodel.broadcast net ~src:0 ~size:1_250_000 ~include_self:false ();
  Engine.run engine;
  List.sort (fun (_, a) (_, b) -> compare a b) (List.rev !arrivals)

let test_farthest_first_order () =
  (* With farthest-first, distant replicas get earlier egress slots, which
     compresses the arrival spread vs fixed order. *)
  let spread arrivals =
    match (arrivals, List.rev arrivals) with
    | (_, first) :: _, (_, last) :: _ -> last -. first
    | _ -> nan
  in
  let far = spread (first_broadcast_targets Netmodel.Farthest_first) in
  let fixed = spread (first_broadcast_targets Netmodel.Fixed_order) in
  checkb (Printf.sprintf "farthest-first compresses arrivals (%.1f < %.1f)" far fixed) true
    (far < fixed)

(* ------------------------------------------------------------------ *)
(* WAL without group commit. *)

let test_wal_no_group_commit () =
  let engine = Engine.create () in
  let wal = Wal.create ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~sync_latency_ms:5.0 ~group_commit:false () in
  let times = ref [] in
  for i = 1 to 3 do
    Wal.append wal ~size:1 (fun () -> times := (i, Engine.now engine) :: !times)
  done;
  Engine.run engine;
  checki "three syncs" 3 (Wal.syncs wal);
  (match List.assoc_opt 3 !times with
  | Some t -> checkf "third serialized" 15.0 t
  | None -> Alcotest.fail "lost append")

(* ------------------------------------------------------------------ *)
(* Codec bounds. *)

let test_reader_list_bound () =
  let w = Wire.Writer.create () in
  Wire.Writer.uint w 2_000_000;
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  checkb "absurd list length rejected" true
    (match Wire.Reader.list r Wire.Reader.u8 with
    | exception Wire.Reader.Malformed _ -> true
    | _ -> false)

let test_experiment_helpers () =
  let m = E.median_one_way (Topology.uniform ~delay_ms:42.0) in
  checkf "uniform median" 42.0 m;
  checki "all dag systems listed" 7 (List.length E.all_dag_systems);
  List.iter
    (fun s -> checkb "has name" true (String.length (E.system_name s) > 0))
    E.all_dag_systems

let suite =
  [
    ( "extensions.a2a",
      [
        Alcotest.test_case "no cert messages" `Quick test_a2a_progress_without_cert_messages;
        Alcotest.test_case "faster rounds" `Quick test_a2a_faster_rounds_than_star;
      ] );
    ( "extensions.guard",
      [ Alcotest.test_case "direct guard blocks" `Quick test_direct_guard_blocks_commit ] );
    ( "extensions.netmodel",
      [ Alcotest.test_case "farthest-first order" `Quick test_farthest_first_order ] );
    ( "extensions.wal",
      [ Alcotest.test_case "no group commit" `Quick test_wal_no_group_commit ] );
    ( "extensions.codec",
      [ Alcotest.test_case "reader list bound" `Quick test_reader_list_bound ] );
    ( "extensions.experiment",
      [ Alcotest.test_case "helpers" `Quick test_experiment_helpers ] );
  ]
