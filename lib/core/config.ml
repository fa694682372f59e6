module Committee = Shoalpp_dag.Committee
module Instance = Shoalpp_dag.Instance
module Anchors = Shoalpp_consensus.Anchors
module Driver = Shoalpp_consensus.Driver

type t = {
  committee : Committee.t;
  name : string;
  num_dags : int;
  batch_cap : int;
  wait_policy : Instance.wait_policy;
  all_to_all_votes : bool;
  mode : Anchors.mode;
  fast_commit : bool;
  reputation : bool;
  verify_signatures : bool;
  wal_sync_ms : float;
  fetch_delay_ms : float;
  gc_depth : int;
  checkpoint_interval : int;
  seed : int;
}

let base ~committee ~name =
  {
    committee;
    name;
    num_dags = 1;
    batch_cap = 500;
    wait_policy = Instance.All_or_timeout 600.0;
    all_to_all_votes = false;
    mode = Anchors.All_eligible;
    fast_commit = true;
    reputation = true;
    verify_signatures = true;
    wal_sync_ms = 1.0;
    fetch_delay_ms = 20.0;
    gc_depth = 12;
    checkpoint_interval = 0;
    seed = 42;
  }

(* Round the requested interval up to a multiple of the lane count, so
   R = C/k merged rounds per checkpoint seam is a whole number. *)
let effective_checkpoint_interval t =
  if t.checkpoint_interval <= 0 then 0
  else
    let k = t.num_dags in
    (t.checkpoint_interval + k - 1) / k * k

let with_checkpoint_interval t interval =
  if interval < 0 then invalid_arg "Config.with_checkpoint_interval: need >= 0";
  { t with checkpoint_interval = interval }

let shoalpp ~committee = { (base ~committee ~name:"shoal++") with num_dags = 3 }

let shoal ~committee =
  {
    (base ~committee ~name:"shoal") with
    mode = Anchors.One_per_round;
    fast_commit = false;
    wait_policy = Instance.Anchors_or_timeout 600.0;
  }

let bullshark ~committee =
  {
    (base ~committee ~name:"bullshark") with
    mode = Anchors.Every_other_round;
    fast_commit = false;
    reputation = false;
    wait_policy = Instance.Anchors_or_timeout 600.0;
  }

let with_all_to_all t =
  { t with all_to_all_votes = true; name = t.name ^ "-a2a" }

let with_dags t k =
  if k < 1 then invalid_arg "Config.with_dags: need k >= 1";
  { t with num_dags = k; name = (if k > 1 then Printf.sprintf "%s-%ddags" t.name k else t.name) }

let without_signature_checks t = { t with verify_signatures = false }

let round_timeout t timeout =
  let wait_policy =
    match t.wait_policy with
    | Instance.Quorum_only -> Instance.Quorum_only
    | Instance.Anchors_or_timeout _ -> Instance.Anchors_or_timeout timeout
    | Instance.All_or_timeout _ -> Instance.All_or_timeout timeout
  in
  { t with wait_policy }

let instance_config t ~replica ~dag_id =
  {
    Instance.committee = t.committee;
    replica;
    dag_id;
    batch_cap = t.batch_cap;
    wait_policy = t.wait_policy;
    all_to_all_votes = t.all_to_all_votes;
    verify_signatures = t.verify_signatures;
    fetch_delay_ms = t.fetch_delay_ms;
    seed = t.seed;
  }

let driver_config t ~dag_id =
  {
    Driver.committee = t.committee;
    dag_id;
    mode = t.mode;
    fast_commit = t.fast_commit;
    direct_threshold = Committee.weak_quorum t.committee;
    reputation_enabled = t.reputation;
    reputation_window = 64;
    staleness = 8;
    gc_depth = t.gc_depth;
    snapshot_rounds = effective_checkpoint_interval t / t.num_dags;
  }
