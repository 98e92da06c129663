type prune_trigger = On_select_gc | On_exhaustion

type liveness_mode = Liveness_off | Liveness_guide

type t = {
  policy : Policy.t;
  observe_threshold : float;
  prune_trigger : prune_trigger;
  min_candidate_stale : int;
  stale_slack : int;
  report : (string -> unit) option;
  force_state : State_kind.t option;
  maxstaleuse_decay_period : int option;
  liveness_boost : int;
  (* Pause-SLO autopilot (lib/slo). [pause_slo_p99_ns = Some target]
     arms it: the slice budget is retuned between collections from
     wall-clock pause feedback. *)
  pause_slo_p99_ns : int option;
}

let nearly_full_threshold = 0.9

let default =
  {
    policy = Policy.Default;
    observe_threshold = 0.5;
    prune_trigger = On_select_gc;
    min_candidate_stale = 2;
    stale_slack = 2;
    report = None;
    force_state = None;
    maxstaleuse_decay_period = None;
    liveness_boost = 1;
    pause_slo_p99_ns = None;
  }

let make ?(policy = default.policy) ?(observe_threshold = default.observe_threshold)
    ?(prune_trigger = default.prune_trigger)
    ?(min_candidate_stale = default.min_candidate_stale)
    ?(stale_slack = default.stale_slack) ?report ?force_state
    ?maxstaleuse_decay_period ?(liveness_boost = default.liveness_boost)
    ?pause_slo_p99_ns () =
  {
    policy;
    observe_threshold;
    prune_trigger;
    min_candidate_stale;
    stale_slack;
    report;
    force_state;
    maxstaleuse_decay_period;
    liveness_boost;
    pause_slo_p99_ns;
  }

let validate t =
  if t.observe_threshold <= 0.0 || t.observe_threshold >= nearly_full_threshold
  then Error "observe_threshold must be in (0, nearly_full_threshold = 0.9)"
  else if t.min_candidate_stale < 1 then Error "min_candidate_stale must be >= 1"
  else if t.stale_slack < 0 then Error "stale_slack must be >= 0"
  else if (match t.maxstaleuse_decay_period with Some p -> p < 1 | None -> false)
  then Error "maxstaleuse_decay_period must be >= 1"
  else if t.liveness_boost < 0 || t.liveness_boost > 6 then
    Error "liveness_boost must be in [0, 6]"
  else if (match t.pause_slo_p99_ns with Some n -> n < 1 | None -> false) then
    Error "pause_slo_p99_ns must be >= 1"
  else Ok t
