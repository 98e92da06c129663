type prune_trigger = On_select_gc | On_exhaustion

(* Whether the static liveness oracle (lp_liveness) participates in
   SELECT. [Liveness_off] is bit-for-bit the pre-oracle behavior;
   [Liveness_guide] lets an installed oracle veto or boost candidates. *)
type liveness_mode = Liveness_off | Liveness_guide

let liveness_mode_to_string = function
  | Liveness_off -> "off"
  | Liveness_guide -> "guide"

type t = {
  policy : Policy.t;
  observe_threshold : float;
  nearly_full_threshold : float;
  prune_trigger : prune_trigger;
  min_candidate_stale : int;
  stale_slack : int;
  max_unproductive_cycles : int;
  finalizers_after_prune : bool;
  report : (string -> unit) option;
  force_state : State_kind.t option;
  maxstaleuse_decay_period : int option;
  max_slow_path_attempts : int;
  disk_retry_attempts : int;
  safe_mode_threshold : int option;
  gc_slice_budget : int option;
  liveness_mode : liveness_mode;
  liveness_boost : int;
  (* Pause-SLO autopilot (lib/slo). [pause_slo_p99_ns = Some target]
     arms it: the slice budget is retuned between collections from
     wall-clock pause feedback. Budgets never drop below
     [slo_budget_floor] objects, so the deterministic count-based CI
     gates keep holding. *)
  pause_slo_p99_ns : int option;
  slo_budget_floor : int;
}

let default =
  {
    policy = Policy.Default;
    observe_threshold = 0.5;
    nearly_full_threshold = 0.9;
    prune_trigger = On_select_gc;
    min_candidate_stale = 2;
    stale_slack = 2;
    max_unproductive_cycles = 8;
    finalizers_after_prune = true;
    report = None;
    force_state = None;
    maxstaleuse_decay_period = None;
    max_slow_path_attempts = 24;
    disk_retry_attempts = 2;
    safe_mode_threshold = Some 4;
    gc_slice_budget = None;
    liveness_mode = Liveness_off;
    liveness_boost = 1;
    pause_slo_p99_ns = None;
    slo_budget_floor = 32;
  }

let make ?(policy = default.policy) ?(observe_threshold = default.observe_threshold)
    ?(nearly_full_threshold = default.nearly_full_threshold)
    ?(prune_trigger = default.prune_trigger)
    ?(min_candidate_stale = default.min_candidate_stale)
    ?(stale_slack = default.stale_slack)
    ?(max_unproductive_cycles = default.max_unproductive_cycles)
    ?(finalizers_after_prune = default.finalizers_after_prune) ?report
    ?force_state ?maxstaleuse_decay_period
    ?(max_slow_path_attempts = default.max_slow_path_attempts)
    ?(disk_retry_attempts = default.disk_retry_attempts)
    ?(safe_mode_threshold = default.safe_mode_threshold)
    ?gc_slice_budget
    ?(liveness_mode = default.liveness_mode)
    ?(liveness_boost = default.liveness_boost) ?pause_slo_p99_ns
    ?(slo_budget_floor = default.slo_budget_floor) () =
  {
    policy;
    observe_threshold;
    nearly_full_threshold;
    prune_trigger;
    min_candidate_stale;
    stale_slack;
    max_unproductive_cycles;
    finalizers_after_prune;
    report;
    force_state;
    maxstaleuse_decay_period;
    max_slow_path_attempts;
    disk_retry_attempts;
    safe_mode_threshold;
    gc_slice_budget;
    liveness_mode;
    liveness_boost;
    pause_slo_p99_ns;
    slo_budget_floor;
  }

let validate t =
  if t.observe_threshold <= 0.0 || t.observe_threshold >= 1.0 then
    Error "observe_threshold must be in (0, 1)"
  else if t.nearly_full_threshold <= t.observe_threshold then
    Error "nearly_full_threshold must exceed observe_threshold"
  else if t.nearly_full_threshold > 1.0 then
    Error "nearly_full_threshold must be at most 1"
  else if t.min_candidate_stale < 1 then Error "min_candidate_stale must be >= 1"
  else if t.stale_slack < 0 then Error "stale_slack must be >= 0"
  else if t.max_unproductive_cycles < 1 then
    Error "max_unproductive_cycles must be >= 1"
  else if (match t.maxstaleuse_decay_period with Some p -> p < 1 | None -> false)
  then Error "maxstaleuse_decay_period must be >= 1"
  else if t.max_slow_path_attempts < 1 then
    Error "max_slow_path_attempts must be >= 1"
  else if t.disk_retry_attempts < 0 then Error "disk_retry_attempts must be >= 0"
  else if (match t.safe_mode_threshold with Some n -> n < 1 | None -> false)
  then Error "safe_mode_threshold must be >= 1"
  else if (match t.gc_slice_budget with Some b -> b < 1 | None -> false) then
    Error "gc_slice_budget must be >= 1"
  else if t.liveness_boost < 0 || t.liveness_boost > 6 then
    Error "liveness_boost must be in [0, 6]"
  else if (match t.pause_slo_p99_ns with Some n -> n < 1 | None -> false) then
    Error "pause_slo_p99_ns must be >= 1"
  else if t.slo_budget_floor < 1 then Error "slo_budget_floor must be >= 1"
  else Ok t
