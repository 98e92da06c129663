(** Leak pruning configuration (paper Sections 3.1, 6.3).

    The defaults are the paper's: observe when reachable memory exceeds
    50% of the heap, select when it exceeds 90% ("nearly full"), and prune
    on the collection after a SELECT-state collection (the paper's option
    (2)). Setting [prune_trigger] to [On_exhaustion] reproduces option (1)
    and Figure 11: pruning waits until the heap is still 100% full after a
    collection and the VM is about to throw an out-of-memory error. *)

type prune_trigger = On_select_gc | On_exhaustion

type liveness_mode =
  | Liveness_off
      (** the static liveness oracle is ignored; behavior is bit-for-bit
          the pre-oracle pipeline (default) *)
  | Liveness_guide
      (** an installed oracle's verdicts compose with dynamic staleness:
          proven-live slots are vetoed, proven-dead slots get a SELECT
          confidence boost *)

val liveness_mode_to_string : liveness_mode -> string
(** ["off"], ["guide"]. *)

type t = {
  policy : Policy.t;
  observe_threshold : float;  (** default 0.5 *)
  nearly_full_threshold : float;  (** default 0.9 *)
  prune_trigger : prune_trigger;  (** default [On_select_gc] *)
  min_candidate_stale : int;
      (** minimum target staleness for a candidate reference; default 2 *)
  stale_slack : int;
      (** prune only targets at least this much staler than the edge's
          [maxstaleuse]; default 2 ("we conservatively use two greater,
          instead of one, since the stale counters only approximate the
          logarithm of staleness") *)
  max_unproductive_cycles : int;
      (** consecutive select/prune cycles that free no memory before the
          deferred out-of-memory error is finally thrown; default 8 *)
  finalizers_after_prune : bool;
      (** keep running finalizers once pruning starts (the paper's
          implementation choice); [false] gives the "strict" variant *)
  report : (string -> unit) option;
      (** optional sink for the out-of-memory warning and the pruned
          data-structure reports of Section 3.2 *)
  force_state : State_kind.t option;
      (** pin the state machine (used by the Figure 7 overhead
          experiments: force OBSERVE or SELECT continuously) *)
  maxstaleuse_decay_period : int option;
      (** halve every edge type's [maxstaleuse] every this many
          full-heap collections — the paper's proposed future-work
          policy for phased behaviour (JbbMod); default [None] (the
          paper's implementation) *)
  max_slow_path_attempts : int;
      (** collections one allocation may trigger while advancing through
          the SELECT/PRUNE protocol before the out-of-memory error is
          thrown; default 24 *)
  disk_baseline_retries : int;
      (** retry collections the disk-only baseline gets after a failed
          allocation, letting staleness reach the offload threshold
          (counters only move at collections); default 4 *)
  disk_retry_attempts : int;
      (** degraded re-collections (offloading disabled) the VM attempts
          when the disk-swap baseline reports [Out_of_disk] before the
          structured [Errors.Disk_exhausted] is thrown; default 2 *)
  safe_mode_threshold : int option;
      (** resurrections (recovered mispredictions) within one prune
          epoch that push the controller into the SAFE state, suspending
          pruning; [None] disables safe mode; default [Some 4] *)
  safe_mode_collections : int;
      (** full-heap collections the controller stays in SAFE before
          resuming the normal state machine; default 8 *)
  resurrection_alloc_attempts : int;
      (** collections the barrier-level resurrection path may trigger
          while re-allocating a pruned object's replacement before the
          recovery fails with [Reallocation_exhausted]; default 4 *)
  gc_slice_budget : int option;
      (** [Some b] bounds every pause: one mark slice scans at most [b]
          objects before yielding, and the sweep runs in segments of
          [b] slots ([>= 1]). [None] (the default) runs each
          collection as one pause. Reclamation outcomes are identical
          with and without a budget by construction — only the pause
          profile (and therefore wall time per pause) differs.
          With the pause SLO armed this is only the starting budget
          (256 when [None]); the autopilot retunes it. *)
  admission_retry_cap : int;
      (** fleet admission control: how many times one queued request may
          be re-offered to a tenant under disk backpressure before the
          scheduler sheds it; default 3 *)
  admission_backoff_base : int;
      (** first admission backoff, in scheduler rounds (the fleet's
          logical time unit); each consecutive denial doubles it;
          default 1 *)
  admission_backoff_ceiling : int;
      (** exponential backoff saturates at this many rounds; must be at
          least [admission_backoff_base]; default 16 *)
  offload_deadline : int;
      (** scheduler rounds a queued request may wait (across backoffs)
          before the deadline timeout sheds it; default 64 *)
  quarantine_rounds : int;
      (** scheduler rounds a restarted tenant sits out before the
          readiness probe may re-admit it; default 1 (the previously
          hardcoded fleet behaviour) *)
  extended_quarantine_rounds : int;
      (** quarantine applied by the supervisor's extended-quarantine
          ladder rung; must be at least [quarantine_rounds]; default 4 *)
  checkpoint_rounds : int;
      (** rounds between controller-brain checkpoints of each tenant;
          default 8 *)
  supervisor_window_rounds : int;
      (** sliding window over which the per-tenant supervisor counts
          restarts when climbing the escalation ladder; default 16 *)
  warm_restart_limit : int;
      (** restarts within the window that still get the warm
          (checkpoint-restoring) path; 0 disables warm restarts;
          default 2 *)
  cold_restart_limit : int;
      (** restarts within the window that still get a plain cold boot
          before the ladder moves to extended quarantine; default 4 *)
  retire_limit : int;
      (** restarts within the window beyond which the tenant is retired
          permanently; default 6 *)
  storm_window_rounds : int;
      (** sliding window over which the fleet breaker counts distinct
          restarted tenants; default 8 *)
  storm_trip_permille : int;
      (** the breaker trips when strictly more than this fraction (in
          per-mille) of tenants restarted within the window; range
          [1, 1000]; default 500 *)
  storm_cooldown_rounds : int;
      (** rounds the tripped breaker pauses fleet-wide serving before
          health probes may close it again; default 4 *)
  liveness_mode : liveness_mode;
      (** whether the static liveness oracle participates in SELECT;
          default [Liveness_off] *)
  liveness_boost : int;
      (** how many staleness levels a [Dead_beyond 0] (never-read)
          verdict lowers the [min_candidate_stale] floor for that edge
          type — the floor never drops below 1, and the [maxstaleuse]
          guard still applies; range [0, 6]; default 1 *)
  pause_slo_p99_ns : int option;
      (** the pause SLO: target 99th-percentile pause, in nanoseconds.
          [Some target] arms the [Lp_slo.Autopilot] — the VM retunes
          the slice budget between collections from wall-clock pause
          feedback. Outcome-neutral by construction: budgets only move
          slice boundaries. Default [None] (autopilot off) *)
  slo_budget_floor : int;
      (** the deterministic object-count floor under the autopilot's
          nanosecond-denominated budget: a retuned slice budget never
          drops below this many objects, so the count-based CI gates
          stay meaningful however slow the host; must be [>= 1];
          default 32 *)
}

val default : t

val make :
  ?policy:Policy.t ->
  ?observe_threshold:float ->
  ?nearly_full_threshold:float ->
  ?prune_trigger:prune_trigger ->
  ?min_candidate_stale:int ->
  ?stale_slack:int ->
  ?max_unproductive_cycles:int ->
  ?finalizers_after_prune:bool ->
  ?report:(string -> unit) ->
  ?force_state:State_kind.t ->
  ?maxstaleuse_decay_period:int ->
  ?max_slow_path_attempts:int ->
  ?disk_baseline_retries:int ->
  ?disk_retry_attempts:int ->
  ?safe_mode_threshold:int option ->
  ?safe_mode_collections:int ->
  ?resurrection_alloc_attempts:int ->
  ?gc_slice_budget:int ->
  ?admission_retry_cap:int ->
  ?admission_backoff_base:int ->
  ?admission_backoff_ceiling:int ->
  ?offload_deadline:int ->
  ?quarantine_rounds:int ->
  ?extended_quarantine_rounds:int ->
  ?checkpoint_rounds:int ->
  ?supervisor_window_rounds:int ->
  ?warm_restart_limit:int ->
  ?cold_restart_limit:int ->
  ?retire_limit:int ->
  ?storm_window_rounds:int ->
  ?storm_trip_permille:int ->
  ?storm_cooldown_rounds:int ->
  ?liveness_mode:liveness_mode ->
  ?liveness_boost:int ->
  ?pause_slo_p99_ns:int ->
  ?slo_budget_floor:int ->
  unit ->
  t
val validate : t -> (t, string) result
(** Checks threshold ordering and ranges; the [Error] message names
    the offending field. *)
