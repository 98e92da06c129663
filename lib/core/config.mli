(** Leak pruning configuration (paper Sections 3.1, 6.3).

    The defaults are the paper's: observe when reachable memory exceeds
    50% of the heap, select when it exceeds 90% ("nearly full"), and prune
    on the collection after a SELECT-state collection (the paper's option
    (2)). Setting [prune_trigger] to [On_exhaustion] reproduces option (1)
    and Figure 11: pruning waits until the heap is still 100% full after a
    collection and the VM is about to throw an out-of-memory error.

    [Config] holds only the settings of one VM, 10 fields: the policy,
    the observe threshold and trigger, the candidate bounds, the report
    sink, the forced state, the decay period, the liveness boost and
    the pause SLO. Settings no program varies are constants
    of the module that reads them: {!nearly_full_threshold} here, the
    SAFE-mode threshold (4 mispredictions per prune epoch) and the
    unproductive-cycle bound (8) in [Controller]; finalizers always
    keep running once pruning starts (the paper's implementation
    choice). Whether a run installs the liveness oracle at all is not
    among them (see {!liveness_mode}). Fleet settings live with the
    code that reads them: admission, the warm-restart limit and the
    crash-storm trip bar in [Lp_fleet.Fleet.options]. The slow paths'
    retry bounds and the autopilot's starting budget and floor are
    constants in [Lp_runtime.Vm]. *)

type prune_trigger = On_select_gc | On_exhaustion

type liveness_mode =
  | Liveness_off
      (** the static liveness oracle is ignored; behavior is bit-for-bit
          the pre-oracle pipeline (default) *)
  | Liveness_guide
      (** an installed oracle's verdicts compose with dynamic staleness:
          proven-live slots are vetoed, proven-dead slots get a SELECT
          confidence boost *)
(** Whether a run installs the static liveness oracle. No VM reads it,
    so it is not a field of {!t}: the harness takes it
    ([Lp_harness.Driver.run], [Lp_harness.Chaos.run_one],
    [Lp_fleet.Tenant.spec]) and [Lp_runtime.Liveness_oracle.install]
    acts on it. The type stays in [Config] because the benchmark in
    [perfbench/] builds its tenant specs with [Config.Liveness_off]. *)

type t = {
  policy : Policy.t;
  observe_threshold : float;
      (** default 0.5; below {!nearly_full_threshold} *)
  prune_trigger : prune_trigger;  (** default [On_select_gc] *)
  min_candidate_stale : int;
      (** minimum target staleness for a candidate reference; default 2 *)
  stale_slack : int;
      (** prune only targets at least this much staler than the edge's
          [maxstaleuse]; default 2 ("we conservatively use two greater,
          instead of one, since the stale counters only approximate the
          logarithm of staleness") *)
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
  liveness_boost : int;
      (** how many staleness levels a [Dead_beyond 0] (never-read)
          verdict lowers the [min_candidate_stale] floor for that edge
          type — the floor never drops below 1, and the [maxstaleuse]
          guard still applies; range [0, 6]; default 1 *)
  pause_slo_p99_ns : int option;
      (** the pause SLO: target 99th-percentile pause, in nanoseconds.
          [Some target] arms the [Lp_slo.Autopilot]: the collector
          runs in slices, starting at 256 objects, and the VM retunes
          the slice budget between collections from wall-clock pause
          feedback, never below 32 objects. Outcome-neutral by
          construction: budgets only move slice boundaries. Default
          [None] (autopilot off: each collection is one pause) *)
}

val nearly_full_threshold : float
(** 0.9: the SELECT state is entered when occupancy after a full
    collection exceeds this share of the heap ("nearly full"). *)

val default : t

val make :
  ?policy:Policy.t ->
  ?observe_threshold:float ->
  ?prune_trigger:prune_trigger ->
  ?min_candidate_stale:int ->
  ?stale_slack:int ->
  ?report:(string -> unit) ->
  ?force_state:State_kind.t ->
  ?maxstaleuse_decay_period:int ->
  ?liveness_boost:int ->
  ?pause_slo_p99_ns:int ->
  unit ->
  t
val validate : t -> (t, string) result
(** Checks threshold ordering and ranges; the [Error] message names
    the offending field. *)
