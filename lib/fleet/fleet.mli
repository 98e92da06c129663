(** The multi-tenant fleet scheduler.

    [run] owns N tenant VM lifecycles and drives them with a fixed
    round-robin schedule (tenant-id order) for a fixed number of
    {e rounds} — the fleet's logical time unit. Each round, per tenant:
    open-loop arrivals are enqueued (overflow past 16 queued requests is
    shed), queued requests older than [offload_deadline] rounds time
    out, and — unless the tenant is quarantined or backing off — up to
    [requests_per_round] requests are served. Offload-admission denials
    from the tenant's own swap store drive bounded retry with
    exponential backoff ([admission_retry_cap], [admission_backoff_base],
    [admission_backoff_ceiling]); past the cap the backlog is shed.

    {b Isolation.} A tenant's traffic is a function of [(seed, id)]
    alone; its backpressure signal is its {e own} denial counter, never
    the backend's; and shared-disk admission only couples tenants when
    the backend capacity conjunct binds. With capacity headroom, a
    healthy tenant's report is bit-identical whether or not faulty
    neighbours exist — the isolation oracle the tests enforce across
    seeds.

    {b Containment and supervision.} Any [`Fatal] serve outcome (typed
    error, verifier failure, crash) restarts only that tenant. Each
    tenant has a supervisor ({!Lp_super.Supervisor}) that counts its
    restarts in a 16-round sliding window and climbs an escalation
    ladder: warm (checkpoint-restoring) restarts up to [warm_limit],
    then cold boots, then cold with a 4-round (instead of 1-round)
    quarantine, then permanent retirement. Every 8 rounds each ready
    tenant's controller brain is framed ({!Lp_super.Checkpoint}) and
    stored; a warm restart restores it (falling back cold — with a
    [Checkpoint_fallback] event — on any torn/corrupt/unimportable
    frame). A restarted tenant only re-admits traffic after passing a
    readiness probe (verifier pass + one unbilled request), recorded as
    [Tenant_ready].

    {b Crash storms.} A fleet-level breaker ({!Lp_super.Breaker}) counts
    distinct restarted tenants per 8-round window; past
    [storm_trip_permille] it trips ([Breaker_tripped]) and pauses all
    serving (and checkpointing) for at least 4 rounds, re-opening
    only after every live tenant passes a verifier health probe
    ([Breaker_reset]). Fleet chaos ([Fault_plan.Fleet] site) injects
    [Kill_tenant] / [Disk_pressure] ([chaos]) and [Kill_storm] /
    [Torn_checkpoint] ([storm]) faults on top. *)

type tenant_report = {
  tenant : int;
  name : string;
  workload : string;
  arrived : int;
  served : int;
  recovered : int;
  shed_queue : int;
  shed_deadline : int;
  shed_retries : int;
  shed_retired : int;
  restarts : int;
  warm_restarts : int;  (** restarts that completed the warm path *)
  cold_restarts : int;  (** cold boots, including warm-path fallbacks *)
  checkpoint_fallbacks : int;
      (** warm restarts demoted to cold: missing, torn, corrupt or
          unimportable checkpoint frames *)
  kills : int;
  crashes : int;
  retired : bool;  (** permanently removed by the escalation ladder *)
  gc_count : int;
  bytes_reclaimed : int;
  references_poisoned : int;
  resurrections : int;
  safe_entries : int;
  mispredictions : int;
  verifier_checks : int;
  verifier_failures : int;
  pruned_edge_types : (string * string) list;
  quota_bytes : int;
  disk_bytes_final : int;
  admission_denials : int;
  images_valid : int;
  images_corrupt : int;
}
(** Fully deterministic (no wall-clock fields): structural equality
    between two runs' reports is the isolation/determinism oracle. *)

type timing = {
  t_tenant : int;
  pause_count : int;
  pause_p50_ns : int;
  pause_p99_ns : int;
  pause_max_ns : int;
}
(** Wall-clock pause percentiles; never part of determinism compares. *)

type report = {
  seed : int;
  rounds : int;
  tenant_reports : tenant_report list;  (** in tenant-id order *)
  faults_fired : int;
  breaker_trips : int;  (** crash-storm breaker activations *)
  backend_capacity : int;
  backend_used_bytes : int;
  backend_denials : int;
  timings : timing list;
  events : Lp_obs.Event.stamped list;
      (** the fleet sink's log ([Tenant_killed], [Tenant_restarted],
          [Request_shed], [Fleet_pressure], plus the supervision events:
          [Checkpoint_saved] / [_restored] / [_fallback],
          [Restart_escalated], [Tenant_ready], [Tenant_retired],
          [Breaker_tripped] / [Breaker_reset]), stamped with the round *)
  events_dropped : int;
}

type options = {
  seed : int;
  rounds : int;
  requests_per_round : int;  (** serve capacity per tenant per round *)
  admission_retry_cap : int;
      (** how many times one queued request may be re-offered to a tenant
          under disk backpressure before the scheduler sheds it;
          default 3 *)
  admission_backoff_base : int;
      (** first admission backoff, in rounds; each consecutive denial
          doubles it; default 1 *)
  admission_backoff_ceiling : int;
      (** exponential backoff saturates at this many rounds; at least
          [admission_backoff_base]; default 16 *)
  offload_deadline : int;
      (** rounds a queued request may wait (across backoffs) before the
          deadline timeout sheds it; default 64 *)
  warm_limit : int;
      (** restarts within a tenant's supervisor window that still take
          the warm path, in [[0, Lp_super.Supervisor.cold_limit]]; 0
          disables warm restarts; default 2 *)
  storm_trip_permille : int;
      (** the crash-storm breaker trips when strictly more than this
          share of the fleet, in per-mille, restarted within its window;
          range [[1, 1000]]; default 500 *)
  capacity_bytes : int;  (** shared backend size *)
  chaos : bool;  (** schedule a [Fault_plan.random_fleet] plan *)
  chaos_events : int;
  storm : bool;
      (** schedule a [Fault_plan.random_storm] plan ([Kill_storm] /
          [Torn_checkpoint]) on top of (or instead of) [chaos] *)
  kills : (int * int) list;
      (** explicit (round, tenant id) kill schedule, applied whether or
          not [chaos] is on — the isolation tests' scripted faults *)
}

val default_options : seed:int -> rounds:int -> unit -> options
(** 2 requests/round, the defaults above, an effectively-unbounded
    backend, no chaos, no storm, no kills. *)

val validate : options -> (options, string) result
(** Checks the ranges and orderings of the admission, warm-limit and
    trip-bar settings; the [Error] message names the offending
    setting. *)

val run : options -> Tenant.spec list -> report
(** Every run uses a 16-request queue, 8-round [Disk_pressure] windows,
    a 4096-event sink, 1-round quarantines (4 on the ladder's extended
    rung) and a checkpoint every 8 rounds.
    @raise Invalid_argument on an empty fleet, duplicate tenant ids, a
    spec with [gc_packet_size = Some _], or options that fail
    {!validate}. *)

val failed : report -> bool
(** True when any tenant saw a verifier failure or a crash (restarts
    from {e typed} errors are expected operation, not failure). *)

val deterministic_view : report -> string
(** Renders exactly the deterministic fields; two runs with equal seed,
    specs and schedule must produce equal strings (the oracle used by
    tests and the chaos sweep). *)

val render : report -> string
(** [deterministic_view] plus pause timings and event counts, for the
    CLI. *)
