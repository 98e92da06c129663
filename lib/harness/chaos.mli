(** Randomized chaos testing of the VM under fault injection.

    A chaos run drives a seeded random workload — allocations that build
    and overwrite a shared object graph, a leak in the paper's shape (an
    append-only chain the program never reads back, which random reads
    and writes deliberately avoid so its staleness can grow until
    pruning selects it), reference reads and writes through the mutator
    barriers, forced collections, thread spawns and deaths — against a VM that may carry a {!Lp_fault.Fault_plan}
    injecting allocation refusals, disk failures, word corruption,
    thread kills and swap-image storage faults (bit rot, torn writes).
    Most seeds enable the resurrection subsystem, and the workload mix
    includes deliberate loads of pruned references, driving the
    swap-image recovery path and the controller's misprediction / SAFE
    feedback loop. After every full collection a strengthened heap
    verifier ({!Diagnostics.heap_check} in strict mode) must pass.

    The contract being tested is the robustness claim of the error
    taxonomy ({!Lp_core.Errors}): no matter which faults fire, a run
    either survives with a verified-consistent heap or stops with a
    clean structured error — never an unhandled exception, never an
    inconsistent heap. Each run is exactly reproducible from its seed:
    both the workload and the fault plan are derived from it, and a run
    capped at [m] steps executes precisely the first [m] steps of a
    longer run, which is what lets {!shrink} bisect a failing seed down
    to a minimal reproduction. *)

type outcome =
  | Survived
      (** all steps ran; the final collection's strict heap check passed *)
  | Clean_stop of { label : string; step : int }
      (** a non-recoverable structured error ([OutOfMemoryError] or
          [DiskExhausted]) ended the run at [step] — acceptable *)
  | Violation of { detail : string; step : int }
      (** the heap verifier failed — a runtime bug *)
  | Crash of { detail : string; step : int }
      (** an exception outside the error taxonomy escaped — a runtime bug *)

type report = {
  seed : int;
  steps_run : int;  (** workload steps executed (= the cap when survived) *)
  gc_count : int;  (** full collections, each followed by a strict verify *)
  faults_fired : int;  (** fault-plan events that actually triggered *)
  recovered : int;
      (** recoverable structured errors ([InternalError],
          [HeapCorruption]) caught mid-run, after which the run went on *)
  poisoned : int;
      (** references poisoned by PRUNE collections during the run *)
  resurrections : int;
      (** pruned objects restored from swap images by the read barrier *)
  safe_entries : int;
      (** times the controller entered the SAFE pruning moratorium *)
  liveness_dead_reads : int;
      (** mutator reads that contradicted a [Dead_beyond 0] verdict of
          the static liveness oracle — 0 in off mode (no oracle), and 0
          in guide mode whenever the oracle is sound for the chaos
          program, which is what the conformance test asserts *)
  outcome : outcome;
  trace : Lp_obs.Event.stamped list;
      (** the run's event log, oldest first — empty unless
          [trace_capacity] was passed to {!run_one}. Events carry only
          scalars, so reports (trace included) remain structurally
          comparable, which the reproduce check relies on. Exception:
          with the pause-SLO autopilot armed, a traced run may contain
          [Slo_adjust] events, whose budgets derive from wall-clock
          feedback — filter the trace with {!Lp_obs.Event.deterministic}
          (or run untraced) before comparing two such runs. *)
  trace_dropped : int;
      (** events the ring dropped (0 means [trace] is complete) *)
}

val failed : report -> bool
(** [Violation] or [Crash] — the outcomes that indicate a bug. *)

val outcome_to_string : outcome -> string

val run_one :
  ?faults:bool ->
  ?pause_slo_p99_ns:int ->
  ?liveness:Lp_core.Config.liveness_mode ->
  ?steps:int ->
  ?trace_capacity:int ->
  seed:int ->
  unit ->
  report
(** One deterministic chaos run. [faults] (default [true]) attaches the
    fault plan [Lp_fault.Fault_plan.random ~seed]; [false] runs the same
    workload fault-free. [steps] caps the workload (default 300). The
    VM shape (heap size, generational mode, disk baseline,
    resurrection) is itself drawn from the seed, so a sweep covers all
    configurations. [trace_capacity] attaches an event sink of that
    capacity before the first step; the log lands in {!report.trace}.
    Tracing never changes a run's behaviour — only its observation.
    [pause_slo_p99_ns] arms the pause-SLO autopilot
    ({!Lp_core.Config.pause_slo_p99_ns}): the collector then runs in
    slices whose budget is retuned from wall-clock feedback between
    collections. Without it each collection is one pause. The engine
    reproduces the same decisions, counters, heap state, clock and
    trace at every budget, so every report field (the trace filtered
    by {!Lp_obs.Event.deterministic}) must equal the unsliced run's,
    which is what the differential determinism test asserts.
    [liveness] (default [Liveness_off]) installs the static liveness
    oracle over a bytecode model of the chaos program before the first
    step; off mode leaves every report byte-identical to builds without
    the oracle. *)

val shrink :
  ?faults:bool ->
  ?pause_slo_p99_ns:int ->
  ?liveness:Lp_core.Config.liveness_mode ->
  ?steps:int ->
  seed:int ->
  unit ->
  int option
(** The smallest step cap at which [seed] still fails ([Violation] or
    [Crash]) under the given settings; [None] if it does not
    fail at [steps]. Binary search is sound because a capped run is a
    prefix of the full run, so failure at cap [m] is monotone in [m]. *)

val run_seeds :
  ?faults:bool ->
  ?pause_slo_p99_ns:int ->
  ?liveness:Lp_core.Config.liveness_mode ->
  ?steps:int ->
  ?progress:(report -> unit) ->
  seeds:int ->
  unit ->
  report list
(** Runs seeds [1..seeds], invoking [progress] after each. *)
