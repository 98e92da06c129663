(** Experiment driver: runs one workload under one configuration and
    records everything the paper's tables and figures report. *)

type outcome =
  | Reached_cap  (** still running at the iteration cap ("24 hours") *)
  | Completed  (** a fixed-iteration program finished *)
  | Out_of_memory of exn
  | Pruned_access of exn  (** used a reclaimed instance: InternalError *)
  | Out_of_disk of exn  (** disk baseline exhausted its disk *)

type result = {
  workload : string;
  policy : Lp_core.Policy.t;
  heap_bytes : int;
  iterations : int;  (** iterations completed before the outcome *)
  outcome : outcome;
  total_cycles : int;
  gc_cycles : int;
  gc_count : int;
  pruned_edge_types : (string * string) list;
  edge_table_entries : int;
  references_poisoned : int;
  bytes_reclaimed : int;
  mispredictions : int;
      (** pruned references the program later used and resurrection
          recovered — the cost a static liveness prior is meant to cut *)
  liveness_vetoes : int;
      (** stale-qualified candidates the static oracle overruled *)
  liveness_boosts : int;
      (** candidates that qualified only through the oracle's
          proven-dead staleness-floor cut *)
  reachable_series : (int * int) list;
      (** (iteration, reachable bytes) at the end of each full-heap
          collection — the data of Figures 1 and 9 *)
  iteration_cycles : int array;
      (** simulated cycles consumed by each iteration — the data of
          Figures 8, 10 and 11; empty unless requested *)
}

val outcome_to_string : outcome -> string

val run :
  ?policy:Lp_core.Policy.t ->
  ?config:Lp_core.Config.t ->
  ?liveness:Lp_core.Config.liveness_mode ->
  ?heap_bytes:int ->
  ?max_iterations:int ->
  ?charge_barriers:bool ->
  ?cost:Lp_runtime.Cost.t ->
  ?disk:Lp_runtime.Diskswap.config ->
  ?resurrection:bool ->
  ?record_iteration_cycles:bool ->
  ?prepare_vm:(Lp_runtime.Vm.t -> unit) ->
  Lp_workloads.Workload.t ->
  result
(** Defaults: the workload's default heap (≈2× non-leaking live size),
    the paper-default pruning configuration with the given [policy]
    (default [Default]), a cap of 50,000 iterations, barrier cycles
    charged, no resurrection. An explicit [config] overrides [policy].
    [resurrection] is forwarded to [Vm.create] so misprediction
    experiments can recover mispruned data. [prepare_vm] runs on the
    freshly created VM before the workload's [prepare] — the hook the
    trace CLI and tests use to attach an event sink. When [liveness]
    (default [Liveness_off]) is [Liveness_guide] and the workload
    publishes [bytecode], the static oracle is installed (after
    [prepare_vm], so an attached sink sees the verdict events). *)

val survival_factor : base:result -> result -> float
(** Iterations relative to the Base run — Table 1's "runs NX longer". *)
