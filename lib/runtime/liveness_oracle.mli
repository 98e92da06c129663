(** Installs a static liveness prior on a VM's controller.

    The access-graph analysis itself lives in {!Lp_liveness.Liveness};
    this module is the runtime-side glue that turns its symbolic
    verdicts into the controller's pure prior closure. *)

val prior :
  Vm.t ->
  bytecode:Lp_jit.Bytecode.methd list ->
  field_map:(string * string * int list) list ->
  Lp_heap.Class_registry.id ->
  int ->
  Lp_core.Selection.prior
(** Analyze [bytecode] with the static liveness oracle and return the
    prior of (source class id, field index): [Dead_beyond 0] slots are
    boosted, deeper [Dead_beyond] and [Maybe_live] slots are vetoed,
    [Unanalyzed] slots stay neutral. Classes named in [field_map] are
    registered eagerly (sorted) so guide-mode class ids are
    deterministic, and one [Liveness_verdict] event per analyzed slot is
    emitted if a sink is already attached — attach the sink first when
    the verdicts should land in the trace. *)

val install :
  Lp_core.Config.liveness_mode ->
  Vm.t ->
  bytecode:Lp_jit.Bytecode.methd list option ->
  field_map:(string * string * int list) list ->
  unit
(** Under [Liveness_guide], with a bytecode model, installs {!prior} on
    the VM's controller. [Liveness_off], or no bytecode model (a
    workload that publishes none), installs nothing. *)
