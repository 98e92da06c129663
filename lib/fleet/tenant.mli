(** One tenant: a VM lifecycle the fleet scheduler owns.

    A tenant is a {e specification} (workload, heap size, disk quota,
    policy) plus whichever VM incarnation is currently serving it. The
    scheduler serves requests through {!serve_one}; when one comes back
    [`Fatal] the tenant is restarted — counters harvested, swap store
    put through a recovery pass, replacement VM booted over the same
    quota — and the fleet carries on. All cumulative statistics survive
    restarts; per-VM counters are folded into the accumulators each
    time an incarnation dies.

    Restarts come in two temperatures, and both drop every swap image
    and boot the same fresh VM. A {e cold} restart leaves it with an
    empty brain. A {e warm} restart restores a checkpointed controller
    brain ({!restart_mode}) — so the learned pruning decisions
    (protected edge types, SELECT epoch, SAFE counters) survive the
    crash instead of being re-learned through another round of
    mispredictions. *)

type spec = {
  id : int;  (** stable identity: orders scheduling, seeds traffic *)
  name : string;
  workload : Lp_workloads.Workload.t;
  heap_bytes : int;
  quota_bytes : int;  (** shared-disk quota ([Diskswap] admission bound) *)
  rate_per_mille : int;  (** arrival rate, requests per 1000 rounds *)
  policy : Lp_core.Policy.t;
  force_safe : bool;
      (** pin the controller in SAFE state (pruning moratorium) for the
          tenant's whole life — the isolation experiments' "faulty
          neighbour" that can never reclaim *)
  resurrection : bool;
  liveness : Lp_core.Config.liveness_mode;
      (** [Liveness_guide] installs the static liveness prior on the
          tenant's controller (when its workload publishes bytecode) —
          reinstalled on every restart, like the rest of the VM
          configuration. [Liveness_off] changes nothing. *)
  pause_slo_p99_ns : int option;
      (** per-tenant pause SLO: [Some target] arms this tenant's
          pause-SLO autopilot ({!Lp_core.Config.pause_slo_p99_ns}) —
          re-armed fresh on every restart, like the rest of the VM
          configuration. Outcome-neutral, so mixed-SLO fleets keep the
          determinism oracle intact. [None] changes nothing. *)
  gc_packet_size : int option;
      (** must be [None]: {!Lp_fleet.Fleet.run} rejects [Some _]. The
          field once tuned the retired parallel collector; the
          benchmark in [perfbench/] still builds specs with it, so it
          stays until the next change to that benchmark. *)
}

exception Verifier_failed of string
(** Raised out of the per-collection strict heap verifier; always fatal
    for the tenant (reason ["verifier"]), never for the fleet. *)

type restart_mode =
  | Cold  (** boot an empty brain *)
  | Warm of Lp_core.Controller.brain
      (** restore this (already decoded and CRC-verified) checkpointed
          brain into the fresh controller *)

type stats = {
  served : int;
  recovered : int;  (** requests that hit a recoverable error *)
  restarts : int;
  warm_restarts : int;  (** restarts that restored a checkpointed brain *)
  cold_restarts : int;  (** cold boots, including warm-path fallbacks *)
  kills : int;  (** restarts caused by an injected [Kill_tenant] *)
  crashes : int;  (** restarts caused by a non-taxonomy exception *)
  retired : bool;  (** permanently removed by the escalation ladder *)
  gc_count : int;
  bytes_reclaimed : int;
  references_poisoned : int;
  resurrections : int;
  safe_entries : int;
  mispredictions : int;
      (** cumulative recovered mispredictions; warm restarts restore the
          controller's counter, so each incarnation is harvested against
          its restored baseline — never double-counted *)
  verifier_checks : int;
  verifier_failures : int;
  pruned_edge_types : (string * string) list;
  disk_bytes_final : int;
  admission_denials : int;  (** cumulative across incarnations *)
  images_valid : int;  (** recovery-pass CRC audits, summed *)
  images_corrupt : int;
}
(** Everything here is a deterministic function of (specs, seed,
    schedule) — no wall-clock values; pause timings live separately in
    {!pause_samples}. *)

type t

val create : backend:Lp_runtime.Diskswap.backend -> spec -> t
(** Boots the first VM incarnation: quota-limited swap store attached to
    [backend], strict-verifier collection listener installed before the
    workload's [prepare] runs. *)

val spec : t -> spec

val serve_one : t -> [ `Ok | `Recovered | `Fatal of string ]
(** Runs one request (one workload iteration). [`Recovered]: the
    request failed with a recoverable error, the tenant lives (both are
    counted as served). [`Fatal reason] leaves the tenant unusable until
    {!restart}; [reason] is {!Lp_core.Errors.tenant_restart_reason}'s
    tag, or ["verifier"] / ["crash"]. *)

val restart : t -> killed:bool -> mode:restart_mode -> unit
(** Error containment: harvest the dying VM, recover its swap store
    with {!Lp_runtime.Diskswap.recover} (every image audited and
    dropped, the backend released), boot a fresh VM. [killed] marks an
    injected [Kill_tenant] (counted separately from organic restarts).
    [Cold] and [Warm] boot the same fresh VM; [Warm] then imports the
    brain ({!Lp_core.Controller.import_brain}, which cannot fail) and
    counts as a warm restart, [Cold] as a cold one. *)

val probe : t -> [ `Ready | `Fatal of string ]
(** Readiness probe gating re-admission after a restart: one strict
    verifier pass plus one workload iteration that is {e not} counted as
    served traffic. Recoverable request errors still probe [`Ready];
    anything fatal reports like {!serve_one} and sends the tenant back
    through the escalation ladder. *)

val healthy : t -> bool
(** Verifier-only health check (no request); the fleet breaker polls
    this across live tenants before re-opening admissions. *)

val export_brain : t -> Lp_core.Controller.brain
(** Snapshot of the current incarnation's controller brain, ready for
    {!Lp_super.Checkpoint.encode}. *)

val retire_tenant : t -> unit
(** Permanent removal (top of the escalation ladder): harvest, then
    release the tenant's whole disk footprint back to the shared
    backend. Idempotent; {!finish} afterwards only reads the stats. *)

val restarts : t -> int

val retired : t -> bool

val admission_denials : t -> int
(** The {e current} incarnation's offload-admission denials — the
    scheduler's per-round backpressure signal (resets to 0 at restart,
    matching the fresh swap store). *)

val finish : t -> stats
(** Final harvest (idempotent); the swap store is {e not}
    recovered, so [disk_bytes_final] reports the tenant's real final
    footprint (0 for retired tenants, whose footprint was released). *)

val pause_samples : t -> int list
(** Wall-clock collection pauses across all incarnations (valid after
    {!finish}); excluded from every determinism comparison. *)
