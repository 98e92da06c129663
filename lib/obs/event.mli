(** The typed events the runtime traces (the observability plane's
    vocabulary).

    Class identifiers are carried as raw [Class_registry] ids — the
    heap layer that emits most events has no access to names, and the
    exporters accept a resolver to render them. Events are stamped with
    the VM's {e logical} clock (simulated cycles), never wall time, so a
    trace is a deterministic function of the program, the seed and the
    configuration. *)

type t =
  | Gc_begin of { gc : int; state : string }
      (** a full-heap collection starts, in controller state [state] *)
  | Gc_end of { gc : int; state : string; live_bytes : int; reclaimed_bytes : int }
  | Phase_begin of { gc : int; phase : string }
      (** collection sub-phase: mark / stale-closure / selection /
          sweep / disk *)
  | Phase_end of { gc : int; phase : string; work : int }
      (** [work] is a phase-specific magnitude (objects marked, bytes
          claimed, bytes swept, ...) *)
  | Minor_begin of { n : int }
  | Minor_end of { n : int; promoted : int; freed : int }
  | Barrier_cold of { src_class : int; field : int }
      (** read barrier out-of-line hit: first use of a reference since
          the collection that scanned it *)
  | Poison_trap of { src_class : int; field : int; target : int }
      (** the program loaded a pruned (poisoned) reference *)
  | Edge_poisoned of { src_class : int; field : int; target : int }
      (** the collector poisoned one reference during a PRUNE collection *)
  | Quarantine of { target : int }
      (** a corrupt (dangling) word was poisoned instead of crashing *)
  | Prune_decision of {
      src_class : int;
      tgt_class : int;
      refs_poisoned : int;
      bytes_reclaimed : int;
    }
      (** one PRUNE collection's outcome: the selected edge type, how
          many references it poisoned and the bytes the sweep then
          reclaimed *)
  | Resurrection_attempt of { target : int }
  | Resurrection_ok of { target : int; new_id : int }
  | Resurrection_failed of { target : int; reason : string }
  | Safe_enter of { mispredictions : int }
  | Safe_exit of { forced : bool }
      (** [forced]: memory pressure lifted the moratorium early *)
  | Disk_offload of { id : int; bytes : int }
  | Disk_restore of { id : int; ok : bool }
  | Image_capture of { id : int; bytes : int }
      (** swap image of a dying object written before the sweep *)
  | Image_drop of { id : int }
  | Tenant_killed of { tenant : int; round : int }
      (** fleet chaos killed this tenant's VM mid-round (no clean
          teardown; only swap recovery runs before the restart) *)
  | Tenant_restarted of {
      tenant : int;
      round : int;
      reason : string;
      restarts : int;
    }
      (** the scheduler quarantined a tenant after a typed error (or a
          kill) and brought a fresh VM up over the recovered swap store;
          [reason] is {!Lp_core.Errors.tenant_restart_reason}'s tag (or
          ["kill"] / ["crash"] / ["verifier"]), [restarts] the tenant's
          cumulative restart count *)
  | Request_shed of { tenant : int; round : int; reason : string }
      (** admission control dropped a queued request (["queue-full"],
          ["deadline"], ["retries"], or ["retired"]) instead of letting
          tenant backpressure error the fleet *)
  | Fleet_pressure of { capacity_bytes : int; active : bool }
      (** a shared-disk-pressure window opened ([active = true], with
          the clamped capacity) or closed ([active = false], capacity
          restored) *)
  | Checkpoint_saved of { tenant : int; round : int; bytes : int }
      (** the supervisor captured this tenant's controller brain into a
          [bytes]-byte CRC-framed checkpoint *)
  | Checkpoint_restored of { tenant : int; round : int; edges : int }
      (** a warm restart imported the stored checkpoint ([edges]
          protected edge-table entries) into the fresh VM's controller *)
  | Checkpoint_fallback of { tenant : int; round : int; reason : string }
      (** the warm path was abandoned for a cold boot: no checkpoint
          stored, or a torn/corrupt/unsupported frame ([reason] carries
          the typed decode error tag) *)
  | Restart_escalated of { tenant : int; round : int; level : string }
      (** the per-tenant supervisor's ladder decision for this restart:
          ["warm"], ["cold"], ["cold-extended"] or ["retire"] *)
  | Tenant_ready of { tenant : int; round : int }
      (** the post-restart readiness probe (verifier pass + one
          successful serve) re-admitted the tenant to the scheduler *)
  | Tenant_retired of { tenant : int; round : int; restarts : int }
      (** the ladder's terminal rung: the tenant restarted more than 6
          times within the supervisor's 16-round window and is
          permanently removed from the fleet *)
  | Breaker_tripped of { round : int; restarted : int; tenants : int }
      (** the crash-storm breaker saw [restarted] distinct tenants (of
          [tenants]) restart within its 8-round window and paused
          fleet-wide serving *)
  | Breaker_reset of { round : int }
      (** the cooldown elapsed and every surviving tenant passed its
          health probe; serving resumes *)
  | Liveness_verdict of { src_class : int; field : int; depth : int }
      (** the static liveness oracle's verdict for one (class, field)
          slot at installation time: [depth >= 0] is [Dead_beyond
          depth], [depth = -1] is [Maybe_live] *)
  | Liveness_veto of { src_class : int; field : int }
      (** the oracle suppressed a dynamically qualifying candidate
          reference of this slot during SELECT or PRUNE *)
  | Liveness_boost of { src_class : int; field : int }
      (** the oracle's never-read verdict qualified a reference that
          dynamic staleness alone would not have selected *)
  | Slo_adjust of { gc : int; budget : int; p99_ns : int }
      (** the pause-SLO autopilot retuned the slice budget after
          collection [gc]: [budget] is the new object-count budget,
          [p99_ns] the observed p99 pause that drove the adjustment.
          {e Non-deterministic} (see {!deterministic}): budgets derive
          from wall-clock feedback *)

type stamped = { seq : int; at : int; ev : t }
(** [seq] is a per-sink sequence number (total order even between events
    at the same logical time); [at] is the VM's logical clock. *)

val type_name : t -> string
(** Stable snake_case tag used by the exporters. *)

val span : t -> [ `Begin | `End | `Instant ]
(** Whether the event opens, closes, or does not belong to a nested
    duration span in the Chrome trace. *)

val span_label : t -> string
(** The label shared by a span's begin and end events (["gc#3"],
    ["gc#3/mark"], ["minor#7"]); begin/end pairs carry equal labels. *)

val deterministic : t -> bool
(** Whether the event is a deterministic function of program, seed and
    configuration. [false] only for {!Slo_adjust} (budgets derive
    from wall-clock pause feedback). Run-twice trace comparisons must
    filter events this predicate rejects. *)
