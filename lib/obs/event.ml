type t =
  | Gc_begin of { gc : int; state : string }
  | Gc_end of { gc : int; state : string; live_bytes : int; reclaimed_bytes : int }
  | Phase_begin of { gc : int; phase : string }
  | Phase_end of { gc : int; phase : string; work : int }
  | Minor_begin of { n : int }
  | Minor_end of { n : int; promoted : int; freed : int }
  | Barrier_cold of { src_class : int; field : int }
  | Poison_trap of { src_class : int; field : int; target : int }
  | Edge_poisoned of { src_class : int; field : int; target : int }
  | Quarantine of { target : int }
  | Prune_decision of {
      src_class : int;
      tgt_class : int;
      refs_poisoned : int;
      bytes_reclaimed : int;
    }
  | Resurrection_attempt of { target : int }
  | Resurrection_ok of { target : int; new_id : int }
  | Resurrection_failed of { target : int; reason : string }
  | Safe_enter of { mispredictions : int }
  | Safe_exit of { forced : bool }
  | Disk_offload of { id : int; bytes : int }
  | Disk_restore of { id : int; ok : bool }
  | Image_capture of { id : int; bytes : int }
  | Image_drop of { id : int }
  | Tenant_killed of { tenant : int; round : int }
  | Tenant_restarted of {
      tenant : int;
      round : int;
      reason : string;
      restarts : int;
    }
  | Request_shed of { tenant : int; round : int; reason : string }
  | Fleet_pressure of { capacity_bytes : int; active : bool }
  | Checkpoint_saved of { tenant : int; round : int; bytes : int }
  | Checkpoint_restored of { tenant : int; round : int; edges : int }
  | Checkpoint_fallback of { tenant : int; round : int; reason : string }
  | Restart_escalated of { tenant : int; round : int; level : string }
  | Tenant_ready of { tenant : int; round : int }
  | Tenant_retired of { tenant : int; round : int; restarts : int }
  | Breaker_tripped of { round : int; restarted : int; tenants : int }
  | Breaker_reset of { round : int }
  | Liveness_verdict of { src_class : int; field : int; depth : int }
  | Liveness_veto of { src_class : int; field : int }
  | Liveness_boost of { src_class : int; field : int }
  | Slo_adjust of { gc : int; budget : int; p99_ns : int }

type stamped = { seq : int; at : int; ev : t }

let type_name = function
  | Gc_begin _ -> "gc_begin"
  | Gc_end _ -> "gc_end"
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"
  | Minor_begin _ -> "minor_begin"
  | Minor_end _ -> "minor_end"
  | Barrier_cold _ -> "barrier_cold"
  | Poison_trap _ -> "poison_trap"
  | Edge_poisoned _ -> "edge_poisoned"
  | Quarantine _ -> "quarantine"
  | Prune_decision _ -> "prune_decision"
  | Resurrection_attempt _ -> "resurrection_attempt"
  | Resurrection_ok _ -> "resurrection_ok"
  | Resurrection_failed _ -> "resurrection_failed"
  | Safe_enter _ -> "safe_enter"
  | Safe_exit _ -> "safe_exit"
  | Disk_offload _ -> "disk_offload"
  | Disk_restore _ -> "disk_restore"
  | Image_capture _ -> "image_capture"
  | Image_drop _ -> "image_drop"
  | Tenant_killed _ -> "tenant_killed"
  | Tenant_restarted _ -> "tenant_restarted"
  | Request_shed _ -> "request_shed"
  | Fleet_pressure _ -> "fleet_pressure"
  | Checkpoint_saved _ -> "checkpoint_saved"
  | Checkpoint_restored _ -> "checkpoint_restored"
  | Checkpoint_fallback _ -> "checkpoint_fallback"
  | Restart_escalated _ -> "restart_escalated"
  | Tenant_ready _ -> "tenant_ready"
  | Tenant_retired _ -> "tenant_retired"
  | Breaker_tripped _ -> "breaker_tripped"
  | Breaker_reset _ -> "breaker_reset"
  | Liveness_verdict _ -> "liveness_verdict"
  | Liveness_veto _ -> "liveness_veto"
  | Liveness_boost _ -> "liveness_boost"
  | Slo_adjust _ -> "slo_adjust"

(* Every event but one is a deterministic function of program, seed
   and configuration. The exception is [Slo_adjust], whose budget is
   derived from wall-clock pause feedback; it does not affect
   reclamation, since budgets only move slice boundaries. Run-twice
   trace comparisons filter on this. *)
let deterministic = function Slo_adjust _ -> false | _ -> true

(* Span events open (`B`) and close (`E`) a nested duration in the
   Chrome trace; everything else is instantaneous. *)
let span = function
  | Gc_begin _ | Phase_begin _ | Minor_begin _ -> `Begin
  | Gc_end _ | Phase_end _ | Minor_end _ -> `End
  | _ -> `Instant

(* The label shared by a span's begin and end events; the nesting
   checker matches on it. *)
let span_label = function
  | Gc_begin { gc; _ } | Gc_end { gc; _ } -> Printf.sprintf "gc#%d" gc
  | Phase_begin { gc; phase } | Phase_end { gc; phase; _ } ->
    Printf.sprintf "gc#%d/%s" gc phase
  | Minor_begin { n } | Minor_end { n; _ } -> Printf.sprintf "minor#%d" n
  | ev -> type_name ev
