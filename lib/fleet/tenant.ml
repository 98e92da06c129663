open Lp_runtime

type spec = {
  id : int;
  name : string;
  workload : Lp_workloads.Workload.t;
  heap_bytes : int;
  quota_bytes : int;
  rate_per_mille : int;
  policy : Lp_core.Policy.t;
  force_safe : bool;
  resurrection : bool;
  liveness : Lp_core.Config.liveness_mode;
  pause_slo_p99_ns : int option;
  gc_packet_size : int option;
}

exception Verifier_failed of string

type restart_mode = Cold | Warm of Lp_core.Controller.brain

type restart_outcome = {
  recovery : Diskswap.recovery;
  warm : bool;
  fallback : string option;
}

type stats = {
  served : int;
  recovered : int;
  restarts : int;
  warm_restarts : int;
  cold_restarts : int;
  kills : int;
  crashes : int;
  retired : bool;
  gc_count : int;
  bytes_reclaimed : int;
  references_poisoned : int;
  resurrections : int;
  safe_entries : int;
  mispredictions : int;
  verifier_checks : int;
  verifier_failures : int;
  pruned_edge_types : (string * string) list;
  disk_bytes_final : int;
  admission_denials : int;
  images_valid : int;
  images_corrupt : int;
}

type t = {
  spec : spec;
  backend : Diskswap.backend;
  mutable vm : Vm.t;
  mutable iterate : unit -> unit;
  mutable served : int;
  mutable recovered : int;
  mutable restarts : int;
  mutable warm_restarts : int;
  mutable cold_restarts : int;
  mutable kills : int;
  mutable crashes : int;
  mutable retired : bool;
  mutable verifier_checks : int;
  mutable verifier_failures : int;
  (* Accumulators harvested from each VM incarnation when it dies (and
     from the last one at [finish]); the per-VM counters reset with
     every restart, these never do. *)
  mutable acc_gc_count : int;
  mutable acc_bytes_reclaimed : int;
  mutable acc_references_poisoned : int;
  mutable acc_resurrections : int;
  mutable acc_safe_entries : int;
  mutable acc_mispredictions : int;
  mutable acc_denials : int;
  mutable acc_pruned : (string * string) list;
  mutable acc_pause_samples : int list;
  (* The counters a warm restart restores into the fresh controller were
     already harvested from the incarnation that exported them; the
     baselines mark the restored level so harvest only ever counts what
     this incarnation adds on top. *)
  mutable base_safe_entries : int;
  mutable base_pruned : int;
  mutable base_mispredictions : int;
  mutable images_valid : int;
  mutable images_corrupt : int;
  mutable finished : bool;
}

let spec t = t.spec

let new_vm ?swap_store ?first_object_id (s : spec) backend =
  let config =
    Lp_core.Config.make ~policy:s.policy
      ?pause_slo_p99_ns:s.pause_slo_p99_ns
      ?force_state:(if s.force_safe then Some Lp_core.State_kind.Safe else None)
      ()
  in
  Vm.create ~config
    ~disk:(Diskswap.default_config ~disk_limit_bytes:s.quota_bytes)
    ~swap_backend:backend ?swap_store ~resurrection:s.resurrection
    ?first_object_id ~heap_bytes:s.heap_bytes ()

(* The strict verifier runs after every collection of every tenant; a
   failure is fatal for the tenant (never for the fleet). The listener
   is attached before [prepare] runs so even setup-time collections are
   verified. *)
let install t =
  let vm = t.vm in
  Vm.set_gc_listener vm
    (Some
       (fun _ ->
         t.verifier_checks <- t.verifier_checks + 1;
         match Diagnostics.heap_check ~strict:true vm with
         | Ok () -> ()
         | Error msg ->
           t.verifier_failures <- t.verifier_failures + 1;
           raise (Verifier_failed msg)));
  (* the static prior is part of the tenant's VM configuration, so a
     restart reinstalls it on the fresh VM before prepare runs *)
  Liveness_oracle.install t.spec.liveness vm
    ~bytecode:t.spec.workload.Lp_workloads.Workload.bytecode
    ~field_map:t.spec.workload.Lp_workloads.Workload.field_map;
  t.iterate <- t.spec.workload.Lp_workloads.Workload.prepare vm

let set_baselines t =
  let ctl = Vm.controller t.vm in
  t.base_safe_entries <- Lp_core.Controller.safe_entries ctl;
  t.base_pruned <- List.length (Lp_core.Controller.pruned_edge_types ctl);
  t.base_mispredictions <- Lp_core.Controller.mispredictions ctl

let create ~backend spec =
  let t =
    {
      spec;
      backend;
      vm = new_vm spec backend;
      iterate = (fun () -> ());
      served = 0;
      recovered = 0;
      restarts = 0;
      warm_restarts = 0;
      cold_restarts = 0;
      kills = 0;
      crashes = 0;
      retired = false;
      verifier_checks = 0;
      verifier_failures = 0;
      acc_gc_count = 0;
      acc_bytes_reclaimed = 0;
      acc_references_poisoned = 0;
      acc_resurrections = 0;
      acc_safe_entries = 0;
      acc_mispredictions = 0;
      acc_denials = 0;
      acc_pruned = [];
      acc_pause_samples = [];
      base_safe_entries = 0;
      base_pruned = 0;
      base_mispredictions = 0;
      images_valid = 0;
      images_corrupt = 0;
      finished = false;
    }
  in
  install t;
  t

let harvest t =
  let vm = t.vm in
  let st = Vm.stats vm in
  t.acc_gc_count <- t.acc_gc_count + Vm.gc_count vm;
  t.acc_bytes_reclaimed <-
    t.acc_bytes_reclaimed + st.Lp_heap.Gc_stats.bytes_reclaimed;
  t.acc_references_poisoned <-
    t.acc_references_poisoned + st.Lp_heap.Gc_stats.references_poisoned;
  t.acc_resurrections <- t.acc_resurrections + st.Lp_heap.Gc_stats.resurrections;
  let ctl = Vm.controller vm in
  t.acc_safe_entries <-
    t.acc_safe_entries
    + (Lp_core.Controller.safe_entries ctl - t.base_safe_entries);
  t.acc_mispredictions <-
    t.acc_mispredictions
    + (Lp_core.Controller.mispredictions ctl - t.base_mispredictions);
  t.acc_denials <- t.acc_denials + Diskswap.admission_denials (Vm.swap vm);
  let reg = Vm.registry vm in
  let named (a, b) =
    (Lp_heap.Class_registry.name reg a, Lp_heap.Class_registry.name reg b)
  in
  (* entries below [base_pruned] were restored from a checkpoint and
     already live in [acc_pruned] from the incarnation that earned them *)
  let fresh_pruned =
    List.filteri
      (fun i _ -> i >= t.base_pruned)
      (Lp_core.Controller.pruned_edge_types ctl)
  in
  t.acc_pruned <- t.acc_pruned @ List.map named fresh_pruned;
  t.acc_pause_samples <- t.acc_pause_samples @ Vm.pause_samples_ns vm

let serve_one t =
  match t.iterate () with
  | () ->
    t.served <- t.served + 1;
    `Ok
  | exception Verifier_failed _ -> `Fatal "verifier"
  | exception e when Lp_core.Errors.is_recoverable e ->
    (* pruned-access and quarantined-corruption errors: the request
       failed but the tenant lives, exactly like Chaos's recovery net *)
    t.served <- t.served + 1;
    t.recovered <- t.recovered + 1;
    `Recovered
  | exception e when Lp_core.Errors.is_structured e ->
    `Fatal
      (Option.value (Lp_core.Errors.tenant_restart_reason e) ~default:"error")
  | exception _ ->
    t.crashes <- t.crashes + 1;
    `Fatal "crash"

(* Readiness probe for a restarted tenant: one verifier pass over the
   rebuilt heap plus one workload iteration that is *not* counted as
   served traffic. Only a passing probe re-admits the tenant. *)
let probe t =
  t.verifier_checks <- t.verifier_checks + 1;
  match Diagnostics.heap_check ~strict:true t.vm with
  | Error _ ->
    t.verifier_failures <- t.verifier_failures + 1;
    `Fatal "verifier"
  | Ok () -> (
    match t.iterate () with
    | () -> `Ready
    | exception Verifier_failed _ -> `Fatal "verifier"
    | exception e when Lp_core.Errors.is_recoverable e ->
      (* a recovered request is a live tenant: the probe passes *)
      `Ready
    | exception e when Lp_core.Errors.is_structured e ->
      `Fatal
        (Option.value (Lp_core.Errors.tenant_restart_reason e) ~default:"error")
    | exception _ ->
      t.crashes <- t.crashes + 1;
      `Fatal "crash")

(* Verifier-only health check; the fleet breaker polls this across all
   live tenants before closing after a crash storm. *)
let healthy t =
  t.verifier_checks <- t.verifier_checks + 1;
  match Diagnostics.heap_check ~strict:true t.vm with
  | Ok () -> true
  | Error _ ->
    t.verifier_failures <- t.verifier_failures + 1;
    false

let admission_denials t = Diskswap.admission_denials (Vm.swap t.vm)

let restarts t = t.restarts
let warm_restarts t = t.warm_restarts
let retired t = t.retired

let export_brain t = Lp_core.Controller.export_brain (Vm.controller t.vm)

let boot_cold t =
  t.vm <- new_vm t.spec t.backend;
  install t;
  set_baselines t

(* A restart is the tenant's whole error-containment story: harvest the
   dying VM's counters, put the swap store through a recovery pass,
   boot a replacement VM over the same quota.

   Cold: [Diskswap.recover] drops every image and releases the backend;
   the fresh VM starts with an empty brain. Warm: [recover_warm] audits
   image checksums but *retains* the valid ones, the fresh VM adopts the
   surviving store and a non-colliding id space, and the checkpointed
   controller brain is restored — falling back to a cold boot (with a
   reason) if the import fails, so a bad checkpoint can never leave a
   half-restored tenant. *)
let restart t ~killed ~mode =
  harvest t;
  t.restarts <- t.restarts + 1;
  if killed then t.kills <- t.kills + 1;
  let count (recovery : Diskswap.recovery) =
    t.images_valid <- t.images_valid + recovery.Diskswap.images_valid;
    t.images_corrupt <- t.images_corrupt + recovery.Diskswap.images_corrupt;
    recovery
  in
  match mode with
  | Cold ->
    let recovery = count (Diskswap.recover (Vm.swap t.vm)) in
    t.cold_restarts <- t.cold_restarts + 1;
    boot_cold t;
    { recovery; warm = false; fallback = None }
  | Warm brain -> (
    let swap = Vm.swap t.vm in
    let recovery = count (Diskswap.recover_warm swap) in
    let first_object_id = Lp_heap.Store.next_fresh_id (Vm.store t.vm) in
    t.vm <- new_vm ~swap_store:swap ~first_object_id t.spec t.backend;
    install t;
    match Lp_core.Controller.import_brain (Vm.controller t.vm) brain with
    | Ok () ->
      set_baselines t;
      t.warm_restarts <- t.warm_restarts + 1;
      { recovery; warm = true; fallback = None }
    | Error msg ->
      (* the adopted store still holds retained images; release them
         before abandoning the warm incarnation *)
      ignore (Diskswap.recover swap : Diskswap.recovery);
      t.cold_restarts <- t.cold_restarts + 1;
      boot_cold t;
      { recovery; warm = false; fallback = Some msg })

(* Permanent removal at the top of the escalation ladder: harvest,
   release every byte back to the shared backend. The swap recovery
   counts its image audit like any restart would. *)
let retire_tenant t =
  if not t.retired then begin
    t.retired <- true;
    t.finished <- true;
    harvest t;
    let recovery = Diskswap.recover (Vm.swap t.vm) in
    t.images_valid <- t.images_valid + recovery.Diskswap.images_valid;
    t.images_corrupt <- t.images_corrupt + recovery.Diskswap.images_corrupt
  end

let finish t =
  if not t.finished then begin
    t.finished <- true;
    harvest t
  end;
  {
    served = t.served;
    recovered = t.recovered;
    restarts = t.restarts;
    warm_restarts = t.warm_restarts;
    cold_restarts = t.cold_restarts;
    kills = t.kills;
    crashes = t.crashes;
    retired = t.retired;
    gc_count = t.acc_gc_count;
    bytes_reclaimed = t.acc_bytes_reclaimed;
    references_poisoned = t.acc_references_poisoned;
    resurrections = t.acc_resurrections;
    safe_entries = t.acc_safe_entries;
    mispredictions = t.acc_mispredictions;
    verifier_checks = t.verifier_checks;
    verifier_failures = t.verifier_failures;
    pruned_edge_types = t.acc_pruned;
    disk_bytes_final = Diskswap.disk_bytes (Vm.swap t.vm);
    admission_denials = t.acc_denials;
    images_valid = t.images_valid;
    images_corrupt = t.images_corrupt;
  }

let pause_samples t = t.acc_pause_samples
