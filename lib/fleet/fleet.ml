(* The multi-tenant scheduler: owns N tenant VM lifecycles and drives
   them round-robin with open-loop traffic over one shared disk
   backend. A scheduler *round* is the fleet's logical time unit — every
   admission setting in [options] (retry cap, backoff base and ceiling,
   offload deadline) is denominated in rounds, and so is every
   supervision setting (checkpoint cadence, quarantine lengths, and the
   windows and cooldown of [Lp_super.Supervisor.config] and
   [Lp_super.Breaker.config]). *)

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
  warm_restarts : int;
  cold_restarts : int;
  checkpoint_fallbacks : int;
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
  quota_bytes : int;
  disk_bytes_final : int;
  admission_denials : int;
  images_valid : int;
  images_corrupt : int;
}

type timing = {
  t_tenant : int;
  pause_count : int;
  pause_p50_ns : int;
  pause_p99_ns : int;
  pause_max_ns : int;
}

type report = {
  seed : int;
  rounds : int;
  tenant_reports : tenant_report list;  (* in tenant-id order *)
  faults_fired : int;
  breaker_trips : int;
  backend_capacity : int;
  backend_used_bytes : int;
  backend_denials : int;
  metrics : Lp_obs.Metrics.snapshot;
      (* fleet-aggregate merge of every incarnation's registry; contains
         wall-clock pause histograms, so it is NOT part of the
         deterministic view *)
  timings : timing list;
  events : Lp_obs.Event.stamped list;
  events_dropped : int;
}

type options = {
  seed : int;
  rounds : int;
  requests_per_round : int;
  admission_retry_cap : int;
  admission_backoff_base : int;
  admission_backoff_ceiling : int;
  offload_deadline : int;
  quarantine_rounds : int;
  extended_quarantine_rounds : int;
  checkpoint_rounds : int;
  supervisor : Lp_super.Supervisor.config;
  breaker : Lp_super.Breaker.config;
  capacity_bytes : int;
  chaos : bool;
  chaos_events : int;
  storm : bool;  (* add a crash-storm plan (Kill_storm / Torn_checkpoint) *)
  kills : (int * int) list;  (* explicit (round, tenant id) kill schedule *)
}

(* Arrivals past this many queued requests are shed as queue-full. *)
let queue_limit = 16

(* Length, in rounds, of a [Disk_pressure] window. *)
let pressure_rounds = 8

(* Capacity of the fleet event sink. *)
let trace_capacity = 4096

let default_options ~seed ~rounds () =
  {
    seed;
    rounds;
    requests_per_round = 2;
    admission_retry_cap = 3;
    admission_backoff_base = 1;
    admission_backoff_ceiling = 16;
    offload_deadline = 64;
    quarantine_rounds = 1;
    extended_quarantine_rounds = 4;
    checkpoint_rounds = 8;
    supervisor = Lp_super.Supervisor.default;
    breaker = Lp_super.Breaker.default;
    capacity_bytes = max_int / 2;
    chaos = false;
    chaos_events = 3;
    storm = false;
    kills = [];
  }

let validate (o : options) =
  let s = o.supervisor and b = o.breaker in
  let checks =
    [
      (o.admission_retry_cap >= 0, "admission_retry_cap must be >= 0");
      (o.admission_backoff_base >= 1, "admission_backoff_base must be >= 1");
      ( o.admission_backoff_ceiling >= o.admission_backoff_base,
        "admission_backoff_ceiling must be >= admission_backoff_base" );
      (o.offload_deadline >= 1, "offload_deadline must be >= 1");
      (o.quarantine_rounds >= 1, "quarantine_rounds must be >= 1");
      ( o.extended_quarantine_rounds >= o.quarantine_rounds,
        "extended_quarantine_rounds must be >= quarantine_rounds" );
      (o.checkpoint_rounds >= 1, "checkpoint_rounds must be >= 1");
      (s.warm_limit >= 0, "warm_restart_limit must be >= 0");
      ( s.cold_limit >= s.warm_limit,
        "cold_restart_limit must be >= warm_restart_limit" );
      ( s.retire_limit >= s.cold_limit,
        "retire_limit must be >= cold_restart_limit" );
      (b.window_rounds >= 1, "storm_window_rounds must be >= 1");
      ( b.trip_permille >= 1 && b.trip_permille <= 1000,
        "storm_trip_permille must be in [1, 1000]" );
      (b.cooldown_rounds >= 1, "storm_cooldown_rounds must be >= 1");
    ]
  in
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | Some (_, msg) -> Error msg
  | None -> Ok o

type request = { enqueued : int }

(* Per-tenant scheduler state the tenant itself must not know about:
   the queue, shed counters, the admission-control machine, and the
   supervision state (escalation ladder, latest checkpoint frame,
   readiness gate). *)
type slot = {
  tenant : Tenant.t;
  traffic : Traffic.t;
  super : Lp_super.Supervisor.t;
  queue : request Queue.t;
  mutable arrived : int;
  mutable shed_queue : int;
  mutable shed_deadline : int;
  mutable shed_retries : int;
  mutable shed_retired : int;
  mutable backoff_until : int;
  mutable backoff_level : int;
  mutable pressure_retries : int;
  mutable last_denials : int;
  mutable quarantined_until : int;
  mutable ready : bool;
      (* false between a restart and its passed readiness probe *)
  mutable checkpoint_fallbacks : int;
}

let run opts specs =
  if specs = [] then invalid_arg "Fleet.run: at least one tenant required";
  let specs =
    List.sort (fun (a : Tenant.spec) b -> compare a.Tenant.id b.Tenant.id) specs
  in
  let rec check_unique = function
    | (a : Tenant.spec) :: (b : Tenant.spec) :: _ when a.Tenant.id = b.Tenant.id
      ->
      invalid_arg "Fleet.run: duplicate tenant id"
    | _ :: rest -> check_unique rest
    | [] -> ()
  in
  check_unique specs;
  if
    List.exists
      (fun (s : Tenant.spec) -> s.Tenant.gc_packet_size <> None)
      specs
  then invalid_arg "Fleet.run: gc_packet_size must be None";
  (match validate opts with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Fleet.run: " ^ msg));
  let backend = Lp_runtime.Diskswap.create_backend ~capacity_bytes:opts.capacity_bytes in
  let round = ref 0 in
  let sink =
    Lp_obs.Sink.create ~capacity:trace_capacity ~clock:(fun () -> !round) ()
  in
  let plan =
    let evs =
      (if opts.chaos then
         Lp_fault.Fault_plan.events
           (Lp_fault.Fault_plan.random_fleet ~events:opts.chaos_events
              ~rounds:opts.rounds ~seed:opts.seed ())
       else [])
      @
      if opts.storm then
        Lp_fault.Fault_plan.events
          (Lp_fault.Fault_plan.random_storm ~events:opts.chaos_events
             ~rounds:opts.rounds ~seed:opts.seed ())
      else []
    in
    if evs = [] then Lp_fault.Fault_plan.none else Lp_fault.Fault_plan.make evs
  in
  let slots =
    Array.of_list
      (List.map
         (fun (s : Tenant.spec) ->
           {
             tenant = Tenant.create ~backend s;
             traffic =
               Traffic.create ~seed:opts.seed ~tenant:s.Tenant.id
                 ~rate_per_mille:s.Tenant.rate_per_mille;
             super = Lp_super.Supervisor.create opts.supervisor;
             queue = Queue.create ();
             arrived = 0;
             shed_queue = 0;
             shed_deadline = 0;
             shed_retries = 0;
             shed_retired = 0;
             backoff_until = 0;
             backoff_level = 0;
             pressure_retries = 0;
             last_denials = 0;
             quarantined_until = 0;
             ready = true;
             checkpoint_fallbacks = 0;
           })
         specs)
  in
  let n = Array.length slots in
  let breaker = Lp_super.Breaker.create opts.breaker ~tenants:n in
  let tenant_id slot = (Tenant.spec slot.tenant).Tenant.id in
  let shed slot reason =
    (match reason with
    | "queue-full" -> slot.shed_queue <- slot.shed_queue + 1
    | "deadline" -> slot.shed_deadline <- slot.shed_deadline + 1
    | "retries" -> slot.shed_retries <- slot.shed_retries + 1
    | _ -> slot.shed_retired <- slot.shed_retired + 1);
    Lp_obs.Sink.emit sink
      (Lp_obs.Event.Request_shed
         { tenant = tenant_id slot; round = !round; reason })
  in
  let drain_queue slot =
    while not (Queue.is_empty slot.queue) do
      ignore (Queue.pop slot.queue);
      shed slot "retired"
    done
  in
  (* The whole supervision story for one tenant failure: record it with
     the fleet breaker, ask the tenant's supervisor for the ladder's
     decision, then either retire the tenant for good or restart it at
     the chosen temperature. A Warm decision is demoted to cold — with a
     [Checkpoint_fallback] event carrying the typed reason — when no
     checkpoint exists, the frame fails {!Lp_super.Checkpoint.decode},
     or the brain import fails; the tenant always comes back in a
     defined state. *)
  let handle_failure slot ~reason ~killed =
    let tid = tenant_id slot in
    Lp_super.Breaker.note_restart breaker ~round:!round ~tenant:tid;
    let action = Lp_super.Supervisor.on_restart slot.super ~round:!round in
    Lp_obs.Sink.emit sink
      (Lp_obs.Event.Restart_escalated
         {
           tenant = tid;
           round = !round;
           level = Lp_super.Supervisor.action_to_string action;
         });
    match action with
    | Lp_super.Supervisor.Retire ->
      Tenant.retire_tenant slot.tenant;
      drain_queue slot;
      Lp_obs.Sink.emit sink
        (Lp_obs.Event.Tenant_retired
           {
             tenant = tid;
             round = !round;
             restarts = Tenant.restarts slot.tenant;
           })
    | (Lp_super.Supervisor.Warm | Cold | Cold_extended) as action ->
      let mode, decode_fallback =
        match action with
        | Lp_super.Supervisor.Warm -> (
          match Lp_super.Supervisor.checkpoint slot.super with
          | None -> (Tenant.Cold, Some "no-checkpoint")
          | Some (_saved_round, frame) -> (
            match Lp_super.Checkpoint.decode frame with
            | Ok (_saved_round, brain) -> (Tenant.Warm brain, None)
            | Error e -> (Tenant.Cold, Some (Lp_super.Checkpoint.error_to_string e))))
        | _ -> (Tenant.Cold, None)
      in
      let outcome = Tenant.restart slot.tenant ~killed ~mode in
      let fallback =
        match decode_fallback with
        | Some _ as f -> f
        | None -> outcome.Tenant.fallback
      in
      (match fallback with
      | Some why ->
        slot.checkpoint_fallbacks <- slot.checkpoint_fallbacks + 1;
        Lp_obs.Sink.emit sink
          (Lp_obs.Event.Checkpoint_fallback
             { tenant = tid; round = !round; reason = why })
      | None -> ());
      (match (outcome.Tenant.warm, mode) with
      | true, Tenant.Warm brain ->
        Lp_obs.Sink.emit sink
          (Lp_obs.Event.Checkpoint_restored
             {
               tenant = tid;
               round = !round;
               edges = List.length brain.Lp_core.Controller.brain_edges;
             })
      | _ -> ());
      Lp_obs.Sink.emit sink
        (Lp_obs.Event.Tenant_restarted
           {
             tenant = tid;
             round = !round;
             reason;
             restarts = Tenant.restarts slot.tenant;
           });
      let q =
        match action with
        | Lp_super.Supervisor.Cold_extended -> opts.extended_quarantine_rounds
        | _ -> opts.quarantine_rounds
      in
      slot.quarantined_until <- !round + q;
      slot.ready <- false;
      slot.backoff_until <- 0;
      slot.backoff_level <- 0;
      slot.pressure_retries <- 0;
      slot.last_denials <- 0
  in
  let kill slot =
    if not (Tenant.retired slot.tenant) then begin
      Lp_obs.Sink.emit sink
        (Lp_obs.Event.Tenant_killed { tenant = tenant_id slot; round = !round });
      handle_failure slot ~reason:"kill" ~killed:true
    end
  in
  let saved_capacity = ref None in
  let pressure_until = ref 0 in
  let torn_pending = ref 0 in
  let close_pressure () =
    match !saved_capacity with
    | None -> ()
    | Some cap ->
      Lp_runtime.Diskswap.set_backend_capacity backend cap;
      saved_capacity := None;
      Lp_obs.Sink.emit sink
        (Lp_obs.Event.Fleet_pressure { capacity_bytes = cap; active = false })
  in
  for r = 1 to opts.rounds do
    round := r;
    if !saved_capacity <> None && r >= !pressure_until then close_pressure ();
    (* Breaker bookkeeping first: an open breaker whose cooldown has
       elapsed polls every live tenant's verifier; only a clean bill of
       health re-opens admissions (and clears the restart window so the
       same storm cannot re-trip it), anything less extends the pause. *)
    if Lp_super.Breaker.is_open breaker
       && Lp_super.Breaker.cooldown_over breaker ~round:r
    then begin
      let all_healthy = ref true in
      Array.iter
        (fun slot ->
          if not (Tenant.retired slot.tenant) then
            if not (Tenant.healthy slot.tenant) then all_healthy := false)
        slots;
      if !all_healthy then begin
        Lp_super.Breaker.reset breaker;
        Lp_obs.Sink.emit sink (Lp_obs.Event.Breaker_reset { round = r })
      end
      else Lp_super.Breaker.extend breaker ~round:r
    end;
    (* Fleet chaos: the plan's [Fleet] site is visited exactly once per
       round, so fault timing is in rounds too. *)
    let faults = Lp_fault.Fault_plan.check plan Lp_fault.Fault_plan.Fleet in
    List.iter
      (fun f ->
        match (f : Lp_fault.Fault_plan.fault) with
        | Lp_fault.Fault_plan.Kill_tenant ->
          (* deterministic victim: rotate by round so repeated kills
             spread over the fleet *)
          kill slots.((r - 1) mod n)
        | Lp_fault.Fault_plan.Kill_storm ->
          (* correlated crash: a majority of the fleet dies this round,
             victims rotated by round like single kills *)
          for i = 0 to n / 2 do
            kill slots.((r - 1 + i) mod n)
          done
        | Lp_fault.Fault_plan.Torn_checkpoint ->
          torn_pending := !torn_pending + 1
        | Lp_fault.Fault_plan.Disk_pressure ->
          pressure_until := r + pressure_rounds;
          if !saved_capacity = None then begin
            let cap = Lp_runtime.Diskswap.backend_capacity backend in
            let used = Lp_runtime.Diskswap.backend_used_bytes backend in
            saved_capacity := Some cap;
            Lp_runtime.Diskswap.set_backend_capacity backend used;
            Lp_obs.Sink.emit sink
              (Lp_obs.Event.Fleet_pressure
                 { capacity_bytes = used; active = true })
          end
        | _ -> ())
      faults;
    List.iter
      (fun (kr, kt) ->
        if kr = r then
          Array.iter (fun slot -> if tenant_id slot = kt then kill slot) slots)
      opts.kills;
    Array.iter
      (fun slot ->
        if Tenant.retired slot.tenant then begin
          (* retired tenants shed their arrivals on the spot *)
          let a = Traffic.arrivals slot.traffic in
          for _ = 1 to a do
            slot.arrived <- slot.arrived + 1;
            shed slot "retired"
          done
        end
        else begin
          (* 1. Arrivals — drawn every round, served or not. *)
          let a = Traffic.arrivals slot.traffic in
          for _ = 1 to a do
            slot.arrived <- slot.arrived + 1;
            if Queue.length slot.queue >= queue_limit then
              shed slot "queue-full"
            else Queue.add { enqueued = r } slot.queue
          done;
          (* 2. Deadline aging — requests stuck behind backpressure (or a
             quarantine, or an open breaker) longer than
             [offload_deadline] rounds time out. *)
          while
            (not (Queue.is_empty slot.queue))
            && r - (Queue.peek slot.queue).enqueued > opts.offload_deadline
          do
            ignore (Queue.pop slot.queue);
            shed slot "deadline"
          done;
          (* 3. Serve, unless the breaker is open (fleet-wide pause) or
             this tenant is quarantined or backing off. A restarted
             tenant must first pass its readiness probe — one verifier
             pass plus one unbilled request — before taking traffic. *)
          if
            (not (Lp_super.Breaker.is_open breaker))
            && slot.quarantined_until <= r
            && slot.backoff_until <= r
          then begin
            let admitted =
              slot.ready
              ||
              match Tenant.probe slot.tenant with
              | `Ready ->
                slot.ready <- true;
                Lp_obs.Sink.emit sink
                  (Lp_obs.Event.Tenant_ready
                     { tenant = tenant_id slot; round = r });
                true
              | `Fatal reason ->
                handle_failure slot ~reason ~killed:false;
                false
            in
            if admitted then begin
              let fatal = ref None in
              let served = ref 0 in
              while
                !fatal = None
                && !served < opts.requests_per_round
                && not (Queue.is_empty slot.queue)
              do
                ignore (Queue.pop slot.queue);
                match Tenant.serve_one slot.tenant with
                | `Ok | `Recovered -> incr served
                | `Fatal reason ->
                  (* the in-flight request dies with the VM *)
                  shed slot "retired";
                  fatal := Some reason
              done;
              match !fatal with
              | Some reason -> handle_failure slot ~reason ~killed:false
              | None ->
                (* 4. Admission control: poll this tenant's own denial
                   counter (never the backend's — a neighbour's pressure
                   must not slow this tenant down). Denials during the
                   round mean the disk refused its offloads: back off
                   exponentially, and past the retry cap shed the backlog
                   rather than letting it rot. *)
                let d = Tenant.admission_denials slot.tenant in
                if d > slot.last_denials then begin
                  slot.last_denials <- d;
                  slot.pressure_retries <- slot.pressure_retries + 1;
                  if slot.pressure_retries > opts.admission_retry_cap then begin
                    while not (Queue.is_empty slot.queue) do
                      ignore (Queue.pop slot.queue);
                      shed slot "retries"
                    done;
                    slot.pressure_retries <- 0;
                    slot.backoff_level <- 0
                  end
                  else begin
                    let b =
                      min opts.admission_backoff_ceiling
                        (opts.admission_backoff_base
                        * (1 lsl min slot.backoff_level 20))
                    in
                    slot.backoff_until <- r + b;
                    slot.backoff_level <- slot.backoff_level + 1
                  end
                end
                else begin
                  slot.pressure_retries <- 0;
                  slot.backoff_level <- 0
                end
            end
          end
        end)
      slots;
    (* 5. Checkpoint cadence: every [checkpoint_rounds] rounds each
       ready tenant's controller brain is framed and stored with its
       supervisor. A pending [Torn_checkpoint] fault damages the next
       frame(s) written — torn short or bit-flipped, alternating
       deterministically — which the next warm restart must detect. *)
    if (not (Lp_super.Breaker.is_open breaker)) && r mod opts.checkpoint_rounds = 0
    then
      Array.iteri
        (fun i slot ->
          if (not (Tenant.retired slot.tenant)) && slot.ready then begin
            let frame =
              Lp_super.Checkpoint.encode ~round:r
                (Tenant.export_brain slot.tenant)
            in
            let frame =
              if !torn_pending > 0 then begin
                torn_pending := !torn_pending - 1;
                let len = Bytes.length frame in
                if (r + i) mod 2 = 0 then
                  Lp_super.Checkpoint.tear frame ~keep:(len / 2)
                else Lp_super.Checkpoint.corrupt frame ~pos:(len / 2)
              end
              else frame
            in
            Lp_super.Supervisor.store_checkpoint slot.super ~round:r frame;
            Lp_obs.Sink.emit sink
              (Lp_obs.Event.Checkpoint_saved
                 {
                   tenant = tenant_id slot;
                   round = r;
                   bytes = Bytes.length frame;
                 })
          end)
        slots;
    (* 6. Storm detection: too many distinct tenants restarting inside
       the breaker window trips a fleet-wide serving pause. *)
    if Lp_super.Breaker.should_trip breaker ~round:r then begin
      let restarted = Lp_super.Breaker.distinct_restarted breaker ~round:r in
      Lp_super.Breaker.trip breaker ~round:r;
      Lp_obs.Sink.emit sink
        (Lp_obs.Event.Breaker_tripped { round = r; restarted; tenants = n })
    end
  done;
  round := opts.rounds + 1;
  close_pressure ();
  let tenant_reports =
    Array.to_list
      (Array.map
         (fun slot ->
           let s = Tenant.finish slot.tenant in
           let sp = Tenant.spec slot.tenant in
           {
             tenant = sp.Tenant.id;
             name = sp.Tenant.name;
             workload = sp.Tenant.workload.Lp_workloads.Workload.name;
             arrived = slot.arrived;
             served = s.Tenant.served;
             recovered = s.Tenant.recovered;
             shed_queue = slot.shed_queue;
             shed_deadline = slot.shed_deadline;
             shed_retries = slot.shed_retries;
             shed_retired = slot.shed_retired;
             restarts = s.Tenant.restarts;
             warm_restarts = s.Tenant.warm_restarts;
             cold_restarts = s.Tenant.cold_restarts;
             checkpoint_fallbacks = slot.checkpoint_fallbacks;
             kills = s.Tenant.kills;
             crashes = s.Tenant.crashes;
             retired = s.Tenant.retired;
             gc_count = s.Tenant.gc_count;
             bytes_reclaimed = s.Tenant.bytes_reclaimed;
             references_poisoned = s.Tenant.references_poisoned;
             resurrections = s.Tenant.resurrections;
             safe_entries = s.Tenant.safe_entries;
             mispredictions = s.Tenant.mispredictions;
             verifier_checks = s.Tenant.verifier_checks;
             verifier_failures = s.Tenant.verifier_failures;
             pruned_edge_types = s.Tenant.pruned_edge_types;
             quota_bytes = sp.Tenant.quota_bytes;
             disk_bytes_final = s.Tenant.disk_bytes_final;
             admission_denials = s.Tenant.admission_denials;
             images_valid = s.Tenant.images_valid;
             images_corrupt = s.Tenant.images_corrupt;
           })
         slots)
  in
  let timings =
    Array.to_list
      (Array.map
         (fun slot ->
           let samples = Tenant.pause_samples slot.tenant in
           {
             t_tenant = tenant_id slot;
             pause_count = List.length samples;
             pause_p50_ns = Lp_obs.Aggregate.percentile samples ~p:50.;
             pause_p99_ns = Lp_obs.Aggregate.percentile samples ~p:99.;
             pause_max_ns = Lp_obs.Aggregate.percentile samples ~p:100.;
           })
         slots)
  in
  let metrics =
    Lp_obs.Aggregate.merge
      (List.concat_map
         (fun slot -> Tenant.metrics_snapshots slot.tenant)
         (Array.to_list slots))
  in
  {
    seed = opts.seed;
    rounds = opts.rounds;
    tenant_reports;
    faults_fired = Lp_fault.Fault_plan.fired_count plan;
    breaker_trips = Lp_super.Breaker.trips breaker;
    backend_capacity = Lp_runtime.Diskswap.backend_capacity backend;
    backend_used_bytes = Lp_runtime.Diskswap.backend_used_bytes backend;
    backend_denials = Lp_runtime.Diskswap.backend_denials backend;
    metrics;
    timings;
    events = Lp_obs.Sink.events sink;
    events_dropped = Lp_obs.Sink.dropped sink;
  }

let failed (r : report) =
  List.exists
    (fun t -> t.verifier_failures > 0 || t.crashes > 0)
    r.tenant_reports

(* The deterministic view: everything except wall-clock timings and the
   merged metrics (whose pause histograms carry wall time). Two runs
   with the same seed, specs and schedule must render identically. *)
let render_tenant (t : tenant_report) =
  Printf.sprintf
    "tenant %d %s (%s): arrived=%d served=%d recovered=%d \
     shed=[queue:%d deadline:%d retries:%d retired:%d] restarts=%d \
     (warm:%d cold:%d fallbacks:%d kills:%d crashes:%d)%s gc=%d \
     reclaimed=%dB poisoned=%d resurrected=%d safe=%d mispredict=%d \
     verifier=%d/%d pruned=[%s] disk=%d/%dB denials=%d \
     recovery=[valid:%d corrupt:%d]"
    t.tenant t.name t.workload t.arrived t.served t.recovered t.shed_queue
    t.shed_deadline t.shed_retries t.shed_retired t.restarts t.warm_restarts
    t.cold_restarts t.checkpoint_fallbacks t.kills t.crashes
    (if t.retired then " RETIRED" else "")
    t.gc_count t.bytes_reclaimed t.references_poisoned t.resurrections
    t.safe_entries t.mispredictions t.verifier_failures t.verifier_checks
    (String.concat ", "
       (List.map (fun (a, b) -> a ^ "->" ^ b) t.pruned_edge_types))
    t.disk_bytes_final t.quota_bytes t.admission_denials t.images_valid
    t.images_corrupt

let deterministic_view (r : report) =
  String.concat "\n"
    (Printf.sprintf
       "fleet seed=%d rounds=%d faults=%d breaker_trips=%d backend_used=%d \
        denials=%d"
       r.seed r.rounds r.faults_fired r.breaker_trips r.backend_used_bytes
       r.backend_denials
    :: List.map render_tenant r.tenant_reports)

let render (r : report) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (deterministic_view r);
  Buffer.add_char b '\n';
  List.iter
    (fun t ->
      Buffer.add_string b
        (Printf.sprintf "tenant %d pauses: n=%d p50=%dns p99=%dns max=%dns\n"
           t.t_tenant t.pause_count t.pause_p50_ns t.pause_p99_ns t.pause_max_ns))
    r.timings;
  Buffer.add_string b
    (Printf.sprintf "events=%d dropped=%d\n" (List.length r.events)
       r.events_dropped);
  Buffer.contents b
