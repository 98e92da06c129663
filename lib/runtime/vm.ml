open Lp_heap

type gc_record = {
  gc_number : int;
  live_bytes_after : int;
  state : Lp_core.State_kind.t;
}

type t = {
  registry : Class_registry.t;
  store : Store.t;
  roots : Roots.t;
  stats : Gc_stats.t;
  controller : Lp_core.Controller.t;
  cost : Cost.t;
  charge_barriers : bool;
  swap : Diskswap.t;
  offload : bool;  (* user configured the disk-offload baseline *)
  resurrection : Resurrection.t option;
  finalizers : (int, Heap_obj.t -> unit) Hashtbl.t;
  statics_objects : (string, Heap_obj.t) Hashtbl.t;
  main_thread : Roots.thread;
  nursery_limit : int option;
  remset : Remset.t;
  fault : Lp_fault.Fault_plan.t option;
  autopilot : Lp_slo.Autopilot.t option;
  mutable gc_pause_ns : int;  (* wall time inside full collections *)
  (* phase-tagged wall-clock pause samples, oldest first: one int per
     sample ([pause_code]) *)
  pauses : Work_queue.t;
  pause_hist : Lp_obs.Metrics.histogram;
  mutable corruptions_injected : int;
  mutable minor_collections : int;
  mutable cycles : int;
  mutable gc_cycles : int;
  mutable gc_listener : (gc_record -> unit) option;
  (* the collection history, oldest first: two ints per collection
     ([push_history]) *)
  history : Work_queue.t;
  (* Observability plane: the metrics registry is always on (counter and
     gauge updates are field writes); the event sink is attached on
     demand by [enable_trace] and every emission site is guarded by one
     branch on [sink]. *)
  metrics : Lp_obs.Metrics.t;
  live_bytes_gauge : Lp_obs.Metrics.gauge;
  mutable sink : Lp_obs.Sink.t option;
}

(* The budget an armed pause SLO starts from (the autopilot needs
   slices to measure and retune), and the object-count floor it never
   tunes below, so a slice stays meaningful however slow the host. *)
let slo_initial_slice_budget = 256
let slo_min_slice_budget = 32

let create ?(config = Lp_core.Config.default) ?(cost = Cost.default)
    ?(charge_barriers = true) ?disk ?swap_backend ?(resurrection = false)
    ?nursery_bytes ?fault ~heap_bytes () =
  (match nursery_bytes with
  | Some n when n <= 0 || n >= heap_bytes ->
    invalid_arg "Vm.create: nursery_bytes must be in (0, heap_bytes)"
  | Some _ | None -> ());
  (match Lp_core.Config.validate config with
  | Error msg -> invalid_arg ("Vm.create: " ^ msg)
  | Ok _ -> ());
  let registry = Class_registry.create () in
  let roots = Roots.create () in
  let store = Store.create ~limit_bytes:heap_bytes in
  let metrics = Lp_obs.Metrics.create () in
  (* The VM always owns a swap store: the resurrection subsystem keeps
     prune images there even when the disk-offload baseline is off (in
     which case the "disk" is unbounded — image retention, not a byte
     limit, bounds it). *)
  let offload = disk <> None in
  let swap =
    Diskswap.create ~metrics ?backend:swap_backend
      (match disk with
      | Some config -> config
      | None -> Diskswap.default_config ~disk_limit_bytes:max_int)
  in
  (* Thread the fault plan's trigger points through the layers that own
     them: the store consults the Alloc site, the disk the Disk site,
     and every swap-image write the Swap site. (The Step site belongs to
     the chaos harness.) *)
  (match fault with
  | Some plan ->
    Store.set_alloc_fault store
      (Some
         (fun () ->
           List.mem Lp_fault.Fault_plan.Refuse_alloc
             (Lp_fault.Fault_plan.check plan Lp_fault.Fault_plan.Alloc)));
    if offload then
      Diskswap.set_fault_hook swap
        (Some
           (fun () ->
             List.mem Lp_fault.Fault_plan.Disk_failure
               (Lp_fault.Fault_plan.check plan Lp_fault.Fault_plan.Disk)));
    Diskswap.set_image_fault_hook swap
      (Some
         (fun image ->
           (* visit count doubles as a deterministic corruption offset *)
           let visit = Lp_fault.Fault_plan.visits plan Lp_fault.Fault_plan.Swap in
           List.fold_left
             (fun image -> function
               | Lp_fault.Fault_plan.Corrupt_image ->
                 Swap_image.corrupt image ~pos:visit
               | Lp_fault.Fault_plan.Torn_write ->
                 Swap_image.tear image ~keep:(Bytes.length image / 2)
               | Lp_fault.Fault_plan.Refuse_alloc | Lp_fault.Fault_plan.Disk_failure
               | Lp_fault.Fault_plan.Corrupt_word | Lp_fault.Fault_plan.Kill_thread
               | Lp_fault.Fault_plan.Kill_tenant
               | Lp_fault.Fault_plan.Disk_pressure
               | Lp_fault.Fault_plan.Kill_storm
               | Lp_fault.Fault_plan.Torn_checkpoint
                 -> image)
             image
             (Lp_fault.Fault_plan.check plan Lp_fault.Fault_plan.Swap)))
  | None -> ());
  let autopilot =
    Option.map
      (fun target_p99_ns ->
        Lp_slo.Autopilot.create ~target_p99_ns ~floor:slo_min_slice_budget
          ~init_budget:slo_initial_slice_budget)
      config.Lp_core.Config.pause_slo_p99_ns
  in
  (* The collector behind every full collection: one pause per
     collection, or slices when the pause SLO is armed. The controller
     owns it, and the autopilot retunes its budget through
     [Controller.engine]. *)
  let slice_budget =
    Option.map (fun _ -> slo_initial_slice_budget) autopilot
  in
  let controller =
    Lp_core.Controller.create ~metrics
      ~engine:(Collector.create ?slice_budget ())
      config registry
  in
  let stats = Gc_stats.create () in
  {
    registry;
    store;
    roots;
    stats;
    controller;
    cost;
    charge_barriers;
    swap;
    offload;
    resurrection =
      (if resurrection then
         Some (Resurrection.create ~store ~swap ~controller ~stats)
       else None);
    finalizers = Hashtbl.create 64;
    statics_objects = Hashtbl.create 16;
    main_thread = Roots.spawn_thread roots;
    nursery_limit = nursery_bytes;
    remset = Remset.create ();
    fault;
    autopilot;
    gc_pause_ns = 0;
    pauses = Work_queue.create ~capacity:16 ();
    pause_hist = Lp_obs.Metrics.histogram metrics "gc.pause_ns";
    corruptions_injected = 0;
    minor_collections = 0;
    cycles = 0;
    gc_cycles = 0;
    gc_listener = None;
    history = Work_queue.create ~capacity:16 ();
    metrics;
    live_bytes_gauge = Lp_obs.Metrics.gauge metrics "heap.live_bytes";
    sink = None;
  }

let store t = t.store
let roots t = t.roots
let registry t = t.registry
let stats t = t.stats
let controller t = t.controller
let cost t = t.cost
let swap t = t.swap

let[@inline] offloading t = t.offload

(* Publishing the collector's counters on demand keeps the hot mutable
   record as the collector's working representation while every snapshot
   still sees up-to-date gc.* values. The staleness histogram is read
   from the headers here too, so no collection pays for a walk that
   only a snapshot reads. *)
let metrics_snapshot t =
  Gc_stats.publish t.stats t.metrics;
  Array.iteri
    (fun k n ->
      Lp_obs.Metrics.set_gauge
        (Lp_obs.Metrics.gauge t.metrics
           (Printf.sprintf "gc.staleness_histogram.%d" k))
        n)
    (Store.staleness_histogram t.store);
  Lp_obs.Metrics.snapshot t.metrics

(* annotated so the barrier's disabled-sink guard compiles to a field
   load and branch at every emission site, never an out-of-line call *)
let[@inline] sink t = t.sink

let enable_trace ?capacity t =
  let s = Lp_obs.Sink.create ?capacity ~clock:(fun () -> t.cycles) () in
  t.sink <- Some s;
  Lp_core.Controller.set_sink t.controller (Some s);
  Diskswap.set_sink t.swap (Some s);
  s

let trace_events t =
  match t.sink with Some s -> Lp_obs.Sink.events s | None -> []

let resurrection_enabled t = Option.is_some t.resurrection
let charge_barriers t = t.charge_barriers

let autopilot t = t.autopilot

let gc_pause_ns t = t.gc_pause_ns

(* A pause sample packs its nanoseconds and its phase tag in one int,
   [ns lsl 2 lor tag]; an arithmetic shift gives the nanoseconds back,
   negative ones included. *)
let pause_code (phase, ns) =
  (ns lsl 2)
  lor
  match phase with
  | Trace_engine.Mark_slice -> 0
  | Trace_engine.Sweep_slice -> 1
  | Trace_engine.Monolithic -> 2

let pause_ns code = code asr 2

let pause_phase code =
  match code land 3 with
  | 0 -> Trace_engine.Mark_slice
  | 1 -> Trace_engine.Sweep_slice
  | _ -> Trace_engine.Monolithic

let push_pause t sample = Work_queue.push t.pauses (pause_code sample)

let pause_samples t =
  List.init (Work_queue.length t.pauses) (fun i ->
      let c = Work_queue.get t.pauses i in
      (pause_phase c, pause_ns c))

let pause_samples_ns t =
  List.init (Work_queue.length t.pauses) (fun i ->
      pause_ns (Work_queue.get t.pauses i))

(* The engine holds nothing to release; kept because the benchmark in
   perfbench/ calls it. *)
let shutdown (_ : t) = ()

let remset t = t.remset
let fault_plan t = t.fault
let corruptions_injected t = t.corruptions_injected

let register_class t name = Class_registry.register t.registry name

let spawn_thread t = Roots.spawn_thread t.roots

let kill_thread t thread = Roots.kill_thread t.roots thread

let deref t id = Store.get t.store id

let charge t n = t.cycles <- t.cycles + n

let work t n =
  if n < 0 then invalid_arg "Vm.work";
  charge t n

let cycles t = t.cycles

let gc_cycles t = t.gc_cycles

let gc_count t = t.stats.Gc_stats.collections

let minor_gc_count t = t.minor_collections

let generational t = t.nursery_limit <> None

let remember_write t ~src ~field ~tgt =
  if
    t.nursery_limit <> None
    && (not (Header.in_nursery (Store.header t.store (Heap_obj.index src))))
    && Header.in_nursery (Store.header t.store (Heap_obj.index tgt))
  then begin
    charge t t.cost.Cost.write_barrier;
    Remset.add t.remset ~src_id:(Heap_obj.index src) ~field
  end

let run_minor_gc t =
  t.minor_collections <- t.minor_collections + 1;
  let r =
    Minor_collector.collect ?events:t.sink ~number:t.minor_collections t.store
      t.roots ~remset:t.remset
  in
  let minor_cost =
    (r.Minor_collector.slots_scanned * t.cost.Cost.gc_minor_slot)
    + (r.Minor_collector.promoted_objects * t.cost.Cost.gc_minor_promote)
    + (r.Minor_collector.freed_objects * t.cost.Cost.gc_minor_sweep)
  in
  t.cycles <- t.cycles + minor_cost;
  t.gc_cycles <- t.gc_cycles + minor_cost

let set_gc_listener t listener = t.gc_listener <- listener

(* A collection's history entry is two ints: its number, then
   [live lsl 3 lor state] with the state's code ([State_kind.to_int]) in
   the low three bits; an arithmetic shift gives the bytes back. *)
let push_history t ~gc_number ~live ~state =
  Work_queue.push t.history gc_number;
  Work_queue.push t.history ((live lsl 3) lor Lp_core.State_kind.to_int state)

let gc_history t =
  List.init (Work_queue.length t.history / 2) (fun i ->
      let code = Work_queue.get t.history ((2 * i) + 1) in
      {
        gc_number = Work_queue.get t.history (2 * i);
        live_bytes_after = code asr 3;
        state = Option.get (Lp_core.State_kind.of_int (code land 7));
      })

let live_bytes t =
  Store.live_bytes t.store
  - (if t.offload then Diskswap.resident_bytes t.swap else 0)

let used_bytes t = Store.used_bytes t.store

(* The raise lives out of line so the check itself inlines into the
   barriers: a bounds test, a header load, a generation load and an
   integer comparison with the handle's generation. *)
let[@inline never] dangling (obj : Heap_obj.t) =
  raise (Store.Dangling_reference (Heap_obj.index obj))

let[@inline] assert_live t (obj : Heap_obj.t) =
  if not (Store.is_live t.store obj) then dangling obj

let run_finalizer t (obj : Heap_obj.t) =
  match Hashtbl.find_opt t.finalizers (Heap_obj.index obj) with
  | Some f ->
    Hashtbl.remove t.finalizers (Heap_obj.index obj);
    f obj
  | None -> ()

let collect_once t =
  let on_poison, before_sweep =
    match t.resurrection with
    | Some r ->
      let on_poison, before_sweep = Resurrection.capture_hooks r in
      (Some on_poison, Some before_sweep)
    | None -> (None, None)
  in
  (* Only an object allocated with a finalizer can be pending
     finalization, and it keeps its table entry until the finalizer
     runs, so an empty table lets the collection skip the finalizer
     pass (a whole-heap walk). *)
  let on_finalize =
    if Hashtbl.length t.finalizers = 0 then None else Some (run_finalizer t)
  in
  Lp_core.Controller.collect ?on_finalize ?on_poison ?before_sweep
    t.controller t.store t.roots ~stats:t.stats;
  Option.iter Resurrection.retain t.resurrection;
  if t.nursery_limit <> None then begin
    (* a full-heap collection empties the nursery: every survivor is
       mature afterwards *)
    Store.promote_all t.store;
    Remset.clear t.remset
  end

(* The out-of-memory error to throw now. Once pruning has engaged this
   is the recorded deferred error (Section 2), so the thrown error and
   the cause carried by poisoned-access internal errors are the same
   exception. *)
let oom_error t =
  match Lp_core.Controller.averted_error t.controller with
  | Some e -> e
  | None ->
    Lp_core.Errors.out_of_memory ~gc_count:t.stats.Gc_stats.collections
      ~used_bytes:(Store.used_bytes t.store)
      ~limit_bytes:(Store.limit_bytes t.store)

(* The slow paths' bounds. [disk_retry_attempts]: degraded
   re-collections (offloading disabled) after the disk-swap baseline
   reports [Out_of_disk], before the structured [Disk_exhausted] is
   thrown. [disk_baseline_retries]: retry collections one allocation
   gets under the disk-only baseline. [max_slow_path_attempts]:
   collections one allocation may trigger while advancing through the
   SELECT/PRUNE protocol, and store refusals it may absorb, before the
   out-of-memory error is thrown. *)
let disk_retry_attempts = 2

let disk_baseline_retries = 4

let max_slow_path_attempts = 24

(* The post-collection disk operation can fail — for real (residency
   over the disk limit) or through an injected fault. Rather than
   crashing the VM, degrade: re-collect (another collection lets pruning
   advance and kills garbage whose disk space [reconcile] then releases)
   and retry with offloading disabled, a bounded number of times. Only
   when the bounded policy fails does the structured error surface. *)
let run_disk_phase t d =
  let rec attempt n =
    try Diskswap.after_gc ~allow_offload:(n = 0) d t.store
    with Diskswap.Out_of_disk { resident_bytes; limit_bytes } ->
      if n >= disk_retry_attempts then
        raise
          (Lp_core.Errors.disk_exhausted ~resident_bytes ~limit_bytes ~retries:n
             ~gc_count:t.stats.Gc_stats.collections)
      else begin
        collect_once t;
        attempt (n + 1)
      end
  in
  attempt 0

let run_gc t =
  let before = Gc_stats.copy t.stats in
  let gc_n = t.stats.Gc_stats.collections + 1 in
  (match t.sink with
  | Some s ->
    Lp_obs.Sink.emit s
      (Lp_obs.Event.Gc_begin
         {
           gc = gc_n;
           state =
             Lp_core.State_kind.to_string (Lp_core.Controller.state t.controller);
         })
  | None -> ());
  let pause_start = Unix.gettimeofday () in
  collect_once t;
  if t.offload then run_disk_phase t t.swap;
  let total_ns =
    int_of_float ((Unix.gettimeofday () -. pause_start) *. 1e9)
  in
  t.gc_pause_ns <- t.gc_pause_ns + total_ns;
  (* Pause samples: a sliced engine reports one phase-tagged sample
     per slice; whatever the collection spent outside those slices
     (finalizer scan, phase glue, disk) is folded into the LAST slice
     rather than reported as a separate sample — so [Monolithic] is
     reserved for whole-collection pauses from unbudgeted engines, and
     "no Monolithic sample" is exactly the statement that every pause
     was slice-bounded. An unbudgeted engine contributes the whole
     collection as one [Monolithic] sample. *)
  let samples =
    match Collector.take_pauses (Lp_core.Controller.engine t.controller) with
    | [] -> [ (Trace_engine.Monolithic, total_ns) ]
    | slices -> (
      let in_slices = List.fold_left (fun acc (_, ns) -> acc + ns) 0 slices in
      let rem = max 0 (total_ns - in_slices) in
      match List.rev slices with
      | (ph, last) :: tl -> List.rev ((ph, last + rem) :: tl)
      | [] -> assert false)
  in
  List.iter (push_pause t) samples;
  List.iter (fun (_, ns) -> Lp_obs.Metrics.observe t.pause_hist ns) samples;
  let gc_cost =
    Cost.gc_cost t.cost ~before ~after:t.stats
    + (Roots.root_count t.roots * t.cost.Cost.gc_root)
  in
  t.cycles <- t.cycles + gc_cost;
  t.gc_cycles <- t.gc_cycles + gc_cost;
  let live = live_bytes t in
  Lp_obs.Metrics.set_gauge t.live_bytes_gauge live;
  let gc_number = t.stats.Gc_stats.collections in
  let state = Lp_core.Controller.state t.controller in
  (match t.sink with
  | Some s ->
    Lp_obs.Sink.emit s
      (Lp_obs.Event.Gc_end
         {
           gc = gc_n;
           state = Lp_core.State_kind.to_string state;
           live_bytes = live;
           reclaimed_bytes =
             t.stats.Gc_stats.bytes_reclaimed - before.Gc_stats.bytes_reclaimed;
         })
  | None -> ());
  push_history t ~gc_number ~live ~state;
  (* Autopilot step, between collections: feed this collection's
     tagged samples, get the next collection's budget. The budget is
     wall-clock-fed (non-deterministic) and outcome-neutral. *)
  (match t.autopilot with
  | Some ap ->
    let d = Lp_slo.Autopilot.note_collection ap ~samples in
    if d.Lp_slo.Autopilot.d_budget_changed then (
      match t.sink with
      | Some s ->
        Lp_obs.Sink.emit s
          (Lp_obs.Event.Slo_adjust
             {
               gc = gc_n;
               budget = d.Lp_slo.Autopilot.d_budget;
               p99_ns = d.Lp_slo.Autopilot.d_p99_ns;
             })
      | None -> ());
    Collector.set_slice_budget
      (Lp_core.Controller.engine t.controller)
      d.Lp_slo.Autopilot.d_budget
  | None -> ());
  match t.gc_listener with
  | Some f -> f { gc_number; live_bytes_after = live; state }
  | None -> ()

(* The allocation slow path: collect, then keep advancing through the
   controller's SELECT/PRUNE protocol while it reports progress is
   possible. Under the disk baseline the post-collection offload is the
   only recourse, so only [disk_baseline_retries] retry collections are
   granted. [attempts] bounds the retries for one allocation: if the
   collector cannot free the request within
   [max_slow_path_attempts] collections the VM has ground to a
   halt and the out-of-memory error is thrown (a forced state, for
   example, can never prune). *)
let rec alloc_slow_path t size attempts =
  run_gc t;
  if Store.would_overflow t.store size then begin
    let config = Lp_core.Controller.config t.controller in
    let pruning_active =
      config.Lp_core.Config.policy <> Lp_core.Policy.None_
      && config.Lp_core.Config.force_state = None
    in
    match t.offload with
    | true when not pruning_active ->
      (* Disk-only baseline: the post-collection offload is the only
         recourse. The retry collections let staleness reach the
         offload threshold (counters only move at collections); after
         that, a failure is fatal. *)
      if attempts < disk_baseline_retries then
        alloc_slow_path t size (attempts + 1)
      else raise (oom_error t)
    | true | false ->
      if attempts >= max_slow_path_attempts then
        raise (oom_error t)
      else begin
        match
          Lp_core.Controller.on_allocation_failure t.controller t.store
            ~requested:size
        with
        | `Retry -> alloc_slow_path t size (attempts + 1)
        | `Out_of_memory e -> raise e
      end
  end

(* Every allocation the fast path below does not take: a nursery (the
   minor-collection check), an armed allocation fault or a request that
   does not fit in the headroom. *)
let[@inline never] alloc_class_slow t ~class_id ~scalar_bytes ~finalizable
    ~n_fields size =
  (match t.nursery_limit with
  | Some limit when Store.nursery_bytes t.store + size > limit -> run_minor_gc t
  | Some _ | None -> ());
  (* The store can refuse even after the headroom check said yes (an
     injected allocation fault); each refusal buys the slow path another
     go, bounded like the slow path itself. *)
  let rec obtain refusals =
    if Store.would_overflow t.store size then alloc_slow_path t size 0;
    match
      Store.alloc_generation t.store ~nursery:(t.nursery_limit <> None) ~class_id
        ~n_fields ~scalar_bytes ~finalizable
    with
    | obj -> obj
    | exception Store.Heap_full _ ->
      if refusals >= max_slow_path_attempts then raise (oom_error t)
      else begin
        run_gc t;
        obtain (refusals + 1)
      end
  in
  obtain 0

let alloc_class t ~class_id ?(scalar_bytes = 0) ?finalizer ~n_fields () =
  let size = Heap_obj.size_of ~n_fields ~scalar_bytes in
  charge t (t.cost.Cost.alloc + (t.cost.Cost.alloc_per_word * (size / Heap_obj.word_size)));
  let finalizable = match finalizer with Some _ -> true | None -> false in
  let obj =
    match t.nursery_limit with
    | None when Store.fits t.store size ->
      Store.place t.store ~nursery:false ~class_id ~n_fields ~finalizable ~size
    | Some _ | None ->
      alloc_class_slow t ~class_id ~scalar_bytes ~finalizable ~n_fields size
  in
  (match finalizer with
  | Some f -> Hashtbl.replace t.finalizers (Heap_obj.index obj) f
  | None -> ());
  obj

let alloc t ~class_name ?scalar_bytes ?finalizer ~n_fields () =
  let class_id = register_class t class_name in
  alloc_class t ~class_id ?scalar_bytes ?finalizer ~n_fields ()

let statics t ~class_name ~n_fields =
  match Hashtbl.find_opt t.statics_objects class_name with
  | Some obj ->
    let registered = Store.n_fields t.store (Heap_obj.index obj) in
    if registered <> n_fields then
      invalid_arg
        (Printf.sprintf "Vm.statics: %s registered with %d fields, requested %d"
           class_name registered n_fields);
    obj
  | None ->
    let obj = alloc t ~class_name:(class_name ^ "$Statics") ~n_fields () in
    Store.set_header t.store (Heap_obj.index obj)
      (Header.set_statics_container (Store.header t.store (Heap_obj.index obj)));
    Roots.add_static_root t.roots (Heap_obj.index obj);
    Hashtbl.replace t.statics_objects class_name obj;
    obj

(* Fault injection: deliberately damage one reference word of a live
   object. The injection counter keeps the heap verifier's poison
   accounting closed — every poisoned or dangling word in the heap must
   be explained by pruning, quarantine, or an injection. *)
let inject_word_corruption t (obj : Heap_obj.t) ~field mode =
  let id = Heap_obj.index obj in
  if field < 0 || field >= Store.n_fields t.store id then
    invalid_arg "Vm.inject_word_corruption: field out of range";
  t.corruptions_injected <- t.corruptions_injected + 1;
  Store.set_field t.store id field
    (match mode with
    | `Poison ->
      let w = Store.field t.store id field in
      Word.poison (if Word.is_null w then Word.of_id id else w)
    | `Retarget target -> Word.of_id target
    | `Dangle ->
      (* An identifier far past the allocation frontier: dead now, and
         it stays dead until thousands of fresh allocations pass it. *)
      Word.of_id (Store.next_fresh_id t.store + 4096))

(* Charged before the recovery runs, so the collections its
   re-allocation retries run are stamped after the charge. *)
let try_resurrect t src ~field =
  charge t t.cost.Cost.resurrect;
  Resurrection.restore (Option.get t.resurrection)
    ~collect:(fun () -> run_gc t) src ~field

let with_frame t ?thread ~n_slots f =
  let thread = match thread with Some th -> th | None -> t.main_thread in
  let frame = Roots.push_frame thread ~n_slots in
  Fun.protect ~finally:(fun () -> Roots.pop_frame thread) (fun () -> f frame)
