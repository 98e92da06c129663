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
  warm_boot : bool;  (* adopted a previous incarnation's swap store *)
  resurrection : bool;
  finalizers : (int, Heap_obj.t -> unit) Hashtbl.t;
  statics_objects : (string, Heap_obj.t) Hashtbl.t;
  main_thread : Roots.thread;
  nursery_limit : int option;
  remset : Remset.t;
  fault : Lp_fault.Fault_plan.t option;
  autopilot : Lp_slo.Autopilot.t option;
  mutable gc_pause_ns : int;  (* wall time inside full collections *)
  (* phase-tagged wall-clock pause samples, oldest first: one int per
     sample ([pause_code]) in the first [pause_len] slots, the buffer
     doubling when full *)
  mutable pause_buf : int array;
  mutable pause_len : int;
  pause_hist : Lp_obs.Metrics.histogram;
  mutable corruptions_injected : int;
  mutable minor_collections : int;
  mutable cycles : int;
  mutable gc_cycles : int;
  mutable gc_listener : (gc_record -> unit) option;
  (* the collection history, oldest first: two ints per collection
     ([push_history]) in the first [history_len] slots, the buffer
     doubling when full *)
  mutable history_buf : int array;
  mutable history_len : int;
  (* Observability plane: the metrics registry is always on (counter and
     gauge updates are field writes); the event sink is attached on
     demand by [enable_trace] and every emission site is guarded by one
     branch on [sink]. *)
  metrics : Lp_obs.Metrics.t;
  staleness_series : Lp_obs.Metrics.series;
  (* interned by the first full collection, so a snapshot taken before
     one holds no heap.live_bytes gauge *)
  mutable live_bytes_gauge : Lp_obs.Metrics.gauge option;
  mutable sink : Lp_obs.Sink.t option;
  (* The inputs of the last retention pass: its poisoned-target list and
     the swap store's generation once its drops were done. A pass with
     the same two inputs would keep every image and drop none, so it is
     skipped. Generation -1 is no memo: the first pass always runs. *)
  mutable retained_poisoned : int list;
  mutable retained_generation : int;
  (* The breadth-first walks of image capture and retention, one at a
     time: an id is seen in the current walk when its [walk_stamps]
     entry is [walk_epoch], and the walk's FIFO is the first
     [walk_len] ids of [walk_fifo]. Both arrays are reused and grow on
     demand: image references and forwards can name ids beyond the
     store's slots. *)
  mutable walk_stamps : int array;
  mutable walk_epoch : int;
  mutable walk_fifo : int array;
  mutable walk_len : int;
}

(* The budget an armed pause SLO starts from when the config sets
   none: the autopilot needs slices to measure and retune. *)
let slo_initial_slice_budget = 256

let create ?(config = Lp_core.Config.default) ?(cost = Cost.default)
    ?(charge_barriers = true) ?disk ?swap_backend ?swap_store
    ?(resurrection = false) ?nursery_bytes ?fault ?first_object_id ~heap_bytes
    () =
  (match nursery_bytes with
  | Some n when n <= 0 || n >= heap_bytes ->
    invalid_arg "Vm.create: nursery_bytes must be in (0, heap_bytes)"
  | Some _ | None -> ());
  (match Lp_core.Config.validate config with
  | Error msg -> invalid_arg ("Vm.create: " ^ msg)
  | Ok _ -> ());
  let registry = Class_registry.create () in
  let roots = Roots.create () in
  let store =
    match first_object_id with
    | Some first_id -> Store.create_at ~first_id ~limit_bytes:heap_bytes
    | None -> Store.create ~limit_bytes:heap_bytes
  in
  let metrics = Lp_obs.Metrics.create () in
  (* The VM always owns a swap store: the resurrection subsystem keeps
     prune images there even when the disk-offload baseline is off (in
     which case the "disk" is unbounded — image retention, not a byte
     limit, bounds it). A warm restart hands the previous incarnation's
     store in via [swap_store]; it arrives already recovered
     ([Diskswap.recover_warm]) and keeps its own config and backend, so
     [disk]/[swap_backend] only shape the offload flag in that case. *)
  let offload = disk <> None in
  let swap =
    match swap_store with
    | Some s ->
      Diskswap.rebind_metrics s metrics;
      s
    | None ->
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
  let slice_budget, autopilot =
    match config.Lp_core.Config.pause_slo_p99_ns with
    | Some target_p99_ns ->
      let budget =
        Option.value config.Lp_core.Config.gc_slice_budget
          ~default:slo_initial_slice_budget
      in
      ( Some budget,
        Some
          (Lp_slo.Autopilot.create ~target_p99_ns
             ~floor:config.Lp_core.Config.slo_budget_floor
             ~init_budget:budget) )
    | None -> (config.Lp_core.Config.gc_slice_budget, None)
  in
  (* The collector behind every full collection, built from
     Config.gc_slice_budget; the controller owns it, and the autopilot
     retunes its budget through [Controller.engine]. *)
  let controller =
    Lp_core.Controller.create ~metrics
      ~engine:(Collector.create ?slice_budget ())
      config registry
  in
  {
    registry;
    store;
    roots;
    stats = Gc_stats.create ();
    controller;
    cost;
    charge_barriers;
    swap;
    offload;
    warm_boot = swap_store <> None;
    resurrection;
    finalizers = Hashtbl.create 64;
    statics_objects = Hashtbl.create 16;
    main_thread = Roots.spawn_thread roots;
    nursery_limit = nursery_bytes;
    remset = Remset.create ();
    fault;
    autopilot;
    gc_pause_ns = 0;
    pause_buf = Array.make 16 0;
    pause_len = 0;
    pause_hist = Lp_obs.Metrics.histogram metrics "gc.pause_ns";
    corruptions_injected = 0;
    minor_collections = 0;
    cycles = 0;
    gc_cycles = 0;
    gc_listener = None;
    history_buf = Array.make 16 0;
    history_len = 0;
    metrics;
    staleness_series =
      Lp_obs.Metrics.series metrics ~retain:16 "gc.staleness_histogram";
    live_bytes_gauge = None;
    sink = None;
    retained_poisoned = [];
    retained_generation = -1;
    walk_stamps = [||];
    walk_epoch = 0;
    walk_fifo = [||];
    walk_len = 0;
  }

let store t = t.store
let roots t = t.roots
let registry t = t.registry
let stats t = t.stats
let controller t = t.controller
let cost t = t.cost
let swap t = t.swap

let[@inline] offloading t = t.offload

let metrics t = t.metrics

(* Publishing the collector's counters on demand keeps the hot mutable
   record as the collector's working representation while every snapshot
   still sees up-to-date gc.* values. *)
let metrics_snapshot t =
  Gc_stats.publish t.stats t.metrics;
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

let resurrection_enabled t = t.resurrection
let warm_boot t = t.warm_boot
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

(* [buf], whose first [len] ints are in use, when it has room for
   another; else a copy of them in a buffer of twice the size. *)
let with_room buf len =
  if len < Array.length buf then buf
  else begin
    let grown = Array.make (2 * len) 0 in
    Array.blit buf 0 grown 0 len;
    grown
  end

let push_pause t sample =
  t.pause_buf <- with_room t.pause_buf t.pause_len;
  t.pause_buf.(t.pause_len) <- pause_code sample;
  t.pause_len <- t.pause_len + 1

let pause_samples t =
  List.init t.pause_len (fun i ->
      let c = t.pause_buf.(i) in
      (pause_phase c, pause_ns c))

let pause_samples_ns t =
  List.init t.pause_len (fun i -> pause_ns t.pause_buf.(i))

let max_pause_ns t =
  let m = ref 0 in
  for i = 0 to t.pause_len - 1 do
    m := max !m (pause_ns t.pause_buf.(i))
  done;
  !m

let max_slice_work t =
  Collector.max_slice_work (Lp_core.Controller.engine t.controller)

(* The engine holds nothing to release; kept because the benchmark in
   perfbench/ calls it. *)
let shutdown (_ : t) = ()

let remset t = t.remset
let fault_plan t = t.fault
let corruptions_injected t = t.corruptions_injected

let register_class t name = Class_registry.register t.registry name

let main_thread t = t.main_thread

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
    && (not (Header.in_nursery (Store.header t.store src.Heap_obj.id)))
    && Header.in_nursery (Store.header t.store tgt.Heap_obj.id)
  then begin
    charge t t.cost.Cost.write_barrier;
    Remset.add t.remset ~src_id:src.Heap_obj.id ~field
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
   [live lsl 3 lor state] with the state's constructor index in the low
   three bits; an arithmetic shift gives the bytes back. *)
let state_code = function
  | Lp_core.State_kind.Inactive -> 0
  | Lp_core.State_kind.Observe -> 1
  | Lp_core.State_kind.Select -> 2
  | Lp_core.State_kind.Prune -> 3
  | Lp_core.State_kind.Safe -> 4

let state_of_code = function
  | 0 -> Lp_core.State_kind.Inactive
  | 1 -> Lp_core.State_kind.Observe
  | 2 -> Lp_core.State_kind.Select
  | 3 -> Lp_core.State_kind.Prune
  | _ -> Lp_core.State_kind.Safe

(* The buffer's length stays even, so room for one int is room for
   the pair. *)
let push_history t ~gc_number ~live ~state =
  t.history_buf <- with_room t.history_buf t.history_len;
  t.history_buf.(t.history_len) <- gc_number;
  t.history_buf.(t.history_len + 1) <- (live lsl 3) lor state_code state;
  t.history_len <- t.history_len + 2

let gc_history t =
  List.init (t.history_len / 2) (fun i ->
      let code = t.history_buf.((2 * i) + 1) in
      {
        gc_number = t.history_buf.(2 * i);
        live_bytes_after = code asr 3;
        state = state_of_code (code land 7);
      })

let live_bytes t =
  Store.live_bytes t.store
  - (if t.offload then Diskswap.resident_bytes t.swap else 0)

let used_bytes t = Store.used_bytes t.store

(* The raise lives out of line so the check itself inlines into the
   barriers: a bounds test, a header load, a slot load and a physical
   equality. *)
let[@inline never] dangling (obj : Heap_obj.t) =
  raise (Store.Dangling_reference obj.Heap_obj.id)

let[@inline] assert_live t (obj : Heap_obj.t) =
  if not (Store.is_live t.store obj) then dangling obj

let run_finalizer t (obj : Heap_obj.t) =
  match Hashtbl.find_opt t.finalizers obj.Heap_obj.id with
  | Some f ->
    Hashtbl.remove t.finalizers obj.Heap_obj.id;
    f obj
  | None -> ()

let grown a ~past =
  let a' = Array.make (max (past + 1) (max 64 (2 * Array.length a))) 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* A new walk: nothing seen, nothing queued. *)
let start_walk t =
  t.walk_epoch <- t.walk_epoch + 1;
  t.walk_len <- 0

let walked t id =
  id < Array.length t.walk_stamps && t.walk_stamps.(id) = t.walk_epoch

let push t id =
  if id >= Array.length t.walk_stamps then
    t.walk_stamps <- grown t.walk_stamps ~past:id;
  if t.walk_stamps.(id) <> t.walk_epoch then begin
    t.walk_stamps.(id) <- t.walk_epoch;
    if t.walk_len = Array.length t.walk_fifo then
      t.walk_fifo <- grown t.walk_fifo ~past:t.walk_len;
    t.walk_fifo.(t.walk_len) <- id;
    t.walk_len <- t.walk_len + 1
  end

(* enqueue an identifier and, if it was forwarded (pruned then
   resurrected), the identifier it forwards to *)
let enqueue_ref t id =
  push t id;
  match Diskswap.resolve_forward t.swap id with
  | Some final -> push t final
  | None -> ()

(* The targets of every poisoned word in a marked object, in slot
   order. Taken between marking and the sweep: the marked set is exactly
   the heap the sweep leaves, and neither image capture nor the sweep
   writes a survivor's fields, so one scan serves both the capture
   before the sweep and the retention after it. The loops run over the
   slots and each object's fields from the top down, consing onto the
   front, so the list comes out in slot and field order with no
   reversal and no per-object closure. *)
let poisoned_targets t =
  let acc = ref [] in
  for id = Store.slot_count t.store downto 1 do
    let h = Store.header t.store id in
    if (not (Header.is_free h)) && Header.marked h then begin
      for i = Store.n_fields t.store id - 1 downto 0 do
        let w = Store.field t.store id i in
        if (not (Word.is_null w)) && Word.poisoned w then
          acc := Word.target w :: !acc
      done
    end
  done;
  !acc

(* An object this collection frees: live, but left unmarked. *)
let dying t id =
  let h = Store.header t.store id in
  (not (Header.is_free h)) && not (Header.marked h)

(* Whether [capture_images] would store nothing: its drain stores and
   follows dying objects only, so with no doomed id and no poisoned
   target (nor what it forwards to) dying, it ends where it starts. *)
let nothing_to_capture t ~doomed ~poisoned =
  doomed = []
  && List.for_all
       (fun id ->
         (not (dying t id))
         &&
         match Diskswap.resolve_forward t.swap id with
         | Some final -> not (dying t final)
         | None -> true)
       poisoned

(* Runs between marking and the sweep, when liveness is decided but the
   doomed objects are still intact: serialize a swap image of every
   dying object reachable from a freshly pruned edge or from a live
   poisoned word, so a later misprediction can be recovered. The walk
   is breadth first and takes ids in the order they were pushed, each
   once: that order fixes the order of the [Image_capture] events and
   which image write an injected Swap fault lands on. *)
let capture_images t ~doomed ~poisoned =
  if not (nothing_to_capture t ~doomed ~poisoned) then begin
    start_walk t;
    let follow = enqueue_ref t in
    List.iter follow doomed;
    List.iter follow poisoned;
    let next = ref 0 in
    while !next < t.walk_len do
      let id = t.walk_fifo.(!next) in
      incr next;
      if dying t id then begin
        if not (Diskswap.has_image t.swap id) then
          Diskswap.store_image t.swap ~id (Swap_image.capture t.store id);
        (* the whole unmarked subtree dies with it *)
        for i = 0 to Store.n_fields t.store id - 1 do
          let w = Store.field t.store id i in
          if not (Word.is_null w) then enqueue_ref t (Word.target w)
        done
      end
    done
  end

(* Post-sweep retention: keep exactly the images still reachable from a
   live poisoned word, directly or through reference words recorded in
   another retained image. Each image's references were decoded once
   when it was stored; a corrupt image that is still referenced is
   retained without being followed, so the eventual access reports the
   real failure instead of Image_missing. Everything else is released
   disk space.

   The keep set is a function of the poisoned targets, the forwarding
   table and the stored images with their memoised references; the
   last two change only where the swap store's generation moves. After
   a pass every stored image is in the keep set, and dropping images
   outside it does not change it, so a pass over the same poisoned list
   at the same generation would drop nothing: it is skipped. *)
let retain_images t ~poisoned =
  if
    Diskswap.generation t.swap <> t.retained_generation
    || not (List.equal Int.equal poisoned t.retained_poisoned)
  then begin
    start_walk t;
    let follow = enqueue_ref t in
    List.iter follow poisoned;
    let next = ref 0 in
    while !next < t.walk_len do
      let id = t.walk_fifo.(!next) in
      incr next;
      Diskswap.iter_image_refs t.swap id follow
    done;
    Diskswap.retain_images t.swap ~keep:(walked t);
    t.retained_poisoned <- poisoned;
    t.retained_generation <- Diskswap.generation t.swap
  end

let collect_once t =
  let doomed = ref [] in
  let poisoned = ref [] in
  let on_poison, before_sweep =
    if t.resurrection then
      ( Some
          (fun (e : Collector.edge) ->
            doomed := e.Collector.tgt :: !doomed),
        Some
          (fun () ->
            poisoned := poisoned_targets t;
            capture_images t ~doomed:!doomed ~poisoned:!poisoned) )
    else (None, None)
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
  if t.resurrection then retain_images t ~poisoned:!poisoned;
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

(* The per-collection staleness distribution, retained in the metrics
   registry so the last N collections' histograms survive (they used to
   be lost between collections). Counters saturate at
   [Header.max_stale], so the array has a bucket per level. Taken after
   the pause is timed, so it is no part of any pause sample. *)
let record_staleness_histogram t =
  Lp_obs.Metrics.record t.staleness_series (Store.staleness_histogram t.store)

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
  record_staleness_histogram t;
  let live = live_bytes t in
  let live_gauge =
    match t.live_bytes_gauge with
    | Some g -> g
    | None ->
      let g = Lp_obs.Metrics.gauge t.metrics "heap.live_bytes" in
      t.live_bytes_gauge <- Some g;
      g
  in
  Lp_obs.Metrics.set_gauge live_gauge live;
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
  | Some f -> Hashtbl.replace t.finalizers obj.Heap_obj.id f
  | None -> ());
  obj

let alloc t ~class_name ?scalar_bytes ?finalizer ~n_fields () =
  let class_id = register_class t class_name in
  alloc_class t ~class_id ?scalar_bytes ?finalizer ~n_fields ()

let statics t ~class_name ~n_fields =
  match Hashtbl.find_opt t.statics_objects class_name with
  | Some obj ->
    let registered = Store.n_fields t.store obj.Heap_obj.id in
    if registered <> n_fields then
      invalid_arg
        (Printf.sprintf "Vm.statics: %s registered with %d fields, requested %d"
           class_name registered n_fields);
    obj
  | None ->
    let obj = alloc t ~class_name:(class_name ^ "$Statics") ~n_fields () in
    Store.set_header t.store obj.Heap_obj.id
      (Header.set_statics_container (Store.header t.store obj.Heap_obj.id));
    Roots.add_static_root t.roots obj.Heap_obj.id;
    Hashtbl.replace t.statics_objects class_name obj;
    obj

(* Fault injection: deliberately damage one reference word of a live
   object. The injection counter keeps the heap verifier's poison
   accounting closed — every poisoned or dangling word in the heap must
   be explained by pruning, quarantine, or an injection. *)
let inject_word_corruption t (obj : Heap_obj.t) ~field mode =
  let id = obj.Heap_obj.id in
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

let resurrection_alloc_attempts = 4

(* Barrier-level recovery (the resurrection subsystem). Called by the
   read barrier when the program loads a poisoned reference and
   [resurrection] is enabled. On success the poisoned word in
   field [field] of [src] has been replaced by a clean reference to the
   restored object and the load can be retried. Re-allocating the
   object may run at most [resurrection_alloc_attempts] collections
   before the recovery fails with [Reallocation_exhausted]. *)
let try_resurrect t (src : Heap_obj.t) ~field =
  let src_id = src.Heap_obj.id in
  let target = Word.target (Store.field t.store src_id field) in
  charge t t.cost.Cost.resurrect;
  match Diskswap.resolve_forward t.swap target with
  | Some final when Store.mem t.store final ->
    (* a sibling reference already resurrected the object: rewire *)
    Store.set_field t.store src_id field (Word.of_id final);
    Ok (Store.get t.store final)
  | Some _ | None -> (
    match Diskswap.load_image t.swap target with
    | None when Store.mem t.store target ->
      (* The pruned edge's target survived through another live path, so
         no image was ever captured (capture only images dying objects)
         and the identifier cannot have been recycled: un-poison the
         word. Still a misprediction — the program used a pruned
         reference — so the edge type is protected all the same. *)
      let tgt = Store.get t.store target in
      Store.set_field t.store src_id field (Word.of_id target);
      Lp_core.Controller.note_misprediction t.controller
        ~src_class:(Store.class_of t.store src_id)
        ~tgt_class:(Store.class_of t.store target)
        ~stale:(Store.stale t.store target);
      Ok tgt
    | None -> Error Lp_core.Errors.Image_missing
    | Some bytes -> (
      match Swap_image.decode bytes with
      | Error reason -> Error reason
      | Ok image ->
        let n_fields = Array.length image.Swap_image.fields in
        let scalar_bytes = image.Swap_image.scalar_bytes in
        let size = Heap_obj.size_of ~n_fields ~scalar_bytes in
        (* bounded re-allocation through the collector: each retry runs a
           full collection, letting pruning (or plain reclamation) make
           room for the object coming back *)
        let rec obtain n =
          if Store.would_overflow t.store size then retry n
          else
            match
              Store.alloc_generation t.store ~nursery:false
                ~class_id:image.Swap_image.class_id ~n_fields ~scalar_bytes
                ~finalizable:false
            with
            | obj -> Ok obj
            | exception Store.Heap_full _ -> retry n
        and retry n =
          if n >= resurrection_alloc_attempts then
            Error
              (Lp_core.Errors.Reallocation_exhausted
                 { attempts = n; size_bytes = size })
          else begin
            run_gc t;
            obtain (n + 1)
          end
        in
        (match obtain 0 with
        | Error _ as e -> e
        | Ok obj ->
          (* Restore fields. A reference whose target still has a swap
             image is re-poisoned: the original is dead awaiting its own
             resurrection, and whatever live object occupies the
             (possibly recycled) identifier now is not it. Otherwise a
             plain reference is rewired only when its (forward-resolved)
             target is live with the class recorded at capture time —
             identifier recycling cannot splice in an unrelated object.
             Everything else is re-poisoned: the edge stays pruned and a
             later access recovers it in turn. *)
          Array.iteri
            (fun i (f : Swap_image.field) ->
              let word = f.Swap_image.word in
              let repoison tid =
                t.stats.Gc_stats.words_repoisoned <-
                  t.stats.Gc_stats.words_repoisoned + 1;
                Word.poison (Word.of_id tid)
              in
              Store.set_field t.store obj.Heap_obj.id i
                (if Word.is_null word then Word.null
                 else if Word.poisoned word then word
                 else begin
                   let tid = Word.target word in
                   match Diskswap.resolve_forward t.swap tid with
                   | Some final when Store.mem t.store final -> Word.of_id final
                   | Some final -> repoison final
                   | None ->
                     if Diskswap.has_image t.swap tid then repoison tid
                     else if
                       Store.mem t.store tid
                       && Store.class_of t.store tid
                          = f.Swap_image.referent_class
                     then Word.of_id tid
                     else repoison tid
                 end))
            image.Swap_image.fields;
          Store.set_stale t.store obj.Heap_obj.id image.Swap_image.stale;
          Diskswap.forward t.swap ~old_id:target ~new_id:obj.Heap_obj.id;
          Diskswap.drop_image t.swap target;
          (* the collections [obtain] ran may have freed the source, and
             its words may belong to another object now *)
          if Store.is_live t.store src then
            Store.set_field t.store src_id field (Word.of_id obj.Heap_obj.id);
          t.stats.Gc_stats.resurrections <- t.stats.Gc_stats.resurrections + 1;
          (* misprediction feedback: protect the edge type and maybe
             enter the SAFE moratorium *)
          Lp_core.Controller.note_misprediction t.controller
            ~src_class:(Store.class_of t.store src_id)
            ~tgt_class:image.Swap_image.class_id ~stale:image.Swap_image.stale;
          Ok obj)))

let with_frame t ?thread ~n_slots f =
  let thread = match thread with Some th -> th | None -> t.main_thread in
  let frame = Roots.push_frame thread ~n_slots in
  Fun.protect ~finally:(fun () -> Roots.pop_frame thread) (fun () -> f frame)
