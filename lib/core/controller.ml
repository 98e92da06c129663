open Lp_heap

type t = {
  config : Config.t;
  registry : Class_registry.t;
  table : Edge_table.t;
  machine : State_machine.t;
  mutable selected : (Class_registry.id * Class_registry.id) option;
  mutable last_selection : (Class_registry.id * Class_registry.id * int) option;
  mutable selected_level : int option;  (* Most-stale policy *)
  mutable averted : exn option;
  mutable pruned_types : (Class_registry.id * Class_registry.id) list;  (* reverse order *)
  mutable unproductive_cycles : int;
  mutable gc_count : int;
  mutable mispredictions : int;  (* resurrected pruned accesses, all time *)
  mutable epoch_mispredictions : int;  (* since the last PRUNE collection *)
  metrics : Lp_obs.Metrics.t;
  mutable sink : Lp_obs.Sink.t option;
  engine : Collector.t;  (* the collector every phase runs on *)
  mutable mark_wall_ns : int;  (* wall time spent in mark phases *)
  (* The static liveness oracle, lowered to runtime ids by the harness
     (lp_core never sees lp_liveness — only the closure). *)
  mutable prior : (Class_registry.id -> int -> Selection.prior) option;
  mutable c_liveness :
    (Lp_obs.Metrics.counter * Lp_obs.Metrics.counter * Lp_obs.Metrics.counter)
    option;
      (* (vetoes, boosts, dead_reads) — interned only when an oracle is
         installed so the off-mode metrics registry is untouched *)
  (* Interned once so the per-collection updates are field writes. *)
  c_mispredictions : Lp_obs.Metrics.counter;
  c_prune_decisions : Lp_obs.Metrics.counter;
  c_prune_refs : Lp_obs.Metrics.counter;
  c_prune_bytes : Lp_obs.Metrics.counter;
}

(* Recovered mispredictions within one prune epoch that push the
   controller into the SAFE moratorium. *)
let safe_mode_threshold = 4

(* Consecutive select/prune cycles that free no memory before the
   deferred out-of-memory error is finally thrown. *)
let max_unproductive_cycles = 8

let create ?metrics ?engine config registry =
  match Config.validate config with
  | Error msg -> invalid_arg ("Controller.create: " ^ msg)
  | Ok config ->
    let metrics =
      match metrics with Some m -> m | None -> Lp_obs.Metrics.create ()
    in
    let engine =
      match engine with
      | Some e -> e
      | None -> Collector.create ()
    in
    {
      config;
      registry;
      table = Edge_table.create ();
      machine = State_machine.create config;
      selected = None;
      last_selection = None;
      selected_level = None;
      averted = None;
      pruned_types = [];
      unproductive_cycles = 0;
      gc_count = 0;
      mispredictions = 0;
      epoch_mispredictions = 0;
      metrics;
      sink = None;
      engine;
      mark_wall_ns = 0;
      prior = None;
      c_liveness = None;
      c_mispredictions = Lp_obs.Metrics.counter metrics "controller.mispredictions";
      c_prune_decisions = Lp_obs.Metrics.counter metrics "prune.decisions";
      c_prune_refs = Lp_obs.Metrics.counter metrics "prune.refs_poisoned";
      c_prune_bytes = Lp_obs.Metrics.counter metrics "prune.bytes_reclaimed";
    }

let set_sink t sink = t.sink <- sink

let engine t = t.engine

let mark_wall_ns t = t.mark_wall_ns

(* Observability helpers. Events are constructed inside the [Some]
   branch so a disabled sink costs exactly the branch. *)
let phase_begin t phase =
  match t.sink with
  | Some s ->
    Lp_obs.Sink.emit s (Lp_obs.Event.Phase_begin { gc = t.gc_count; phase })
  | None -> ()

let phase_end t phase work =
  match t.sink with
  | Some s ->
    Lp_obs.Sink.emit s (Lp_obs.Event.Phase_end { gc = t.gc_count; phase; work })
  | None -> ()

let config t = t.config

let state t = State_machine.state t.machine

let edge_table t = t.table

let gc_count t = t.gc_count

let averted_error t = t.averted

let tracking t = State_kind.tracking (state t)

let last_selection t = t.last_selection

let pruned_edge_types t = List.rev t.pruned_types

let state_transitions t = State_machine.transitions t.machine

let in_safe_mode t = State_machine.in_safe_mode t.machine

let safe_entries t = State_machine.safe_entries t.machine

let safe_exits_forced t = State_machine.safe_exits_forced t.machine

let mispredictions t = t.mispredictions


(* ------------------------------------------------------------------ *)
(* Static liveness oracle plumbing. The harness lowers a
   [Liveness.oracle] onto runtime ids and installs its closure here;
   with none installed every path below is the pre-oracle pipeline
   bit-for-bit. *)

let set_liveness_prior t prior =
  t.prior <- Some prior;
  if t.c_liveness = None then
    t.c_liveness <-
      Some
        ( Lp_obs.Metrics.counter t.metrics "liveness.vetoes",
          Lp_obs.Metrics.counter t.metrics "liveness.boosts",
          Lp_obs.Metrics.counter t.metrics "liveness.dead_reads" )

let liveness_counter_value pick t =
  match t.c_liveness with
  | None -> 0
  | Some c -> Lp_obs.Metrics.counter_value (pick c)

let liveness_vetoes t = liveness_counter_value (fun (v, _, _) -> v) t

let liveness_boosts t = liveness_counter_value (fun (_, b, _) -> b) t

let liveness_dead_reads t = liveness_counter_value (fun (_, _, d) -> d) t

(* Conformance probe, called from the read barrier's cold path: the
   prior boosts exactly the slots the analysis called never-read
   ([Dead_beyond 0]), and a dynamic read of one would falsify the
   oracle, so it is counted where tests can see it. *)
let note_field_read t store ~src ~field =
  match (t.prior, t.c_liveness) with
  | Some prior, Some (_, _, d) ->
    if prior (Store.class_of store (Heap_obj.index src)) field = Selection.Boost then
      Lp_obs.Metrics.incr d
  | Some _, None | None, _ -> ()

(* Counts and traces, at the edge's scan point, a verdict the prior
   changed: a veto of an edge that qualified by staleness, or a boost
   that qualified one staleness alone would not have. *)
let audit_liveness t store (edge : Collector.edge) verdict =
  match t.c_liveness with
  | None -> ()
  | Some (v, b, _) -> (
    let src_class = Store.class_of store edge.Collector.src
    and field = edge.Collector.field in
    match verdict with
    | Selection.Vetoed -> (
      Lp_obs.Metrics.incr v;
      match t.sink with
      | Some s ->
        Lp_obs.Sink.emit s (Lp_obs.Event.Liveness_veto { src_class; field })
      | None -> ())
    | Selection.Boosted -> (
      Lp_obs.Metrics.incr b;
      match t.sink with
      | Some s ->
        Lp_obs.Sink.emit s (Lp_obs.Event.Liveness_boost { src_class; field })
      | None -> ())
    | Selection.Qualifies | Selection.Rejected -> ())

let report t msg = match t.config.Config.report with None -> () | Some f -> f msg

let edge_name t (src, tgt) =
  Printf.sprintf "%s -> %s"
    (Class_registry.name t.registry src)
    (Class_registry.name t.registry tgt)

(* Records the out-of-memory error the program would have seen, the first
   time pruning engages (Section 2: "leak pruning records and defers the
   error"). *)
let record_averted t store =
  if t.averted = None then begin
    t.averted <-
      Some
        (Errors.out_of_memory ~gc_count:t.gc_count
           ~used_bytes:(Store.used_bytes store)
           ~limit_bytes:(Store.limit_bytes store));
    report t "leak pruning: out-of-memory averted; pruning engaged"
  end

let on_stale_use t store ~src ~tgt =
  if tracking t then begin
    let stale = Store.stale store (Heap_obj.index tgt) in
    if stale >= 2 then
      Edge_table.record_stale_use t.table
        ~src:(Store.class_of store (Heap_obj.index src))
        ~tgt:(Store.class_of store (Heap_obj.index tgt)) ~stale
  end

(* Misprediction feedback from the resurrection subsystem: a program
   access to a pruned reference proves the selection was wrong. The edge
   type is protected (its maxstaleuse raised past the qualifying bar, so
   confidence in pruning it decays to nothing) and, at
   [safe_mode_threshold] in one epoch, the controller enters the SAFE
   moratorium. *)
let note_misprediction t ~src_class ~tgt_class ~stale =
  t.mispredictions <- t.mispredictions + 1;
  t.epoch_mispredictions <- t.epoch_mispredictions + 1;
  Lp_obs.Metrics.incr t.c_mispredictions;
  Edge_table.protect t.table ~src:src_class ~tgt:tgt_class
    ~min_stale_use:(stale + t.config.Config.stale_slack);
  if
    t.epoch_mispredictions >= safe_mode_threshold
    && not (State_machine.in_safe_mode t.machine)
  then begin
    report t
      (Printf.sprintf
         "leak pruning: %d mispredictions this epoch; entering SAFE for %d \
          collection(s)"
         t.epoch_mispredictions State_machine.safe_mode_collections);
    State_machine.enter_safe t.machine;
    (match t.sink with
    | Some s ->
      Lp_obs.Sink.emit s
        (Lp_obs.Event.Safe_enter { mispredictions = t.epoch_mispredictions })
    | None -> ())
  end

let poisoned_access_error t store ~src ~tgt_class =
  let cause =
    match t.averted with
    | Some e -> e
    | None ->
      (* Accessing a poisoned reference implies pruning happened, which
         records the averted error first; this branch guards reports on
         hand-built heaps. *)
      Errors.out_of_memory ~gc_count:t.gc_count ~used_bytes:0 ~limit_bytes:0
  in
  Errors.internal_error ~cause
    ~src_class:
      (Class_registry.name t.registry (Store.class_of store (Heap_obj.index src)))
    ~tgt_class

(* One full-heap collection. The phases composed here are the paper's
   Sections 4.2-4.3; which filter runs depends on the state machine and the
   prediction policy. *)
let collect ?on_finalize ?on_poison ?before_sweep t store roots ~stats =
  t.gc_count <- t.gc_count + 1;
  stats.Gc_stats.collections <- stats.Gc_stats.collections + 1;
  let st = state t in
  let track = State_kind.tracking st in
  (match t.config.Config.maxstaleuse_decay_period with
  | Some period when track && t.gc_count mod period = 0 ->
    Edge_table.decay_max_stale_use t.table
  | Some _ | None -> ());
  let poisoned_before = stats.Gc_stats.references_poisoned in
  let select_winner () =
    phase_begin t "selection";
    stats.Gc_stats.selection_scans <- stats.Gc_stats.selection_scans + 1;
    (match Edge_table.select_max_bytes t.table with
    | Some (src, tgt, bytes) ->
      t.selected <- Some (src, tgt);
      t.last_selection <- Some (src, tgt, bytes)
    | None -> t.selected <- None);
    Edge_table.reset_bytes t.table;
    phase_end t "selection" 1
  in
  (* The edge type a PRUNE collection acted on, remembered past the
     [t.selected] reset for the decision event after the sweep. *)
  let decision_edge = ref None in
  (* Each arm picks the in-use closure's edge filter, and what runs on
     its deferred candidates once it is done. The filter is the
     closure's one reader of its edges: the collector runs it on every
     live edge in scan order, so it also carries the Individual_refs
     byte accounting and the liveness audit. *)
  let filter, after_mark =
    match (st, t.config.Config.policy) with
    | State_kind.Inactive, _
    | _, Policy.None_
    | (State_kind.Observe | State_kind.Safe), _ ->
      (None, ignore)
    | State_kind.Select, Policy.Default ->
      ( Some
          (Selection.select_filter_default ?prior:t.prior
             ~audit:(audit_liveness t store) store t.config t.table),
        fun deferred ->
          phase_begin t "stale_closure";
          let claimed_before = stats.Gc_stats.stale_closure_objects in
          List.iter
            (fun (edge : Collector.edge) ->
              let bytes =
                Collector.stale_closure t.engine ?events:t.sink store ~stats
                  ~set_untouched_bits:true ~stale_tick_gc:(Some t.gc_count)
                  edge
              in
              if bytes > 0 then
                Edge_table.add_bytes t.table
                  ~src:(Store.class_of store edge.Collector.src)
                  ~tgt:(Store.class_of store edge.Collector.tgt)
                  bytes)
            (Collector.canonical_candidates deferred);
          phase_end t "stale_closure"
            (stats.Gc_stats.stale_closure_objects - claimed_before);
          select_winner () )
    | State_kind.Select, Policy.Individual_refs ->
      (* Byte attribution: every live edge whose target qualifies as
         stale adds the target's bytes to its edge type, at its scan
         point, and is traced. Only vetoes are audited here. *)
      let filter (edge : Collector.edge) =
        (match Selection.judge ?prior:t.prior store t.config t.table edge with
        | Selection.Qualifies | Selection.Boosted ->
          Edge_table.add_bytes t.table
            ~src:(Store.class_of store edge.Collector.src)
            ~tgt:(Store.class_of store edge.Collector.tgt)
            (Store.size_bytes store edge.Collector.tgt)
        | Selection.Vetoed -> audit_liveness t store edge Selection.Vetoed
        | Selection.Rejected -> ());
        Collector.Trace
      in
      (Some filter, fun _ -> select_winner ())
    | State_kind.Select, Policy.Most_stale ->
      ( None,
        fun _ ->
          phase_begin t "selection";
          stats.Gc_stats.selection_scans <- stats.Gc_stats.selection_scans + 1;
          let level = Selection.max_live_staleness store in
          t.selected_level <- (if level >= 2 then Some level else None);
          phase_end t "selection" 1 )
    | State_kind.Prune, (Policy.Default | Policy.Individual_refs) ->
      record_averted t store;
      ( (match (t.selected, t.prior) with
        | None, None -> None
        | selected, prior ->
          Some
            (Selection.prune_filter_edge_type ?prior
               ~audit:(audit_liveness t store) store t.config t.table
               ~selected)),
        fun _ ->
          State_machine.note_prune_performed t.machine;
          t.epoch_mispredictions <- 0;
          decision_edge := t.selected;
          (match
             (t.selected, stats.Gc_stats.references_poisoned - poisoned_before)
           with
          | Some selected, n when n > 0 ->
            let src, tgt = selected in
            if
              not
                (List.exists
                   (fun (a, b) -> Int.equal a src && Int.equal b tgt)
                   t.pruned_types)
            then
              t.pruned_types <- selected :: t.pruned_types;
            report t
              (Printf.sprintf "leak pruning: pruned %d reference(s) of type %s"
                 n (edge_name t selected))
          | Some _, _ | None, _ -> ());
          t.selected <- None )
    | State_kind.Prune, Policy.Most_stale ->
      record_averted t store;
      ( Option.map
          (fun level -> Selection.prune_filter_most_stale store ~level)
          t.selected_level,
        fun _ ->
          State_machine.note_prune_performed t.machine;
          t.epoch_mispredictions <- 0;
          t.selected_level <- None )
  in
  (* The one in-use closure. Every state but INACTIVE maintains the
     untouched bits and ticks staleness; ticking piggybacks on tracing
     (the config carries the collection number), so only live objects
     pay for it. Pruning disabled traces like INACTIVE. The phase span's
     work figure is the fields scanned. *)
  let active = track && t.config.Config.policy <> Policy.None_ in
  let config =
    {
      Collector.set_untouched_bits = active;
      stale_tick_gc = (if active then Some t.gc_count else None);
      edge_filter = filter;
      on_poison;
      events = t.sink;
    }
  in
  phase_begin t "mark";
  let scanned_before = stats.Gc_stats.fields_scanned in
  let t0 = Unix.gettimeofday () in
  let deferred = Collector.mark t.engine store roots ~stats ~config in
  t.mark_wall_ns <-
    t.mark_wall_ns + int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
  phase_end t "mark" (stats.Gc_stats.fields_scanned - scanned_before);
  after_mark deferred;
  (match on_finalize with
  | Some f ->
    phase_begin t "finalizers";
    let enq_before = stats.Gc_stats.finalizers_enqueued in
    Collector.resurrect_finalizables t.engine store ~stats ~on_finalize:f;
    phase_end t "finalizers" (stats.Gc_stats.finalizers_enqueued - enq_before)
  | None -> ());
  (* Last chance to read doomed objects: everything unmarked is still
     intact here, which is when swap images of pruned closures are
     captured. *)
  (match before_sweep with Some f -> f () | None -> ());
  let freed_before = stats.Gc_stats.bytes_reclaimed in
  phase_begin t "sweep";
  let swept_before = stats.Gc_stats.objects_swept in
  Collector.sweep t.engine store ~stats;
  phase_end t "sweep" (stats.Gc_stats.objects_swept - swept_before);
  let freed = stats.Gc_stats.bytes_reclaimed - freed_before in
  (* A prune that neither poisons nor frees is unproductive; enough of
     those in a row and the deferred error is finally thrown. *)
  (match st with
  | State_kind.Prune ->
    let n = stats.Gc_stats.references_poisoned - poisoned_before in
    if n = 0 && freed = 0 then
      t.unproductive_cycles <- t.unproductive_cycles + 1
    else t.unproductive_cycles <- 0;
    (* The audit record of this prune decision: the counters below and
       the event carry the same [freed], so a trace's reclaimed-bytes
       sum equals the metrics snapshot by construction. *)
    Lp_obs.Metrics.incr t.c_prune_decisions;
    Lp_obs.Metrics.incr ~by:n t.c_prune_refs;
    Lp_obs.Metrics.incr ~by:freed t.c_prune_bytes;
    (match t.sink with
    | Some s ->
      let src_class, tgt_class =
        match !decision_edge with Some (a, b) -> (a, b) | None -> (-1, -1)
      in
      Lp_obs.Sink.emit s
        (Lp_obs.Event.Prune_decision
           { src_class; tgt_class; refs_poisoned = n; bytes_reclaimed = freed })
    | None -> ())
  | State_kind.Inactive | State_kind.Observe | State_kind.Select
  | State_kind.Safe ->
    ());
  let occupancy =
    float_of_int (Store.live_bytes store) /. float_of_int (Store.limit_bytes store)
  in
  let was_safe = State_machine.in_safe_mode t.machine in
  State_machine.after_gc t.machine ~occupancy;
  if was_safe && not (State_machine.in_safe_mode t.machine) then
    match t.sink with
    | Some s -> Lp_obs.Sink.emit s (Lp_obs.Event.Safe_exit { forced = false })
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Controller "brain" export/import — the state a supervision
   checkpoint persists across a warm restart. Classes travel by NAME:
   registry ids are assigned in registration order and a fresh
   incarnation re-registers its classes itself, so ids are only
   meaningful within one VM. *)

type brain = {
  brain_gc_count : int;
  brain_mispredictions : int;
  brain_epoch_mispredictions : int;
  brain_unproductive_cycles : int;
  brain_machine : State_machine.snapshot;
  brain_edges : (string * string * int) list;
  brain_pruned_types : (string * string) list;
}

let export_brain t =
  let name = Class_registry.name t.registry in
  let edges = ref [] in
  Edge_table.iter t.table (fun ~src ~tgt ~max_stale_use ~bytes_used:_ ->
      if max_stale_use > 0 then
        edges := (name src, name tgt, max_stale_use) :: !edges);
  {
    brain_gc_count = t.gc_count;
    brain_mispredictions = t.mispredictions;
    brain_epoch_mispredictions = t.epoch_mispredictions;
    brain_unproductive_cycles = t.unproductive_cycles;
    brain_machine = State_machine.snapshot t.machine;
    (* slot order depends on hash placement; sort so the same table
       always exports the same byte stream *)
    brain_edges =
      List.sort
        (fun (s1, t1, u1) (s2, t2, u2) ->
          match String.compare s1 s2 with
          | 0 -> (
            match String.compare t1 t2 with 0 -> Int.compare u1 u2 | c -> c)
          | c -> c)
        !edges;
    brain_pruned_types =
      List.map (fun (src, tgt) -> (name src, name tgt)) (pruned_edge_types t);
  }

(* Each name resolves by registering it: a class the fresh VM has not
   registered yet (one its workload registers on first use) takes the
   next id, and the workload's own registration later returns that same
   id. The lets fix the registration order, source before target. *)
let import_brain t brain =
  let pair src tgt =
    let src = Class_registry.register t.registry src in
    let tgt = Class_registry.register t.registry tgt in
    (src, tgt)
  in
  t.gc_count <- brain.brain_gc_count;
  t.mispredictions <- brain.brain_mispredictions;
  t.epoch_mispredictions <- brain.brain_epoch_mispredictions;
  t.unproductive_cycles <- brain.brain_unproductive_cycles;
  List.iter
    (fun (src, tgt, max_stale_use) ->
      let src, tgt = pair src tgt in
      Edge_table.load_entry t.table ~src ~tgt ~max_stale_use ~bytes_used:0)
    brain.brain_edges;
  t.pruned_types <-
    List.rev_map (fun (src, tgt) -> pair src tgt) brain.brain_pruned_types;
  State_machine.restore t.machine brain.brain_machine

let on_allocation_failure t store ~requested =
  let oom () =
    (* Once pruning has engaged, the error thrown is the recorded
       deferred error (Section 2), so a later poisoned-access
       InternalError and the final OutOfMemoryError share one cause. *)
    match t.averted with
    | Some e -> e
    | None ->
      Errors.out_of_memory ~gc_count:t.gc_count
        ~used_bytes:(Store.used_bytes store)
        ~limit_bytes:(Store.limit_bytes store)
  in
  if requested > Store.limit_bytes store then
    (* No amount of pruning can make an object larger than the heap fit;
       retrying would only burn collections. *)
    `Out_of_memory
      (Errors.out_of_memory ~gc_count:t.gc_count
         ~used_bytes:(Store.used_bytes store)
         ~limit_bytes:(Store.limit_bytes store))
  else
  match t.config.Config.policy with
  | Policy.None_ -> `Out_of_memory (oom ())
  | Policy.Default | Policy.Most_stale | Policy.Individual_refs ->
    if t.unproductive_cycles >= max_unproductive_cycles then
      `Out_of_memory (oom ())
    else begin
      match state t with
      | State_kind.Inactive | State_kind.Observe ->
        (* The post-collection transition did not reach SELECT, so the heap
           is not even nearly full: the request simply does not fit. *)
        `Out_of_memory (oom ())
      | State_kind.Select ->
        State_machine.note_exhaustion t.machine;
        report t
          (match state t with
          | State_kind.Prune ->
            "leak pruning: allocation failed in SELECT; the next collection \
             prunes"
          | State_kind.Inactive | State_kind.Observe | State_kind.Select
          | State_kind.Safe ->
            "leak pruning: allocation failed in SELECT; selecting before \
             pruning");
        `Retry
      | State_kind.Safe ->
        (* Memory pressure overrides the moratorium: force the early
           exit (counted in safe_exits_forced) and retry through
           SELECT/PRUNE. *)
        report t "leak pruning: allocation failed in SAFE; moratorium lifted";
        (match t.sink with
        | Some s ->
          Lp_obs.Sink.emit s (Lp_obs.Event.Safe_exit { forced = true })
        | None -> ());
        State_machine.note_exhaustion t.machine;
        `Retry
      | State_kind.Prune -> `Retry
    end
