(* The single-domain engine, with or without a pause bound.

   Without a slice budget each phase is one straight drain: the mark
   and stale closures pop and scan until the engine-owned Work_queue is
   empty, the sweep is the one-segment Trace_common.sliced_sweep, no
   pause sample is recorded (the VM accounts the collection as one
   Monolithic pause) and no mutation log exists, so the write barrier
   makes no extra call.

   With a budget the same DFS over the same Work_queue with the same
   Trace_common.scan_object merely yields every [budget] scanned
   objects, and the sweep runs in [budget]-slot segments of
   Trace_common.sliced_sweep, whose descending-segment order reproduces
   the one-segment free order exactly. Traversal order, the
   deferred-candidate order, the end-of-phase tick batch and every
   Gc_stats counter are therefore bit-identical with and without a
   budget — the differential oracle enforces this at several budgets.
   Only the pause profile changes: each mark slice and each sweep
   segment is recorded as its own tagged pause sample, so max pause is
   bounded by the budget instead of by heap size.

   Between slices a real mutator could run; reference-slot stores made
   while marking is in progress are logged through [note_mutation]
   (Remset-backed, deduplicated) and the logged slots are re-scanned at
   the next slice boundary, exactly like remembered-set roots. This VM
   is stop-the-world, so the log is provably empty during collections —
   the replay machinery is exercised directly by tests and is what
   would make genuinely concurrent slices sound.

   The budget is mutable between collections ([set_slice_budget]): the
   pause-SLO autopilot retunes it from wall-clock feedback, which is
   safe exactly because the budget can never change an outcome, only
   where the slice boundaries fall. *)

(* The state only a budgeted engine has. *)
type slicing = {
  mutable budget : int;
  log : Remset.t;  (* slots mutated while a mark is in progress *)
  mutable marking : bool;
}

type t = {
  slicing : slicing option;  (* None: every phase is one pause *)
  buffers : Trace_common.buffers;  (* mark stack and tick batch, reused *)
  mutable pauses : (Trace_engine.pause_phase * int) list;
      (* reverse order; drained by take_pauses *)
  mutable max_slice : int;  (* most objects scanned in one slice, ever *)
  mutable slices : int;  (* slices run, all collections *)
  mutable replays : int;  (* logged slots re-scanned, all collections *)
}

let create ?slice_budget () =
  let slicing =
    match slice_budget with
    | None -> None
    | Some b when b < 1 -> invalid_arg "Inc_engine.create: slice_budget < 1"
    | Some budget -> Some { budget; log = Remset.create (); marking = false }
  in
  {
    slicing;
    buffers = Trace_common.buffers ();
    pauses = [];
    max_slice = 0;
    slices = 0;
    replays = 0;
  }

let slice_budget t = Option.map (fun s -> s.budget) t.slicing

let set_slice_budget t budget =
  if budget < 1 then invalid_arg "Inc_engine.set_slice_budget: budget < 1";
  match t.slicing with
  | None ->
    invalid_arg "Inc_engine.set_slice_budget: engine has no slice budget"
  | Some s when s.marking ->
    invalid_arg "Inc_engine.set_slice_budget: mark phase in progress"
  | Some s -> s.budget <- budget

let slices t = t.slices

let replays t = t.replays

let log_mutation t ~src_id ~field =
  match t.slicing with
  | Some s -> Remset.add s.log ~src_id ~field
  | None -> invalid_arg "Inc_engine.log_mutation: engine has no slice budget"

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let record_pause t phase slice_start =
  let now = now_ns () in
  t.pauses <- (phase, now - !slice_start) :: t.pauses;
  slice_start := now

(* Pops and scans until [stack] is empty: one unbounded pause. *)
let drain store stats ~config ~note ~on_trace ~deferred stack =
  while not (Work_queue.is_empty stack) do
    Trace_common.scan_object store stats ~config ~note ~on_trace ~deferred
      (Store.get store (Work_queue.pop stack))
  done

(* Runs budgeted slices over [stack] until it is empty: each slice
   pops and scans at most [budget] objects, then counts itself and
   records a [Mark_slice] pause sample; [after_slice] runs at every
   boundary (the mark's log replay, which can refill the stack). *)
let run_slices t s store stats ~config ~note ~on_trace ~deferred ~after_slice
    stack =
  let slice_start = ref (now_ns ()) in
  let more = ref true in
  while !more do
    let work = ref 0 in
    while !work < s.budget && not (Work_queue.is_empty stack) do
      Trace_common.scan_object store stats ~config ~note ~on_trace ~deferred
        (Store.get store (Work_queue.pop stack));
      incr work
    done;
    (* Slice boundary: record the pause sample, then surface anything
       the mutator hid while we were away. The replay can grow the
       stack, so the emptiness check comes after it. *)
    t.slices <- t.slices + 1;
    if !work > t.max_slice then t.max_slice <- !work;
    record_pause t Trace_engine.Mark_slice slice_start;
    after_slice ();
    more := not (Work_queue.is_empty stack)
  done

let mark t ?edge_note ?apply_note store roots ~stats
    ~(config : Trace_common.mark_config) =
  Trace_common.reset_buffers t.buffers;
  let stack = t.buffers.Trace_common.stack in
  let batch = t.buffers.Trace_common.ticks in
  let deferred = ref [] in
  let note = Trace_common.note_fn ?edge_note ?apply_note () in
  let on_trace (obj : Heap_obj.t) =
    obj.Heap_obj.header <- Header.set_marked obj.Heap_obj.header;
    stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
    Trace_common.defer_tick batch ~config obj;
    Work_queue.push stack obj.Heap_obj.id
  in
  Roots.iter roots (fun id ->
      let obj = Store.get store id in
      if not (Header.marked obj.Heap_obj.header) then on_trace obj);
  (match t.slicing with
  | None -> drain store stats ~config ~note ~on_trace ~deferred stack
  | Some s ->
    (* Replays the mutation log against the current mark state: a slot
       of a marked (already-scanned or queued) source is re-scanned
       with the very scan the closure uses, so a target hidden by a
       mid-mark write is discovered all the same. Unmarked sources need
       nothing — their slots will be scanned when (if) the source is
       reached. *)
    let replay_log () =
      if Remset.cardinality s.log > 0 then begin
        Remset.iter s.log (fun ~src_id ~field ->
            (* the sentinel is never marked *)
            let src = Store.find store src_id in
            if Header.marked src.Heap_obj.header then begin
              t.replays <- t.replays + 1;
              Trace_common.scan_field store stats ~config ~note ~on_trace
                ~deferred src field
            end);
        Remset.clear s.log
      end
    in
    s.marking <- true;
    run_slices t s store stats ~config ~note ~on_trace ~deferred
      ~after_slice:replay_log stack;
    s.marking <- false);
  Trace_common.flush_ticks store stats config.stale_tick_gc batch;
  List.rev !deferred

(* The stale closure traces everything (no filter), but additionally
   sets the stale-mark diagnostic bit and counts claimed bytes. Unlike
   the in-use closure its ticks are applied at each claim: no filter
   runs here, so there is no staleness read to keep order-independent.
   No mutation-log replay: [marking] is false here, so the hook never
   logs during stale closures. *)
let stale_closure t ?events store ~stats ~set_untouched_bits ~stale_tick_gc
    (e : Trace_common.edge) =
  let tgt = e.Trace_common.tgt in
  if Header.marked tgt.Heap_obj.header then 0
  else begin
    let config =
      {
        Trace_common.set_untouched_bits;
        stale_tick_gc;
        edge_filter = None;
        on_poison = None;
        events;
      }
    in
    Trace_common.reset_buffers t.buffers;
    let stack = t.buffers.Trace_common.stack in
    let bytes = ref 0 in
    let claim (obj : Heap_obj.t) =
      obj.Heap_obj.header <-
        Header.set_stale_marked (Header.set_marked obj.Heap_obj.header);
      stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
      Trace_common.tick stats stale_tick_gc obj;
      stats.Gc_stats.stale_closure_objects <-
        stats.Gc_stats.stale_closure_objects + 1;
      bytes := !bytes + obj.Heap_obj.size_bytes;
      Work_queue.push stack obj.Heap_obj.id
    in
    claim tgt;
    let deferred = ref [] in
    (match t.slicing with
    | None -> drain store stats ~config ~note:None ~on_trace:claim ~deferred stack
    | Some s ->
      run_slices t s store stats ~config ~note:None ~on_trace:claim ~deferred
        ~after_slice:ignore stack);
    !bytes
  end

(* Without a budget the sweep is one segment covering every slot; with
   one it runs in segments of [budget] slots, one [Sweep_slice] pause
   sample per segment. Trace_common.sliced_sweep frees in the same
   descending order either way. *)
let sweep t store ~stats =
  match t.slicing with
  | None ->
    Trace_common.sliced_sweep store ~stats ~seg_slots:(Store.slot_count store)
      ~on_segment:ignore
  | Some s ->
    let slice_start = ref (now_ns ()) in
    Trace_common.sliced_sweep store ~stats ~seg_slots:s.budget
      ~on_segment:(fun () ->
        record_pause t Trace_engine.Sweep_slice slice_start)

let engine t =
  {
    Trace_engine.name =
      (match t.slicing with
      | None -> "seq"
      | Some s -> Printf.sprintf "inc%d" s.budget);
    mark =
      (fun ~gc:_ ?edge_note ?apply_note store roots ~stats ~config ->
        mark t ?edge_note ?apply_note store roots ~stats ~config);
    begin_stale = (fun () -> ());
    stale_closure =
      (fun ~gc:_ ?events store ~stats ~set_untouched_bits ~stale_tick_gc e ->
        stale_closure t ?events store ~stats ~set_untouched_bits
          ~stale_tick_gc e);
    end_stale = (fun ~gc:_ ~events:_ -> ());
    sweep = (fun ~gc:_ ?events:_ store ~stats -> sweep t store ~stats);
    minor_drain = None;
    note_mutation =
      Option.map
        (fun s ~src ~field ->
          if s.marking then Remset.add s.log ~src_id:src.Heap_obj.id ~field)
        t.slicing;
    take_pauses =
      (fun () ->
        let p = List.rev t.pauses in
        t.pauses <- [];
        p);
    max_slice_work = (fun () -> t.max_slice);
    shutdown = (fun () -> ());
  }
