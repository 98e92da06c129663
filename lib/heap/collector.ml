(* The engine-independent scan, tick batching and quarantine live in
   Trace_common; this module composes them into the sequential
   (single-slice DFS) phases and re-exports the shared vocabulary under
   its historical names. *)

type edge = Trace_common.edge = {
  src : Heap_obj.t;
  field : int;
  tgt : Heap_obj.t;
}

type edge_action = Trace_common.edge_action = Trace | Defer | Poison

type mark_config = Trace_common.mark_config = {
  set_untouched_bits : bool;
  stale_tick_gc : int option;
  edge_filter : (edge -> edge_action) option;
  on_poison : (edge -> unit) option;
  events : Lp_obs.Sink.t option;
}

let base_config = Trace_common.base_config

let tick = Trace_common.tick

let quarantine = Trace_common.quarantine

let mark_object stats ?(stale_tick_gc = None) (obj : Heap_obj.t) =
  obj.Heap_obj.header <- Header.set_marked obj.Heap_obj.header;
  stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
  tick stats stale_tick_gc obj

let mark ?edge_note ?apply_note ~(buffers : Trace_common.buffers) store roots
    ~stats ~config =
  Trace_common.reset_buffers buffers;
  let stack = buffers.Trace_common.stack in
  let batch = buffers.Trace_common.ticks in
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
  while not (Work_queue.is_empty stack) do
    Trace_common.scan_object store stats ~config ~note ~on_trace ~deferred
      (Store.get store (Work_queue.pop stack))
  done;
  Trace_common.flush_ticks stats config.stale_tick_gc batch;
  List.rev !deferred

(* The stale closure traces everything (no filter), but additionally sets
   the stale-mark diagnostic bit and counts claimed bytes. Unlike the
   in-use closure its ticks are applied at each claim: no filter runs
   here, so there is no staleness read to keep order-independent. *)
let stale_closure ?events ~(buffers : Trace_common.buffers) store ~stats
    ~set_untouched_bits ~stale_tick_gc (e : edge) =
  let tgt = e.tgt in
  if Header.marked tgt.Heap_obj.header then 0
  else begin
    let config =
      {
        set_untouched_bits;
        stale_tick_gc;
        edge_filter = None;
        on_poison = None;
        events;
      }
    in
    Trace_common.reset_buffers buffers;
    let stack = buffers.Trace_common.stack in
    let bytes = ref 0 in
    let claim (obj : Heap_obj.t) =
      obj.Heap_obj.header <-
        Header.set_stale_marked (Header.set_marked obj.Heap_obj.header);
      stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
      tick stats config.stale_tick_gc obj;
      stats.Gc_stats.stale_closure_objects <-
        stats.Gc_stats.stale_closure_objects + 1;
      bytes := !bytes + obj.Heap_obj.size_bytes;
      Work_queue.push stack obj.Heap_obj.id
    in
    claim tgt;
    let deferred = ref [] in
    while not (Work_queue.is_empty stack) do
      Trace_common.scan_object store stats ~config ~note:None ~on_trace:claim
        ~deferred
        (Store.get store (Work_queue.pop stack))
    done;
    !bytes
  end

let resurrect_finalizables store ~stats ~on_finalize =
  (* Collect first: marking referents while iterating would otherwise make
     the visit order matter. *)
  let pending = ref [] in
  Store.iter_live store (fun obj ->
      let h = obj.Heap_obj.header in
      if
        (not (Header.marked h))
        && Header.finalizable h
        && not (Header.finalizer_enqueued h)
      then pending := obj :: !pending);
  let queue = Work_queue.create () in
  let mark_live (obj : Heap_obj.t) =
    if not (Header.marked obj.Heap_obj.header) then begin
      obj.Heap_obj.header <- Header.set_marked obj.Heap_obj.header;
      stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
      Work_queue.push queue obj.Heap_obj.id
    end
  in
  let finalize (obj : Heap_obj.t) =
    obj.Heap_obj.header <- Header.set_finalizer_enqueued obj.Heap_obj.header;
    stats.Gc_stats.finalizers_enqueued <- stats.Gc_stats.finalizers_enqueued + 1;
    mark_live obj;
    on_finalize obj
  in
  List.iter finalize (List.rev !pending);
  while not (Work_queue.is_empty queue) do
    let fields = (Store.get store (Work_queue.pop queue)).Heap_obj.fields in
    for i = 0 to Array.length fields - 1 do
      let w = fields.(i) in
      if (not (Word.is_null w)) && not (Word.poisoned w) then
        match Store.get_opt store (Word.target w) with
        | None -> quarantine stats fields i
        | Some tgt -> mark_live tgt
    done
  done

let sweep store ~stats =
  Trace_common.sliced_sweep store ~stats ~seg_slots:(Store.slot_count store)
    ~on_segment:ignore
