(* The reference collector the engine tests compare against: the
   straight single-domain in-use closure, stale closure and sweep, one
   pause each, written out plainly with no slicing, no mutation log and
   no domain pool. Every Trace_engine must leave the heap exactly as
   this one does. *)

open Lp_heap

let mark ?edge_note ?apply_note ~(buffers : Trace_common.buffers) store roots
    ~stats ~(config : Trace_common.mark_config) =
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
  Trace_common.flush_ticks store stats config.Trace_common.stale_tick_gc batch;
  List.rev !deferred

let stale_closure ?events ~(buffers : Trace_common.buffers) store ~stats
    ~set_untouched_bits ~stale_tick_gc (e : Trace_common.edge) =
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
    Trace_common.reset_buffers buffers;
    let stack = buffers.Trace_common.stack in
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
    while not (Work_queue.is_empty stack) do
      Trace_common.scan_object store stats ~config ~note:None ~on_trace:claim
        ~deferred
        (Store.get store (Work_queue.pop stack))
    done;
    !bytes
  end

(* Frees in strictly descending slot order, the order every engine
   must reproduce so that identifier recycling matches. *)
let sweep store ~stats =
  let live = ref 0 in
  Store.iter_live_range_desc store ~lo:0 ~hi:(Store.slot_count store)
    (fun (obj : Heap_obj.t) ->
      if Header.marked obj.Heap_obj.header then begin
        obj.Heap_obj.header <- Header.clear_gc_bits obj.Heap_obj.header;
        live := !live + obj.Heap_obj.size_bytes
      end
      else begin
        stats.Gc_stats.objects_swept <- stats.Gc_stats.objects_swept + 1;
        stats.Gc_stats.bytes_reclaimed <-
          stats.Gc_stats.bytes_reclaimed + obj.Heap_obj.size_bytes;
        Store.free store obj
      end);
  Store.set_live_bytes store !live

let engine () =
  let buffers = Trace_common.buffers () in
  {
    Trace_engine.name = "ref";
    mark =
      (fun ~gc:_ ?edge_note ?apply_note store roots ~stats ~config ->
        mark ?edge_note ?apply_note ~buffers store roots ~stats ~config);
    begin_stale = (fun () -> ());
    stale_closure =
      (fun ~gc:_ ?events store ~stats ~set_untouched_bits ~stale_tick_gc e ->
        stale_closure ?events ~buffers store ~stats ~set_untouched_bits
          ~stale_tick_gc e);
    end_stale = (fun ~gc:_ ~events:_ -> ());
    sweep = (fun ~gc:_ ?events:_ store ~stats -> sweep store ~stats);
    minor_drain = None;
    note_mutation = None;
    take_pauses = (fun () -> []);
    max_slice_work = (fun () -> 0);
    shutdown = (fun () -> ());
  }
