(* The reference collector the engine tests compare against: the
   straight single-domain in-use closure, stale closure and sweep, one
   pause each, written out plainly with no slicing and no domain pool.
   It shares no scan code with the engines: its per-field scan is its
   own copy, it claims targets through an [on_trace] closure, and it
   always applies a closure's ticks in one batch at its end, so
   comparing an engine against it also checks the engines' rule of
   ticking at claim time when no filter reads staleness. The
   Collector must leave the heap exactly as this one does, at every
   slice budget. *)

open Lp_heap

let tick store stats gc (obj : Heap_obj.t) =
  match gc with
  | None -> ()
  | Some gc_number ->
    stats.Gc_stats.stale_tick_scans <- stats.Gc_stats.stale_tick_scans + 1;
    if Stale_counter.tick_object store ~gc_number obj.Heap_obj.id then
      stats.Gc_stats.stale_ticks <- stats.Gc_stats.stale_ticks + 1

let quarantine (config : Collector.mark_config) store stats id i =
  let w = Store.field store id i in
  (match config.Collector.events with
  | Some sink ->
    Lp_obs.Sink.emit sink (Lp_obs.Event.Quarantine { target = Word.target w })
  | None -> ());
  Store.set_field store id i (Word.poison w);
  stats.Gc_stats.words_quarantined <- stats.Gc_stats.words_quarantined + 1

let scan_field store stats ~(config : Collector.mark_config) ~on_trace
    ~deferred (obj : Heap_obj.t) i =
  let id = obj.Heap_obj.id in
  let w = Store.field store id i in
  if not (Word.is_null w) then begin
    stats.Gc_stats.fields_scanned <- stats.Gc_stats.fields_scanned + 1;
    if not (Word.poisoned w) then begin
      let w =
        if config.Collector.set_untouched_bits && not (Word.untouched w)
        then begin
          let w' = Word.set_untouched w in
          Store.set_field store id i w';
          stats.Gc_stats.untouched_bits_set <-
            stats.Gc_stats.untouched_bits_set + 1;
          w'
        end
        else w
      in
      if not (Store.mem store (Word.target w)) then
        quarantine config store stats id i
      else begin
        let tgt = Store.get store (Word.target w) in
        let edge =
          { Collector.src = id; field = i; tgt = tgt.Heap_obj.id }
        in
        let action =
          match config.Collector.edge_filter with
          | None -> Collector.Trace
          | Some filter -> filter edge
        in
        match action with
        | Collector.Trace ->
          if not (Header.marked (Store.header store tgt.Heap_obj.id)) then
            on_trace tgt
        | Collector.Defer ->
          stats.Gc_stats.candidates_enqueued <-
            stats.Gc_stats.candidates_enqueued + 1;
          deferred := edge :: !deferred
        | Collector.Poison ->
          (match config.Collector.on_poison with
          | Some f -> f edge
          | None -> ());
          (match config.Collector.events with
          | Some sink ->
            Lp_obs.Sink.emit sink
              (Lp_obs.Event.Edge_poisoned
                 {
                   src_class = Store.class_of store id;
                   field = i;
                   target = tgt.Heap_obj.id;
                 })
          | None -> ());
          Store.set_field store id i (Word.poison w);
          stats.Gc_stats.references_poisoned <-
            stats.Gc_stats.references_poisoned + 1
      end
    end
  end

let scan_object store stats ~config ~on_trace ~deferred (obj : Heap_obj.t) =
  for i = 0 to Store.n_fields store obj.Heap_obj.id - 1 do
    scan_field store stats ~config ~on_trace ~deferred obj i
  done

let drain store stats ~config ~on_trace ~deferred stack =
  while not (Stack.is_empty stack) do
    scan_object store stats ~config ~on_trace ~deferred (Stack.pop stack)
  done

let mark store roots ~stats ~(config : Collector.mark_config) =
  let stack = Stack.create () in
  let marked = Queue.create () in
  let deferred = ref [] in
  let on_trace (obj : Heap_obj.t) =
    let id = obj.Heap_obj.id in
    Store.set_header store id (Header.set_marked (Store.header store id));
    stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
    Queue.push obj marked;
    Stack.push obj stack
  in
  Roots.iter roots (fun id ->
      let obj = Store.get store id in
      if not (Header.marked (Store.header store id)) then on_trace obj);
  drain store stats ~config ~on_trace ~deferred stack;
  Queue.iter (tick store stats config.Collector.stale_tick_gc) marked;
  List.rev !deferred

let stale_closure ?events store ~stats ~set_untouched_bits ~stale_tick_gc
    (e : Collector.edge) =
  let tgt = Store.get store e.Collector.tgt in
  if Header.marked (Store.header store tgt.Heap_obj.id) then 0
  else begin
    let config =
      {
        Collector.set_untouched_bits;
        stale_tick_gc;
        edge_filter = None;
        on_poison = None;
        events;
      }
    in
    let stack = Stack.create () in
    let claimed = Queue.create () in
    let bytes = ref 0 in
    let claim (obj : Heap_obj.t) =
      let id = obj.Heap_obj.id in
      Store.set_header store id
        (Header.set_stale_marked (Header.set_marked (Store.header store id)));
      stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
      Queue.push obj claimed;
      stats.Gc_stats.stale_closure_objects <-
        stats.Gc_stats.stale_closure_objects + 1;
      bytes := !bytes + Store.size_bytes store id;
      Stack.push obj stack
    in
    claim tgt;
    drain store stats ~config ~on_trace:claim ~deferred:(ref []) stack;
    Queue.iter (tick store stats stale_tick_gc) claimed;
    !bytes
  end

(* Frees in strictly descending slot order, the order the engine must
   reproduce at every slice budget so that identifier recycling
   matches. *)
let sweep store ~stats =
  let live = ref 0 in
  for id = Store.slot_count store downto 1 do
    let obj = Store.find store id in
    if obj != Store.sentinel then begin
      let h = Store.header store id and size = Store.size_bytes store id in
      if Header.marked h then begin
        Store.set_header store id (Header.clear_gc_bits h);
        live := !live + size
      end
      else begin
        stats.Gc_stats.objects_swept <- stats.Gc_stats.objects_swept + 1;
        stats.Gc_stats.bytes_reclaimed <-
          stats.Gc_stats.bytes_reclaimed + size;
        Store.free store obj
      end
    end
  done;
  Store.set_live_bytes store !live
