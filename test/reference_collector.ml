(* The reference collector the engine tests compare against: the
   straight single-domain in-use closure, stale closure and sweep, one
   pause each, written out plainly with no slicing and no domain pool.
   It shares no scan code with the engines: its per-field scan is its
   own copy, it claims targets through an [on_trace] closure, and it
   always applies a closure's ticks in one batch at its end, so
   comparing an engine against it also checks the engines' rule of
   ticking at claim time when no filter or note reads staleness. Every
   Trace_engine must leave the heap exactly as this one does. *)

open Lp_heap

let tick stats gc (obj : Heap_obj.t) =
  match gc with
  | None -> ()
  | Some gc_number ->
    stats.Gc_stats.stale_tick_scans <- stats.Gc_stats.stale_tick_scans + 1;
    if Stale_counter.tick_object ~gc_number obj then
      stats.Gc_stats.stale_ticks <- stats.Gc_stats.stale_ticks + 1

let quarantine (config : Trace_common.mark_config) stats fields i =
  (match config.Trace_common.events with
  | Some sink ->
    Lp_obs.Sink.emit sink
      (Lp_obs.Event.Quarantine { target = Word.target fields.(i) })
  | None -> ());
  fields.(i) <- Word.poison fields.(i);
  stats.Gc_stats.words_quarantined <- stats.Gc_stats.words_quarantined + 1

let scan_field store stats ~(config : Trace_common.mark_config) ~note ~on_trace
    ~deferred (obj : Heap_obj.t) i =
  let fields = obj.Heap_obj.fields in
  let w = fields.(i) in
  if not (Word.is_null w) then begin
    stats.Gc_stats.fields_scanned <- stats.Gc_stats.fields_scanned + 1;
    if not (Word.poisoned w) then begin
      let w =
        if config.Trace_common.set_untouched_bits && not (Word.untouched w)
        then begin
          let w' = Word.set_untouched w in
          fields.(i) <- w';
          stats.Gc_stats.untouched_bits_set <-
            stats.Gc_stats.untouched_bits_set + 1;
          w'
        end
        else w
      in
      if not (Store.mem store (Word.target w)) then
        quarantine config stats fields i
      else begin
        let tgt = Store.get store (Word.target w) in
        let edge = { Trace_common.src = obj; field = i; tgt } in
        (match note with None -> () | Some f -> f edge);
        let action =
          match config.Trace_common.edge_filter with
          | None -> Trace_common.Trace
          | Some filter -> filter edge
        in
        match action with
        | Trace_common.Trace ->
          if not (Header.marked tgt.Heap_obj.header) then on_trace tgt
        | Trace_common.Defer ->
          stats.Gc_stats.candidates_enqueued <-
            stats.Gc_stats.candidates_enqueued + 1;
          deferred := edge :: !deferred
        | Trace_common.Poison ->
          (match config.Trace_common.on_poison with
          | Some f -> f edge
          | None -> ());
          (match config.Trace_common.events with
          | Some sink ->
            Lp_obs.Sink.emit sink
              (Lp_obs.Event.Edge_poisoned
                 {
                   src_class = obj.Heap_obj.class_id;
                   field = i;
                   target = tgt.Heap_obj.id;
                 })
          | None -> ());
          fields.(i) <- Word.poison w;
          stats.Gc_stats.references_poisoned <-
            stats.Gc_stats.references_poisoned + 1
      end
    end
  end

let scan_object store stats ~config ~note ~on_trace ~deferred (obj : Heap_obj.t)
    =
  for i = 0 to Array.length obj.Heap_obj.fields - 1 do
    scan_field store stats ~config ~note ~on_trace ~deferred obj i
  done

let drain store stats ~config ~note ~on_trace ~deferred stack =
  while not (Stack.is_empty stack) do
    scan_object store stats ~config ~note ~on_trace ~deferred (Stack.pop stack)
  done

let note_of ?edge_note ?apply_note () =
  match edge_note with
  | None -> None
  | Some en ->
    Some
      (fun e ->
        match (en e, apply_note) with
        | Some triple, Some ap -> ap triple
        | Some _, None | None, _ -> ())

let mark ?edge_note ?apply_note store roots ~stats
    ~(config : Trace_common.mark_config) =
  let stack = Stack.create () in
  let marked = Queue.create () in
  let deferred = ref [] in
  let note = note_of ?edge_note ?apply_note () in
  let on_trace (obj : Heap_obj.t) =
    obj.Heap_obj.header <- Header.set_marked obj.Heap_obj.header;
    stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
    Queue.push obj marked;
    Stack.push obj stack
  in
  Roots.iter roots (fun id ->
      let obj = Store.get store id in
      if not (Header.marked obj.Heap_obj.header) then on_trace obj);
  drain store stats ~config ~note ~on_trace ~deferred stack;
  Queue.iter (tick stats config.Trace_common.stale_tick_gc) marked;
  List.rev !deferred

let stale_closure ?events store ~stats ~set_untouched_bits ~stale_tick_gc
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
    let stack = Stack.create () in
    let claimed = Queue.create () in
    let bytes = ref 0 in
    let claim (obj : Heap_obj.t) =
      obj.Heap_obj.header <-
        Header.set_stale_marked (Header.set_marked obj.Heap_obj.header);
      stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
      Queue.push obj claimed;
      stats.Gc_stats.stale_closure_objects <-
        stats.Gc_stats.stale_closure_objects + 1;
      bytes := !bytes + obj.Heap_obj.size_bytes;
      Stack.push obj stack
    in
    claim tgt;
    drain store stats ~config ~note:None ~on_trace:claim ~deferred:(ref [])
      stack;
    Queue.iter (tick stats stale_tick_gc) claimed;
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
  {
    Trace_engine.name = "ref";
    mark =
      (fun ~gc:_ ?edge_note ?apply_note store roots ~stats ~config ->
        mark ?edge_note ?apply_note store roots ~stats ~config);
    begin_stale = (fun () -> ());
    stale_closure =
      (fun ~gc:_ ?events store ~stats ~set_untouched_bits ~stale_tick_gc e ->
        stale_closure ?events store ~stats ~set_untouched_bits ~stale_tick_gc
          e);
    end_stale = (fun ~gc:_ ~events:_ -> ());
    sweep = (fun ~gc:_ ?events:_ store ~stats -> sweep store ~stats);
    minor_drain = None;
    take_pauses = (fun () -> []);
    max_slice_work = (fun () -> 0);
    shutdown = (fun () -> ());
  }
