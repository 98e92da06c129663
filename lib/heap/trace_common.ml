type edge = { src : Heap_obj.t; field : int; tgt : Heap_obj.t }

type edge_action = Trace | Defer | Poison

type mark_config = {
  set_untouched_bits : bool;
  stale_tick_gc : int option;
  edge_filter : (edge -> edge_action) option;
  on_poison : (edge -> unit) option;
  events : Lp_obs.Sink.t option;
}

let base_config =
  {
    set_untouched_bits = false;
    stale_tick_gc = None;
    edge_filter = None;
    on_poison = None;
    events = None;
  }

let tick stats gc obj =
  match gc with
  | None -> ()
  | Some gc_number ->
    stats.Gc_stats.stale_tick_scans <- stats.Gc_stats.stale_tick_scans + 1;
    if Stale_counter.tick_object ~gc_number obj then
      stats.Gc_stats.stale_ticks <- stats.Gc_stats.stale_ticks + 1

(* Staleness ticks for objects marked during a filtered closure are
   accumulated in a batch and applied only after the whole closure
   finishes: the edge filter reads target staleness, so ticking
   mid-traversal would make filter decisions depend on visit order
   (single-domain DFS, the parallel engine's BFS rounds).
   Deferral keeps every filter evaluation against the mark-start
   staleness; the final counters are unchanged because a tick depends
   only on the object's own counter and the collection number. This is
   the one shared home of that invariant — every engine funnels its
   deferred ticks through here. The batch is a growable array that keeps
   its capacity, so an engine-owned batch allocates nothing once grown.
   It holds the objects themselves, so the flush needs no store lookup
   (two dependent loads per ticked object, on every marked object of an
   OBSERVE collection). Flushed cells are reset to a per-batch [filler]
   object, so the batch never keeps a dead object's record alive. *)
type tick_batch = {
  mutable objs : Heap_obj.t array;  (* the first [len] cells are pending *)
  mutable len : int;
  filler : Heap_obj.t;
}

let tick_batch () : tick_batch =
  let filler =
    {
      Heap_obj.id = 0;
      class_id = 0;
      header = Header.empty;
      fields = [||];
      scalar_bytes = 0;
      size_bytes = 0;
    }
  in
  { objs = Array.make 256 filler; len = 0; filler }

let defer_tick (batch : tick_batch) ~(config : mark_config) obj =
  if config.stale_tick_gc <> None then begin
    if batch.len = Array.length batch.objs then begin
      let objs = Array.make (2 * batch.len) batch.filler in
      Array.blit batch.objs 0 objs 0 batch.len;
      batch.objs <- objs
    end;
    batch.objs.(batch.len) <- obj;
    batch.len <- batch.len + 1
  end

let clear_ticks (batch : tick_batch) =
  Array.fill batch.objs 0 batch.len batch.filler;
  batch.len <- 0

let flush_ticks stats gc (batch : tick_batch) =
  for i = 0 to batch.len - 1 do
    tick stats gc batch.objs.(i)
  done;
  clear_ticks batch

type buffers = { stack : Work_queue.t; ticks : tick_batch }

let buffers () = { stack = Work_queue.create (); ticks = tick_batch () }

let reset_buffers b =
  Work_queue.clear b.stack;
  clear_ticks b.ticks

(* A non-poisoned reference word whose target is not live is corrupt
   (fault injection, or a collector bug). Crashing inside a collection
   would take the whole VM down, so the word is quarantined instead:
   poisoned like a pruned reference, turning any later program access
   into a structured error. *)
let quarantine ?(events = None) stats fields i =
  (match events with
  | Some sink ->
    Lp_obs.Sink.emit sink
      (Lp_obs.Event.Quarantine { target = Word.target fields.(i) })
  | None -> ());
  fields.(i) <- Word.poison fields.(i);
  stats.Gc_stats.words_quarantined <- stats.Gc_stats.words_quarantined + 1

(* Scans one field of [obj]: maintains the untouched bit, evaluates the
   note hook and the edge filter, and dispatches the action. [on_trace]
   is called for unmarked [Trace] targets — the engine marks, queues and
   tick-defers there, which is the only part of the scan that differs
   between the in-use and stale closures. (The parallel
   engine's packet scan mirrors this code field for field but records
   discoveries instead of marking; see [Lp_par.Par_engine].) *)
let scan_field store stats ~(config : mark_config) ~note ~on_trace ~deferred
    (obj : Heap_obj.t) i =
  let fields = obj.Heap_obj.fields in
  let w = fields.(i) in
  if not (Word.is_null w) then begin
    stats.Gc_stats.fields_scanned <- stats.Gc_stats.fields_scanned + 1;
    if not (Word.poisoned w) then begin
      let w =
        if config.set_untouched_bits && not (Word.untouched w) then begin
          let w' = Word.set_untouched w in
          fields.(i) <- w';
          stats.Gc_stats.untouched_bits_set <-
            stats.Gc_stats.untouched_bits_set + 1;
          w'
        end
        else w
      in
      match Store.get_opt store (Word.target w) with
      | None -> quarantine ~events:config.events stats fields i
      | Some tgt -> (
        (match note with
        | None -> ()
        | Some f -> f { src = obj; field = i; tgt });
        let action =
          match config.edge_filter with
          | None -> Trace
          | Some filter -> filter { src = obj; field = i; tgt }
        in
        match action with
        | Trace ->
          if not (Header.marked tgt.Heap_obj.header) then on_trace tgt
        | Defer ->
          stats.Gc_stats.candidates_enqueued <-
            stats.Gc_stats.candidates_enqueued + 1;
          deferred := { src = obj; field = i; tgt } :: !deferred
        | Poison ->
          (* the hook sees the edge while the target's subtree is still
             intact, so it can capture a swap image before the sweep *)
          (match config.on_poison with
          | Some f -> f { src = obj; field = i; tgt }
          | None -> ());
          (match config.events with
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
            stats.Gc_stats.references_poisoned + 1)
    end
  end

let scan_object store stats ~config ~note ~on_trace ~deferred (obj : Heap_obj.t)
    =
  for i = 0 to Array.length obj.Heap_obj.fields - 1 do
    scan_field store stats ~config ~note ~on_trace ~deferred obj i
  done

(* Stale closures claim shared sub-structures first-come-first-served,
   so candidate order affects which edge type the claimed bytes are
   attributed to. Every engine processes candidates in canonical
   (source id, field) order — a total order on edges — so SELECT
   outcomes do not depend on traversal strategy, slice budget or domain
   count. *)
let canonical_candidates deferred =
  List.sort
    (fun (a : edge) (b : edge) ->
      match compare a.src.Heap_obj.id b.src.Heap_obj.id with
      | 0 -> compare a.field b.field
      | c -> c)
    deferred

(* The one sweep every engine runs (the parallel engine's pooled sweep
   aside): slots are walked in DESCENDING order and each dead object is
   freed as it is reached. The strictly descending free order keeps
   [Store] free-id recycling identical however the walk is cut into
   segments. Header writes and
   byte totals are per-object and order-independent, so every other
   outcome matches too. [on_segment] fires after each segment of
   [seg_slots] slots, where a sliced engine records one [Sweep_slice]
   pause sample; an engine without a budget sweeps in one segment. *)
let sliced_sweep store ~stats ~seg_slots ~on_segment =
  let n_slots = Store.slot_count store in
  let seg = max 1 seg_slots in
  let n_segs = (n_slots + seg - 1) / seg in
  let live = ref 0 in
  let visit (obj : Heap_obj.t) =
    if Header.marked obj.Heap_obj.header then begin
      obj.Heap_obj.header <- Header.clear_gc_bits obj.Heap_obj.header;
      live := !live + obj.Heap_obj.size_bytes
    end
    else begin
      stats.Gc_stats.objects_swept <- stats.Gc_stats.objects_swept + 1;
      stats.Gc_stats.bytes_reclaimed <-
        stats.Gc_stats.bytes_reclaimed + obj.Heap_obj.size_bytes;
      Store.free store obj
    end
  in
  for i = n_segs - 1 downto 0 do
    Store.iter_live_range_desc store ~lo:(i * seg)
      ~hi:(min n_slots ((i + 1) * seg))
      visit;
    on_segment ()
  done;
  Store.set_live_bytes store !live

(* Combines the split Individual_refs byte-accounting pair into the
   per-edge note hook [scan_field] expects. Engines that evaluate and
   apply at the same point (Inc_engine) use this; the
   parallel engine keeps the halves apart so workers stay pure. *)
let note_fn ?edge_note ?apply_note () =
  match edge_note with
  | None -> None
  | Some en ->
    Some
      (fun e ->
        match en e with
        | None -> ()
        | Some triple -> (
          match apply_note with None -> () | Some ap -> ap triple))
