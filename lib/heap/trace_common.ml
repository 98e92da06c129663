type edge = { src : Heap_obj.t; field : int; tgt : int }

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

(* The end-of-phase tick batch. A filtered or noted closure must not
   tick as it marks: the edge filter reads target staleness, so ticking
   mid-traversal would make filter decisions depend on visit order
   (whole DFS or sliced DFS). Such a closure queues its ticks in
   [ticks] and applies them after the whole closure finishes, so every
   filter evaluation sees the mark-start staleness. A closure with
   neither a filter nor a note has no reader of staleness while it
   runs, so [scan] ticks each object at its claim instead. Both give
   the same counters, because a tick depends only on the object's own
   counter and the collection number. The batch is a buffer of object
   ids that keeps its capacity, so an engine-owned batch allocates
   nothing once grown. It holds ids, not handles: the batch lives in
   OCaml's major heap, so storing a recently allocated handle into it
   would add an entry to OCaml's remembered set, and a full set forces
   an OCaml minor collection inside the pause. The flush reads and
   writes each id's word in the store's header array. *)
type buffers = {
  stack : Work_queue.t;
  ticks : Work_queue.t;
  mutable claimed_bytes : int;
}

let buffers () =
  {
    stack = Work_queue.create ();
    ticks = Work_queue.create ();
    claimed_bytes = 0;
  }

let reset_buffers b =
  Work_queue.clear b.stack;
  Work_queue.clear b.ticks;
  b.claimed_bytes <- 0

let flush_ticks store stats gc b =
  (match gc with
  | None -> ()
  | Some gc_number ->
    Work_queue.iter b.ticks (fun id ->
        stats.Gc_stats.stale_tick_scans <- stats.Gc_stats.stale_tick_scans + 1;
        if Stale_counter.tick_object store ~gc_number id then
          stats.Gc_stats.stale_ticks <- stats.Gc_stats.stale_ticks + 1));
  Work_queue.clear b.ticks

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

type claim = In_use | Stale

(* Claims object [id], whose header is [h], for the running closure:
   sets its mark bit (and, for a stale claim, the stale-mark bit),
   ticks it now ([tick_now]) or queues its tick ([tick_batched]), and
   pushes it on the mark stack. Returns 1 when the tick raised the
   counter, else 0. [scan] and [claim] share this one body. *)
let[@inline] claim_obj store b ~kind ~tick_now ~tick_batched ~gc id h =
  let h = Header.set_marked h in
  let h = match kind with In_use -> h | Stale -> Header.set_stale_marked h in
  let k = Header.stale_counter h in
  let bump =
    tick_now && Stale_counter.should_increment ~gc_number:gc ~current:k
  in
  Store.set_header store id
    (if bump then Header.with_stale_counter h (k + 1) else h);
  if tick_batched then Work_queue.push b.ticks id;
  Work_queue.push b.stack id;
  if bump then 1 else 0

(* Whether the closure has a reader of each edge: a filter or a note. *)
let[@inline] hooked ~(config : mark_config) ~note =
  match (config.edge_filter, note) with None, None -> false | _ -> true

let claim store b stats ~(config : mark_config) ~note kind id =
  let gc = match config.stale_tick_gc with Some g -> g | None -> 0 in
  let ticking = config.stale_tick_gc <> None in
  let hooked = hooked ~config ~note in
  let tick_now = ticking && not hooked in
  let ticked =
    claim_obj store b ~kind ~tick_now ~tick_batched:(ticking && hooked) ~gc id
      (Store.header store id)
  in
  stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
  if tick_now then begin
    stats.Gc_stats.stale_tick_scans <- stats.Gc_stats.stale_tick_scans + 1;
    stats.Gc_stats.stale_ticks <- stats.Gc_stats.stale_ticks + ticked
  end;
  match kind with
  | In_use -> ()
  | Stale ->
    stats.Gc_stats.stale_closure_objects <-
      stats.Gc_stats.stale_closure_objects + 1;
    b.claimed_bytes <- b.claimed_bytes + Store.size_bytes store id

(* One live edge of a filtered or noted closure: builds the edge once,
   evaluates the note, then the filter, and applies [Defer] and
   [Poison]. Returns whether the edge is traced. Out of line: a closure
   with neither a filter nor a note never comes here. *)
let[@inline never] hooked_edge store stats (config : mark_config) note deferred
    (obj : Heap_obj.t) i tgt w =
  let e = { src = obj; field = i; tgt } in
  (match note with None -> () | Some f -> f e);
  match config.edge_filter with
  | None -> true
  | Some filter -> (
    match filter e with
    | Trace -> true
    | Defer ->
      stats.Gc_stats.candidates_enqueued <-
        stats.Gc_stats.candidates_enqueued + 1;
      deferred := e :: !deferred;
      false
    | Poison ->
      (* the hook sees the edge while the target's subtree is still
         intact, so it can capture a swap image before the sweep *)
      (match config.on_poison with Some f -> f e | None -> ());
      (match config.events with
      | Some sink ->
        Lp_obs.Sink.emit sink
          (Lp_obs.Event.Edge_poisoned
             {
               src_class = Store.class_of store obj.Heap_obj.id;
               field = i;
               target = tgt;
             })
      | None -> ());
      obj.Heap_obj.fields.(i) <- Word.poison w;
      stats.Gc_stats.references_poisoned <-
        stats.Gc_stats.references_poisoned + 1;
      false)

(* The one scan loop, for the in-use closure, the stale closures and
   every budgeted slice. Per field it maintains the untouched bit,
   quarantines corrupt words, runs the note and the filter when there
   are any, and claims unmarked traced targets in place. A target is
   judged by its word in the store's header array alone: free means a
   corrupt reference, marked means already claimed; its handle is never
   loaded. The config is read into locals once and the counters are
   kept in locals, added to [stats] when the loop returns. *)
let scan store stats ~(config : mark_config) ~note ~kind b ~deferred ~limit =
  let stack = b.stack in
  let set_untouched = config.set_untouched_bits in
  let events = config.events in
  let gc = match config.stale_tick_gc with Some g -> g | None -> 0 in
  let ticking = config.stale_tick_gc <> None in
  let hooked = hooked ~config ~note in
  let tick_now = ticking && not hooked in
  let tick_batched = ticking && hooked in
  let scanned = ref 0 and fields_scanned = ref 0 and untouched_set = ref 0 in
  let marked = ref 0 and ticked = ref 0 and bytes = ref 0 in
  while !scanned < limit && not (Work_queue.is_empty stack) do
    incr scanned;
    let obj = Store.get store (Work_queue.pop stack) in
    let fields = obj.Heap_obj.fields in
    for i = 0 to Array.length fields - 1 do
      let w = Array.unsafe_get fields i in
      if not (Word.is_null w) then begin
        incr fields_scanned;
        if not (Word.poisoned w) then begin
          let w =
            if set_untouched && not (Word.untouched w) then begin
              let w' = Word.set_untouched w in
              Array.unsafe_set fields i w';
              incr untouched_set;
              w'
            end
            else w
          in
          let tgt = Word.target w in
          let h = Store.header store tgt in
          if Header.is_free h then quarantine ~events stats fields i
          else if
            ((not hooked)
            || hooked_edge store stats config note deferred obj i tgt w)
            && not (Header.marked h)
          then begin
            incr marked;
            ticked :=
              !ticked
              + claim_obj store b ~kind ~tick_now ~tick_batched ~gc tgt h;
            match kind with
            | In_use -> ()
            | Stale -> bytes := !bytes + Store.size_bytes store tgt
          end
        end
      end
    done
  done;
  stats.Gc_stats.fields_scanned <-
    stats.Gc_stats.fields_scanned + !fields_scanned;
  stats.Gc_stats.untouched_bits_set <-
    stats.Gc_stats.untouched_bits_set + !untouched_set;
  stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + !marked;
  if tick_now then begin
    stats.Gc_stats.stale_tick_scans <-
      stats.Gc_stats.stale_tick_scans + !marked;
    stats.Gc_stats.stale_ticks <- stats.Gc_stats.stale_ticks + !ticked
  end;
  (match kind with
  | In_use -> ()
  | Stale ->
    stats.Gc_stats.stale_closure_objects <-
      stats.Gc_stats.stale_closure_objects + !marked;
    b.claimed_bytes <- b.claimed_bytes + !bytes);
  !scanned

(* Stale closures claim shared sub-structures first-come-first-served,
   so candidate order affects which edge type the claimed bytes are
   attributed to. The controller processes candidates in canonical
   (source id, field) order — a total order on edges — so SELECT
   outcomes do not depend on traversal order or slice budget. *)
let canonical_candidates deferred =
  List.sort
    (fun (a : edge) (b : edge) ->
      match compare a.src.Heap_obj.id b.src.Heap_obj.id with
      | 0 -> compare a.field b.field
      | c -> c)
    deferred

(* The one sweep: [Store.sweep_range] walks slots in DESCENDING order
   and frees each dead object as it is reached. Sweeping the segments
   from the top down keeps the overall free order strictly descending,
   so [Store] free-id recycling is identical however the walk is cut.
   Header writes and byte totals are per-object and order-independent,
   so every other outcome matches too. [on_segment] fires after each
   segment of [seg_slots] slots, where a sliced engine records one
   [Sweep_slice] pause sample; an engine without a budget sweeps in one
   segment. *)
let sliced_sweep store ~stats ~seg_slots ~on_segment =
  let n_slots = Store.slot_count store in
  let seg = max 1 seg_slots in
  let n_segs = (n_slots + seg - 1) / seg in
  let live = ref 0 in
  for i = n_segs - 1 downto 0 do
    live :=
      !live
      + Store.sweep_range store stats ~lo:(i * seg)
          ~hi:(min n_slots ((i + 1) * seg));
    on_segment ()
  done;
  Store.set_live_bytes store !live
