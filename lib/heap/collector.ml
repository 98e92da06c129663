(* The one mark-sweep engine, with or without a pause bound.

   Every closure is [scan] over the engine-owned mark stack. Without a
   slice budget each phase is one call with no limit: the mark and
   stale closures scan until the stack is empty, and no pause sample is
   recorded (the VM accounts the collection as one Monolithic pause).

   A claim writes the store's mark sense, which [mark] flips
   ([Store.begin_mark]), into the object's header. The sweep is not
   part of the pause. Every site that claims an
   object (a closure's claims, the finalizer pass) counts the object
   and its bytes, so [sweep] only settles the store's totals from those
   counts, in O(1), and the store frees the dead slots as allocation
   reaches them (see [Store.settle]).

   With a budget the same DFS over the same stack merely stops every
   [budget] scanned objects. Traversal order, the deferred-candidate
   order, the ticks and every Gc_stats counter are therefore
   bit-identical with and without a budget — the differential oracle
   enforces this at several budgets. Only the pause profile changes:
   each mark slice is recorded as its own tagged pause sample, so max
   pause is bounded by the budget instead of by heap size, and the
   settle step ends the collection with one Sweep_slice sample.

   The budget is mutable between collections ([set_slice_budget]): the
   pause-SLO autopilot retunes it from wall-clock feedback, which is
   safe exactly because the budget can never change an outcome, only
   where the slice boundaries fall.

   Every scan also records its object as a poison holder when one of
   its words is poisoned once the scan is done, whether the scan found
   it so or poisoned it. Each marked object is scanned exactly once per
   collection, so the record names every marked object that holds a
   poisoned word, each once: a resurrection VM reads the poisoned words
   of the surviving heap from it, between the mark and the sweep,
   instead of walking every slot again. *)

type edge = { src : int; field : int; tgt : int }

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

(* Stale closures claim shared sub-structures first-come-first-served,
   so candidate order affects which edge type the claimed bytes are
   attributed to. The controller processes candidates in canonical
   (source id, field) order — a total order on edges — so SELECT
   outcomes do not depend on traversal order or slice budget. *)
let canonical_candidates deferred =
  List.sort
    (fun (a : edge) (b : edge) ->
      match compare a.src b.src with
      | 0 -> compare a.field b.field
      | c -> c)
    deferred

(* The end-of-phase tick batch. A filtered closure must not tick as it
   marks: the edge filter reads target staleness, so ticking
   mid-traversal would make filter decisions depend on visit order
   (whole DFS or sliced DFS). Such a closure queues its ticks in
   [ticks] and applies them after the whole closure finishes, so every
   filter evaluation sees the mark-start staleness. A closure without a
   filter has no reader of staleness while it runs, so [scan] ticks
   each object at its claim instead. Both give the same counters,
   because a tick depends only on the object's own counter and the
   collection number. Both buffers hold object ids, as the words and
   roots the mark reads do, and keep their capacity when cleared, so
   they allocate nothing once grown.

   The poison holders (see the header) also hold ids. Every phase of
   one collection adds to them, so [mark] clears them and [reset],
   which starts every stale closure, leaves them. The queue starts with
   no capacity, so an engine whose scans find no poisoned word never
   allocates its array. *)
type t = {
  stack : Work_queue.t;  (* the mark stack *)
  ticks : Work_queue.t;  (* ids a filtered closure marked *)
  holders : Work_queue.t;  (* ids of the poison holders, in scan order *)
  mutable claimed_bytes : int;  (* bytes the stale closure claimed *)
  mutable marked_objects : int;  (* objects this collection marked *)
  mutable marked_bytes : int;  (* their bytes *)
  mutable budget : int option;  (* None: every phase is one pause *)
  mutable pauses : (Trace_engine.pause_phase * int) list;
      (* reverse order; drained by take_pauses *)
  mutable max_slice : int;  (* most objects scanned in one slice, ever *)
  mutable slices : int;  (* slices run, all collections *)
}

let create ?slice_budget () =
  (match slice_budget with
  | Some b when b < 1 -> invalid_arg "Collector.create: slice_budget < 1"
  | Some _ | None -> ());
  {
    stack = Work_queue.create ();
    ticks = Work_queue.create ();
    holders = Work_queue.create ~capacity:0 ();
    claimed_bytes = 0;
    marked_objects = 0;
    marked_bytes = 0;
    budget = slice_budget;
    pauses = [];
    max_slice = 0;
    slices = 0;
  }

let set_slice_budget t budget =
  if budget < 1 then invalid_arg "Collector.set_slice_budget: budget < 1";
  match t.budget with
  | None ->
    invalid_arg "Collector.set_slice_budget: engine has no slice budget"
  | Some _ -> t.budget <- Some budget

let slices t = t.slices

let poison_holders t = t.holders

let max_slice_work t = t.max_slice

let take_pauses t =
  let p = List.rev t.pauses in
  t.pauses <- [];
  p

(* Empties the mark stack and the tick batch and zeroes the byte count
   at the start of each closure, so one aborted by an exception leaves
   nothing behind. The poison holders stay: a SELECT collection runs a
   stale closure per candidate, and what each one records belongs to
   the collection. *)
let reset t =
  Work_queue.clear t.stack;
  Work_queue.clear t.ticks;
  t.claimed_bytes <- 0

(* Applies the tick batch in mark order for collection number [gc]
   (nothing when [None]) and empties it. *)
let flush_ticks t store stats gc =
  (match gc with
  | None -> ()
  | Some gc_number ->
    Work_queue.iter t.ticks (fun id ->
        stats.Gc_stats.stale_tick_scans <- stats.Gc_stats.stale_tick_scans + 1;
        if Stale_counter.tick_object store ~gc_number id then
          stats.Gc_stats.stale_ticks <- stats.Gc_stats.stale_ticks + 1));
  Work_queue.clear t.ticks

(* A non-poisoned reference word whose target is not live is corrupt
   (fault injection, or a collector bug). Crashing inside a collection
   would take the whole VM down, so the word is quarantined instead:
   poisoned like a pruned reference, turning any later program access
   into a structured error. *)
let quarantine ?(events = None) store stats id i =
  let w = Store.field store id i in
  (match events with
  | Some sink ->
    Lp_obs.Sink.emit sink (Lp_obs.Event.Quarantine { target = Word.target w })
  | None -> ());
  Store.set_field store id i (Word.poison w);
  stats.Gc_stats.words_quarantined <- stats.Gc_stats.words_quarantined + 1

(* A stale closure also counts the bytes it claims. *)
type claim = In_use | Stale

(* Claims object [id], whose header is [h], for the running closure:
   writes the mark [sense] into it, ticks it now ([tick_now]) or queues
   its tick ([tick_batched]), and pushes it on the mark stack. Returns
   1 when the tick raised the counter, else 0. [scan] and [claim] share
   this one body. *)
let[@inline] claim_obj t store ~sense ~tick_now ~tick_batched ~gc id h =
  let h = Header.with_mark h sense in
  let k = Header.stale_counter h in
  let bump =
    tick_now && Stale_counter.should_increment ~gc_number:gc ~current:k
  in
  Store.set_header store id
    (if bump then Header.with_stale_counter h (k + 1) else h);
  if tick_batched then Work_queue.push t.ticks id;
  Work_queue.push t.stack id;
  if bump then 1 else 0

(* Counts one object the collection marked, whose header is [h]. *)
let[@inline] count_marked t h =
  t.marked_objects <- t.marked_objects + 1;
  t.marked_bytes <- t.marked_bytes + Header.size h

(* Claims the live, unmarked object [id] the way [scan] claims a traced
   target, for a closure's entry points (the roots, a stale closure's
   candidate target). *)
let claim t store stats ~(config : mark_config) kind id =
  let gc = match config.stale_tick_gc with Some g -> g | None -> 0 in
  let ticking = config.stale_tick_gc <> None in
  let filtered = Option.is_some config.edge_filter in
  let tick_now = ticking && not filtered in
  let h = Store.header store id in
  let ticked =
    claim_obj t store ~sense:(Store.mark_sense store) ~tick_now
      ~tick_batched:(ticking && filtered) ~gc id h
  in
  count_marked t h;
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
    t.claimed_bytes <- t.claimed_bytes + Header.size h

(* One live edge of a filtered closure: builds the edge once, runs the
   filter on it, applies [Defer] and [Poison], and returns the action.
   Out of line: a closure without a filter never comes here. *)
let[@inline never] filtered_edge store stats (config : mark_config) filter
    deferred src i tgt w =
  let e = { src; field = i; tgt } in
  match filter e with
  | Trace -> Trace
  | Defer ->
    stats.Gc_stats.candidates_enqueued <-
      stats.Gc_stats.candidates_enqueued + 1;
    deferred := e :: !deferred;
    Defer
  | Poison ->
    (* the hook sees the edge while the target's subtree is still
       intact, so it can capture a swap image before the sweep *)
    (match config.on_poison with Some f -> f e | None -> ());
    (match config.events with
    | Some sink ->
      Lp_obs.Sink.emit sink
        (Lp_obs.Event.Edge_poisoned
           {
             src_class = Store.class_of store src;
             field = i;
             target = tgt;
           })
    | None -> ());
    Store.set_field store src i (Word.poison w);
    stats.Gc_stats.references_poisoned <-
      stats.Gc_stats.references_poisoned + 1;
    Poison

(* The one scan loop, for the in-use closure, the stale closures and
   every budgeted slice. Pops up to [limit] ids off the mark stack and
   scans each object's fields in index order, as one run of the store's
   word array. Per field it maintains the untouched bit, quarantines
   corrupt words, runs the filter when there is one, and claims
   unclaimed traced targets in place, counting their bytes. An object
   with a poisoned word, found or made, is pushed on the poison holders
   once its fields are done. A target is
   judged by its word in the store's header array alone, as the mark
   has finished the sweep: free means a corrupt reference, the mark
   sense means already claimed. The config and the sense are read into
   locals once
   and the counters are kept in locals, added to [stats] when the loop
   returns. Nothing the loop calls allocates in the store, so the word
   array it reads stays the store's for the whole loop. Returns the
   number of objects scanned. *)
let[@inline] scan_loop t store stats ~(config : mark_config) ~set_untouched
    ~filter ~tick_now ~tick_batched ~kind ~deferred ~limit =
  let stack = t.stack in
  let words = Store.words store in
  let events = config.events in
  let sense = Store.mark_sense store in
  let gc = match config.stale_tick_gc with Some g -> g | None -> 0 in
  let scanned = ref 0 and fields_scanned = ref 0 and untouched_set = ref 0 in
  let marked = ref 0 and ticked = ref 0 and bytes = ref 0 in
  while !scanned < limit && not (Work_queue.is_empty stack) do
    incr scanned;
    let id = Work_queue.pop stack in
    let e = Store.extent store id in
    let off = Store.extent_offset e in
    let holder = ref false in
    for j = off to off + Store.extent_count e - 1 do
      let w = Array.unsafe_get words j in
      if not (Word.is_null w) then begin
        incr fields_scanned;
        if not (Word.poisoned w) then begin
          let w =
            if set_untouched && not (Word.untouched w) then begin
              let w' = Word.set_untouched w in
              Array.unsafe_set words j w';
              incr untouched_set;
              w'
            end
            else w
          in
          let tgt = Word.target w in
          let h = Store.header store tgt in
          if Header.is_free h then begin
            quarantine ~events store stats id (j - off);
            holder := true
          end
          else if
            (match filter with
            | None -> true
            | Some f -> (
              match
                filtered_edge store stats config f deferred id (j - off) tgt w
              with
              | Trace -> true
              | Defer -> false
              | Poison ->
                holder := true;
                false))
            && Header.mark h <> sense
          then begin
            incr marked;
            ticked :=
              !ticked
              + claim_obj t store ~sense ~tick_now ~tick_batched ~gc tgt h;
            bytes := !bytes + Header.size h
          end
        end
        else holder := true
      end
    done;
    if !holder then Work_queue.push t.holders id
  done;
  stats.Gc_stats.fields_scanned <-
    stats.Gc_stats.fields_scanned + !fields_scanned;
  stats.Gc_stats.untouched_bits_set <-
    stats.Gc_stats.untouched_bits_set + !untouched_set;
  stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + !marked;
  t.marked_objects <- t.marked_objects + !marked;
  t.marked_bytes <- t.marked_bytes + !bytes;
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
    t.claimed_bytes <- t.claimed_bytes + !bytes);
  !scanned

(* [scan_loop] is inlined twice. A closure that tracks nothing (no
   filter, no ticks, no untouched bits: the in-use closure of an
   INACTIVE or base collection) gets a copy with those flags as
   constants, so the compiler drops their tests and the loop keeps
   fewer values live; every other closure gets the flags from its
   config. One loop, so the outcomes cannot differ; the constant copy
   marks a settled pool heap about 15% faster (EXPERIMENTS.md). *)
let scan t store stats ~(config : mark_config) ~kind ~deferred ~limit =
  let ticking = config.stale_tick_gc <> None in
  match (config.edge_filter, kind) with
  | None, In_use when (not ticking) && not config.set_untouched_bits ->
    scan_loop t store stats ~config ~set_untouched:false ~filter:None
      ~tick_now:false ~tick_batched:false ~kind:In_use ~deferred ~limit
  | filter, _ ->
    let filtered = Option.is_some filter in
    scan_loop t store stats ~config ~set_untouched:config.set_untouched_bits
      ~filter ~tick_now:(ticking && not filtered)
      ~tick_batched:(ticking && filtered) ~kind ~deferred ~limit

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let record_pause t phase slice_start =
  let now = now_ns () in
  t.pauses <- (phase, now - !slice_start) :: t.pauses;
  slice_start := now

(* Scans until the mark stack is empty. Without a budget that is one
   call; with one, each slice scans at most [budget] objects, then
   counts itself and records a [Mark_slice] pause sample. A closure
   always runs at least one slice. *)
let run_closure t store stats ~config ~kind ~deferred =
  match t.budget with
  | None ->
    ignore (scan t store stats ~config ~kind ~deferred ~limit:max_int)
  | Some budget ->
    let slice_start = ref (now_ns ()) in
    let more = ref true in
    while !more do
      let work = scan t store stats ~config ~kind ~deferred ~limit:budget in
      t.slices <- t.slices + 1;
      if work > t.max_slice then t.max_slice <- work;
      record_pause t Trace_engine.Mark_slice slice_start;
      more := not (Work_queue.is_empty t.stack)
    done

(* A collection starts here: the store finishes the last one's sweep
   and flips the sense, and the counts start at zero. *)
let mark t store roots ~stats ~(config : mark_config) =
  Store.begin_mark store;
  reset t;
  Work_queue.clear t.holders;
  t.marked_objects <- 0;
  t.marked_bytes <- 0;
  let deferred = ref [] in
  let sense = Store.mark_sense store in
  Roots.iter roots (fun id ->
      let h = Store.header store id in
      if Header.is_free h then raise (Store.Dangling_reference id);
      if Header.mark h <> sense then claim t store stats ~config In_use id);
  run_closure t store stats ~config ~kind:In_use ~deferred;
  flush_ticks t store stats config.stale_tick_gc;
  List.rev !deferred

(* The stale closure traces everything (no filter), so [scan] ticks
   each object at its claim; it also counts the claimed bytes. *)
let stale_closure t ?events store ~stats ~set_untouched_bits ~stale_tick_gc
    (e : edge) =
  if Store.marked store e.tgt then 0
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
    reset t;
    claim t store stats ~config Stale e.tgt;
    run_closure t store stats ~config ~kind:Stale ~deferred:(ref []);
    t.claimed_bytes
  end

let resurrect_finalizables t store ~stats ~on_finalize =
  (* Collect first, in one loop over the header array: marking referents
     while iterating would otherwise make the visit order matter. *)
  let pending = Work_queue.create () in
  let sense = Store.mark_sense store in
  for id = 1 to Store.slot_count store do
    let h = Store.header store id in
    if
      (not (Header.is_free h))
      && Header.mark h <> sense
      && Header.finalizable h
      && not (Header.finalizer_enqueued h)
    then Work_queue.push pending id
  done;
  let queue = Work_queue.create () in
  let mark_live id =
    let h = Store.header store id in
    if Header.mark h <> sense then begin
      Store.set_header store id (Header.with_mark h sense);
      count_marked t h;
      stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
      Work_queue.push queue id
    end
  in
  Work_queue.iter pending (fun id ->
      Store.set_header store id
        (Header.set_finalizer_enqueued (Store.header store id));
      stats.Gc_stats.finalizers_enqueued <-
        stats.Gc_stats.finalizers_enqueued + 1;
      mark_live id;
      on_finalize (Store.get store id));
  while not (Work_queue.is_empty queue) do
    let id = Work_queue.pop queue in
    let holder = ref false in
    for i = 0 to Store.n_fields store id - 1 do
      let w = Store.field store id i in
      if not (Word.is_null w) then
        if Word.poisoned w then holder := true
        else begin
          let tgt = Word.target w in
          if Store.mem store tgt then mark_live tgt
          else begin
            quarantine store stats id i;
            holder := true
          end
        end
    done;
    if !holder then Work_queue.push t.holders id
  done

(* The end of a collection, in O(1): the store takes the marked totals
   and frees the dead slots later, in descending slot order, as
   allocation reaches them, so free-id recycling is that of an eager
   sweep from the top slot down. With a budget this is the
   collection's one [Sweep_slice] pause sample. *)
let sweep t store ~stats =
  let settle () =
    Store.settle store stats ~objects:t.marked_objects ~bytes:t.marked_bytes
  in
  match t.budget with
  | None -> settle ()
  | Some _ ->
    let slice_start = ref (now_ns ()) in
    settle ();
    record_pause t Trace_engine.Sweep_slice slice_start
