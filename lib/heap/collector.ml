(* The one mark-sweep engine, with or without a pause bound.

   Every closure is [scan] over the engine-owned mark stack. Without a
   slice budget each phase is one call with no limit: the mark and
   stale closures scan until the stack is empty, the sweep is one
   segment, and no pause sample is recorded (the VM accounts the
   collection as one Monolithic pause).

   With a budget the same DFS over the same stack merely stops every
   [budget] scanned objects, and the sweep runs in [budget]-slot
   segments whose descending order reproduces the one-segment free
   order exactly. Traversal order, the deferred-candidate order, the
   ticks and every Gc_stats counter are therefore bit-identical with
   and without a budget — the differential oracle enforces this at
   several budgets. Only the pause profile changes: each mark slice and
   each sweep segment is recorded as its own tagged pause sample, so
   max pause is bounded by the budget instead of by heap size.

   The budget is mutable between collections ([set_slice_budget]): the
   pause-SLO autopilot retunes it from wall-clock feedback, which is
   safe exactly because the budget can never change an outcome, only
   where the slice boundaries fall. *)

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
   collection number. Both buffers hold object ids and
   keep their capacity when cleared, so they allocate nothing once
   grown. They hold ids, not handles: the engine lives in OCaml's major
   heap, so storing a recently allocated handle into a buffer would add
   an entry to OCaml's remembered set, and a full set forces an OCaml
   minor collection inside the pause. *)
type t = {
  stack : Work_queue.t;  (* the mark stack *)
  ticks : Work_queue.t;  (* ids a filtered closure marked *)
  mutable claimed_bytes : int;  (* bytes the stale closure claimed *)
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
    claimed_bytes = 0;
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

let max_slice_work t = t.max_slice

let take_pauses t =
  let p = List.rev t.pauses in
  t.pauses <- [];
  p

(* Empties both buffers and zeroes the byte count at the start of each
   closure, so one aborted by an exception leaves nothing behind. *)
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

(* The in-use closure sets the mark bit; a stale closure also sets the
   stale-mark bit and counts the object and its bytes. *)
type claim = In_use | Stale

(* Claims object [id], whose header is [h], for the running closure:
   sets its mark bit (and, for a stale claim, the stale-mark bit),
   ticks it now ([tick_now]) or queues its tick ([tick_batched]), and
   pushes it on the mark stack. Returns 1 when the tick raised the
   counter, else 0. [scan] and [claim] share this one body. *)
let[@inline] claim_obj t store ~kind ~tick_now ~tick_batched ~gc id h =
  let h = Header.set_marked h in
  let h = match kind with In_use -> h | Stale -> Header.set_stale_marked h in
  let k = Header.stale_counter h in
  let bump =
    tick_now && Stale_counter.should_increment ~gc_number:gc ~current:k
  in
  Store.set_header store id
    (if bump then Header.with_stale_counter h (k + 1) else h);
  if tick_batched then Work_queue.push t.ticks id;
  Work_queue.push t.stack id;
  if bump then 1 else 0

(* Claims the live, unmarked object [id] the way [scan] claims a traced
   target, for a closure's entry points (the roots, a stale closure's
   candidate target). *)
let claim t store stats ~(config : mark_config) kind id =
  let gc = match config.stale_tick_gc with Some g -> g | None -> 0 in
  let ticking = config.stale_tick_gc <> None in
  let filtered = Option.is_some config.edge_filter in
  let tick_now = ticking && not filtered in
  let ticked =
    claim_obj t store ~kind ~tick_now ~tick_batched:(ticking && filtered) ~gc id
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
    t.claimed_bytes <- t.claimed_bytes + Store.size_bytes store id

(* One live edge of a filtered closure: builds the edge once, runs the
   filter on it and applies [Defer] and [Poison]. Returns whether the
   edge is traced. Out of line: a closure without a filter never comes
   here. *)
let[@inline never] filtered_edge store stats (config : mark_config) filter
    deferred src i tgt w =
  let e = { src; field = i; tgt } in
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
             src_class = Store.class_of store src;
             field = i;
             target = tgt;
           })
    | None -> ());
    Store.set_field store src i (Word.poison w);
    stats.Gc_stats.references_poisoned <-
      stats.Gc_stats.references_poisoned + 1;
    false

(* The one scan loop, for the in-use closure, the stale closures and
   every budgeted slice. Pops up to [limit] ids off the mark stack and
   scans each object's fields in index order, as one run of the store's
   word array. Per field it maintains the untouched bit, quarantines
   corrupt words, runs the filter when there is one, and claims
   unmarked traced targets in place. A target is judged by its word in
   the store's header array alone: free means a corrupt reference,
   marked means already claimed. The config is read into locals once
   and the counters are kept in locals, added to [stats] when the loop
   returns. Nothing the loop calls allocates in the store, so the word
   array it reads stays the store's for the whole loop. Returns the
   number of objects scanned. *)
let[@inline] scan_loop t store stats ~(config : mark_config) ~set_untouched
    ~filter ~tick_now ~tick_batched ~kind ~deferred ~limit =
  let stack = t.stack in
  let words = Store.words store in
  let events = config.events in
  let gc = match config.stale_tick_gc with Some g -> g | None -> 0 in
  let scanned = ref 0 and fields_scanned = ref 0 and untouched_set = ref 0 in
  let marked = ref 0 and ticked = ref 0 and bytes = ref 0 in
  while !scanned < limit && not (Work_queue.is_empty stack) do
    incr scanned;
    let id = Work_queue.pop stack in
    let e = Store.extent store id in
    let off = Store.extent_offset e in
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
          if Header.is_free h then quarantine ~events store stats id (j - off)
          else if
            (match filter with
            | None -> true
            | Some f ->
              filtered_edge store stats config f deferred id (j - off) tgt w)
            && not (Header.marked h)
          then begin
            incr marked;
            ticked :=
              !ticked
              + claim_obj t store ~kind ~tick_now ~tick_batched ~gc tgt h;
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

let mark t store roots ~stats ~(config : mark_config) =
  reset t;
  let deferred = ref [] in
  Roots.iter roots (fun id ->
      let h = Store.header store id in
      if Header.is_free h then raise (Store.Dangling_reference id);
      if not (Header.marked h) then
        claim t store stats ~config In_use id);
  run_closure t store stats ~config ~kind:In_use ~deferred;
  flush_ticks t store stats config.stale_tick_gc;
  List.rev !deferred

(* The stale closure traces everything (no filter), so [scan] ticks
   each object at its claim; it also sets the stale-mark
   diagnostic bit and counts the claimed bytes. *)
let stale_closure t ?events store ~stats ~set_untouched_bits ~stale_tick_gc
    (e : edge) =
  if Header.marked (Store.header store e.tgt) then 0
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

let resurrect_finalizables store ~stats ~on_finalize =
  (* Collect first, in one loop over the header array: marking referents
     while iterating would otherwise make the visit order matter. *)
  let pending = Work_queue.create () in
  for id = 1 to Store.slot_count store do
    let h = Store.header store id in
    if
      (not (Header.is_free h))
      && (not (Header.marked h))
      && Header.finalizable h
      && not (Header.finalizer_enqueued h)
    then Work_queue.push pending id
  done;
  let queue = Work_queue.create () in
  let mark_live id =
    let h = Store.header store id in
    if not (Header.marked h) then begin
      Store.set_header store id (Header.set_marked h);
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
    for i = 0 to Store.n_fields store id - 1 do
      let w = Store.field store id i in
      if (not (Word.is_null w)) && not (Word.poisoned w) then
        let tgt = Word.target w in
        if Store.mem store tgt then mark_live tgt
        else quarantine store stats id i
    done
  done

(* The one sweep: [Store.sweep_range] walks slots in DESCENDING order
   and frees each dead object as it is reached. Sweeping the segments
   from the top down keeps the overall free order strictly descending,
   so [Store] free-id recycling is identical however the walk is cut.
   Header writes and byte totals are per-object and order-independent,
   so every other outcome matches too. Without a budget the sweep is
   one segment covering every slot; with one it runs in segments of
   [budget] slots, one [Sweep_slice] pause sample per segment. *)
let sweep t store ~stats =
  let n_slots = Store.slot_count store in
  let seg, on_segment =
    match t.budget with
    | None -> (max 1 n_slots, ignore)
    | Some budget ->
      let slice_start = ref (now_ns ()) in
      (budget, fun () -> record_pause t Trace_engine.Sweep_slice slice_start)
  in
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
