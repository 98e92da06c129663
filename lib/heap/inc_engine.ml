(* The single-domain engine, with or without a pause bound.

   Every closure is Trace_common.scan over the engine-owned mark stack.
   Without a slice budget each phase is one call with no limit: the
   mark and stale closures scan until the stack is empty, the sweep is
   the one-segment Trace_common.sliced_sweep, and no pause sample is
   recorded (the VM accounts the collection as one Monolithic pause).

   With a budget the same DFS over the same stack merely stops every
   [budget] scanned objects, and the sweep runs in [budget]-slot
   segments of Trace_common.sliced_sweep, whose descending-segment
   order reproduces the one-segment free order exactly. Traversal
   order, the deferred-candidate order, the ticks and every Gc_stats
   counter are therefore bit-identical with and without a budget — the
   differential oracle enforces this at several budgets. Only the pause
   profile changes: each mark slice and each sweep segment is recorded
   as its own tagged pause sample, so max pause is bounded by the
   budget instead of by heap size.

   The budget is mutable between collections ([set_slice_budget]): the
   pause-SLO autopilot retunes it from wall-clock feedback, which is
   safe exactly because the budget can never change an outcome, only
   where the slice boundaries fall. *)

type t = {
  mutable budget : int option;  (* None: every phase is one pause *)
  buffers : Trace_common.buffers;  (* mark stack, tick batch, claimed bytes *)
  mutable pauses : (Trace_engine.pause_phase * int) list;
      (* reverse order; drained by take_pauses *)
  mutable max_slice : int;  (* most objects scanned in one slice, ever *)
  mutable slices : int;  (* slices run, all collections *)
}

let create ?slice_budget () =
  (match slice_budget with
  | Some b when b < 1 -> invalid_arg "Inc_engine.create: slice_budget < 1"
  | Some _ | None -> ());
  {
    budget = slice_budget;
    buffers = Trace_common.buffers ();
    pauses = [];
    max_slice = 0;
    slices = 0;
  }

let slice_budget t = t.budget

let set_slice_budget t budget =
  if budget < 1 then invalid_arg "Inc_engine.set_slice_budget: budget < 1";
  match t.budget with
  | None ->
    invalid_arg "Inc_engine.set_slice_budget: engine has no slice budget"
  | Some _ -> t.budget <- Some budget

let slices t = t.slices

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let record_pause t phase slice_start =
  let now = now_ns () in
  t.pauses <- (phase, now - !slice_start) :: t.pauses;
  slice_start := now

(* Scans until the mark stack is empty. Without a budget that is one
   call; with one, each slice scans at most [budget] objects, then
   counts itself and records a [Mark_slice] pause sample. A closure
   always runs at least one slice. *)
let run_closure t store stats ~config ~note ~kind ~deferred =
  let b = t.buffers in
  match t.budget with
  | None ->
    ignore
      (Trace_common.scan store stats ~config ~note ~kind b ~deferred
         ~limit:max_int)
  | Some budget ->
    let slice_start = ref (now_ns ()) in
    let more = ref true in
    while !more do
      let work =
        Trace_common.scan store stats ~config ~note ~kind b ~deferred
          ~limit:budget
      in
      t.slices <- t.slices + 1;
      if work > t.max_slice then t.max_slice <- work;
      record_pause t Trace_engine.Mark_slice slice_start;
      more := not (Work_queue.is_empty b.Trace_common.stack)
    done

let mark t ?edge_note ?apply_note store roots ~stats
    ~(config : Trace_common.mark_config) =
  let b = t.buffers in
  Trace_common.reset_buffers b;
  let deferred = ref [] in
  let note = Trace_common.note_fn ?edge_note ?apply_note () in
  Roots.iter roots (fun id ->
      let obj = Store.get store id in
      if not (Header.marked obj.Heap_obj.header) then
        Trace_common.claim b stats ~config ~note Trace_common.In_use obj);
  run_closure t store stats ~config ~note ~kind:Trace_common.In_use ~deferred;
  Trace_common.flush_ticks store stats config.stale_tick_gc
    b.Trace_common.ticks;
  List.rev !deferred

(* The stale closure traces everything (no filter) and has no note, so
   [scan] ticks each object at its claim; it also sets the stale-mark
   diagnostic bit and counts the claimed bytes. *)
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
    let b = t.buffers in
    Trace_common.reset_buffers b;
    Trace_common.claim b stats ~config ~note:None Trace_common.Stale tgt;
    run_closure t store stats ~config ~note:None ~kind:Trace_common.Stale
      ~deferred:(ref []);
    b.Trace_common.claimed_bytes
  end

(* Without a budget the sweep is one segment covering every slot; with
   one it runs in segments of [budget] slots, one [Sweep_slice] pause
   sample per segment. Trace_common.sliced_sweep frees in the same
   descending order either way. *)
let sweep t store ~stats =
  match t.budget with
  | None ->
    Trace_common.sliced_sweep store ~stats ~seg_slots:(Store.slot_count store)
      ~on_segment:ignore
  | Some budget ->
    let slice_start = ref (now_ns ()) in
    Trace_common.sliced_sweep store ~stats ~seg_slots:budget
      ~on_segment:(fun () ->
        record_pause t Trace_engine.Sweep_slice slice_start)

let engine t =
  {
    Trace_engine.name =
      (match t.budget with
      | None -> "seq"
      | Some b -> Printf.sprintf "inc%d" b);
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
    take_pauses =
      (fun () ->
        let p = List.rev t.pauses in
        t.pauses <- [];
        p);
    max_slice_work = (fun () -> t.max_slice);
    shutdown = (fun () -> ());
  }
