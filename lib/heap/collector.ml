(* The edge vocabulary is Trace_common's, re-exported under its
   historical names; the closures themselves live in the engines. *)

type edge = Trace_common.edge = { src : Heap_obj.t; field : int; tgt : int }

type edge_action = Trace_common.edge_action = Trace | Defer | Poison

type mark_config = Trace_common.mark_config = {
  set_untouched_bits : bool;
  stale_tick_gc : int option;
  edge_filter : (edge -> edge_action) option;
  on_poison : (edge -> unit) option;
  events : Lp_obs.Sink.t option;
}

let base_config = Trace_common.base_config

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
    let fields = (Store.get store (Work_queue.pop queue)).Heap_obj.fields in
    for i = 0 to Array.length fields - 1 do
      let w = fields.(i) in
      if (not (Word.is_null w)) && not (Word.poisoned w) then
        let tgt = Word.target w in
        if Store.mem store tgt then mark_live tgt
        else Trace_common.quarantine stats fields i
    done
  done
