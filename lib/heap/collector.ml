(* The edge vocabulary is Trace_common's, re-exported under its
   historical names; the closures themselves live in the engines. *)

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
        let tgt = Store.find store (Word.target w) in
        if tgt == Store.sentinel then Trace_common.quarantine stats fields i
        else mark_live tgt
    done
  done
