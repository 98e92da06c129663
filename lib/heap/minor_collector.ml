type result = {
  promoted_objects : int;
  promoted_bytes : int;
  freed_objects : int;
  freed_bytes : int;
  slots_scanned : int;
}

(* Marks (with the ordinary mark bit, cleared before returning) every
   nursery object reachable from roots and remembered slots, scanning
   only nursery objects' fields plus the remembered mature slots. *)
let collect ?events ?(number = 0) ?drain store roots ~remset =
  (match events with
  | Some sink -> Lp_obs.Sink.emit sink (Lp_obs.Event.Minor_begin { n = number })
  | None -> ());
  let queue = Work_queue.create () in
  let slots_scanned = ref 0 in
  let consider id =
    if not (Store.mem store id) then ()
    else
      let obj = Store.get store id in
      if
        Header.in_nursery obj.Heap_obj.header
        && not (Header.marked obj.Heap_obj.header)
      then begin
        obj.Heap_obj.header <- Header.set_marked obj.Heap_obj.header;
        Work_queue.push queue obj.Heap_obj.id
      end
  in
  Roots.iter roots consider;
  Remset.iter remset (fun ~src_id ~field ->
      incr slots_scanned;
      match Store.get_opt store src_id with
      | None -> ()  (* the source died in an earlier full collection *)
      | Some src ->
        let w = src.Heap_obj.fields.(field) in
        if (not (Word.is_null w)) && not (Word.poisoned w) then
          consider (Word.target w));
  (match drain with
  | Some f ->
    (* Parallel path: hand the marked seed set to the external drain
       (the [Lp_par] engine, in practice — this module cannot depend on
       it) and let it run the closure with identical semantics. The
       seed lists the queue in pop order. *)
    let seed = Array.make (Work_queue.length queue) 0 in
    for i = 0 to Array.length seed - 1 do
      seed.(i) <- Work_queue.pop queue
    done;
    f ~queue:seed ~slots_scanned
  | None ->
    while not (Work_queue.is_empty queue) do
      let obj = Store.get store (Work_queue.pop queue) in
      Array.iter
        (fun w ->
          incr slots_scanned;
          if (not (Word.is_null w)) && not (Word.poisoned w) then
            consider (Word.target w))
        obj.Heap_obj.fields
    done);
  (* Sweep the nursery in place, in descending slot order: promote
     survivors, free the rest as they are reached. *)
  let promoted_objects = ref 0 and promoted_bytes = ref 0 in
  let freed_objects = ref 0 and freed_bytes = ref 0 in
  Store.iter_live_range_desc store ~lo:0 ~hi:(Store.slot_count store)
    (fun obj ->
      if Header.in_nursery obj.Heap_obj.header then
        if Header.marked obj.Heap_obj.header then begin
          obj.Heap_obj.header <- Header.clear_gc_bits obj.Heap_obj.header;
          Store.promote store obj;
          incr promoted_objects;
          promoted_bytes := !promoted_bytes + obj.Heap_obj.size_bytes
        end
        else begin
          incr freed_objects;
          freed_bytes := !freed_bytes + obj.Heap_obj.size_bytes;
          Store.free store obj
        end);
  Remset.clear remset;
  (match events with
  | Some sink ->
    Lp_obs.Sink.emit sink
      (Lp_obs.Event.Minor_end
         { n = number; promoted = !promoted_objects; freed = !freed_objects })
  | None -> ());
  {
    promoted_objects = !promoted_objects;
    promoted_bytes = !promoted_bytes;
    freed_objects = !freed_objects;
    freed_bytes = !freed_bytes;
    slots_scanned = !slots_scanned;
  }
