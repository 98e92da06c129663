type result = {
  promoted_objects : int;
  promoted_bytes : int;
  freed_objects : int;
  freed_bytes : int;
  slots_scanned : int;
}

(* Marks (with the minor mark, cleared before returning: bit 0 holds
   the full collector's sense) every nursery object reachable from roots
   and remembered slots, scanning only nursery objects' fields plus the
   remembered mature slots. The last full collection's sweep is
   finished first, so every non-free slot holds a live object. *)
let collect ?events ?(number = 0) store roots ~remset =
  (match events with
  | Some sink -> Lp_obs.Sink.emit sink (Lp_obs.Event.Minor_begin { n = number })
  | None -> ());
  Store.finish_sweep store;
  let queue = Work_queue.create () in
  let slots_scanned = ref 0 in
  let consider id =
    let h = Store.header store id in
    if
      (not (Header.is_free h)) && Header.in_nursery h && not (Header.minor_marked h)
    then begin
      Store.set_header store id (Header.set_minor_marked h);
      Work_queue.push queue id
    end
  in
  Roots.iter roots consider;
  Remset.iter remset (fun ~src_id ~field ->
      incr slots_scanned;
      (* a miss: the source died in an earlier full collection *)
      if Store.mem store src_id then begin
        let w = Store.field store src_id field in
        if (not (Word.is_null w)) && not (Word.poisoned w) then
          consider (Word.target w)
      end);
  while not (Work_queue.is_empty queue) do
    let id = Work_queue.pop queue in
    for i = 0 to Store.n_fields store id - 1 do
      let w = Store.field store id i in
      incr slots_scanned;
      if (not (Word.is_null w)) && not (Word.poisoned w) then
        consider (Word.target w)
    done
  done;
  (* Sweep the nursery in place, in descending slot order: promote
     survivors, free the rest as they are reached. *)
  let promoted_objects = ref 0 and promoted_bytes = ref 0 in
  let freed_objects = ref 0 and freed_bytes = ref 0 in
  for id = Store.slot_count store downto 1 do
    let h = Store.header store id in
    if (not (Header.is_free h)) && Header.in_nursery h then begin
      let size = Store.size_bytes store id in
      if Header.minor_marked h then begin
        Store.set_header store id (Header.clear_minor_marked h);
        Store.promote store id;
        incr promoted_objects;
        promoted_bytes := !promoted_bytes + size
      end
      else begin
        incr freed_objects;
        freed_bytes := !freed_bytes + size;
        Store.free store (Store.get store id)
      end
    end
  done;
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
