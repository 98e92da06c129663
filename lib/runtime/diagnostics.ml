open Lp_heap

type class_stat = {
  class_name : string;
  objects : int;
  bytes : int;
  max_stale : int;
  min_stale : int;
}

let class_histogram vm =
  let acc : (int, class_stat ref) Hashtbl.t = Hashtbl.create 64 in
  let registry = Vm.registry vm in
  let store = Vm.store vm in
  Store.iter_live store (fun obj ->
      let id = obj.Heap_obj.id in
      let cls = Store.class_of store id in
      let stale = Store.stale store id in
      let size = Store.size_bytes store id in
      match Hashtbl.find_opt acc cls with
      | Some stat ->
        stat :=
          {
            !stat with
            objects = !stat.objects + 1;
            bytes = !stat.bytes + size;
            max_stale = max !stat.max_stale stale;
            min_stale = min !stat.min_stale stale;
          }
      | None ->
        Hashtbl.add acc cls
          (ref
             {
               class_name = Class_registry.name registry cls;
               objects = 1;
               bytes = size;
               max_stale = stale;
               min_stale = stale;
             }));
  Hashtbl.fold (fun _ stat l -> !stat :: l) acc []
  |> List.sort (fun a b -> compare b.bytes a.bytes)

let staleness_histogram vm = Store.staleness_histogram (Vm.store vm)

let stale_bytes vm =
  let store = Vm.store vm in
  let bytes = ref 0 in
  for id = 1 to Store.slot_count store do
    let h = Store.header store id in
    if (not (Header.is_free h)) && Header.stale_counter h >= 2 then
      bytes := !bytes + Store.size_bytes store id
  done;
  !bytes

let misprediction_rate vm =
  let poisoned = (Vm.stats vm).Gc_stats.references_poisoned in
  if poisoned = 0 then 0.0
  else
    float_of_int (Lp_core.Controller.mispredictions (Vm.controller vm))
    /. float_of_int poisoned

let top_edges vm ~n =
  let registry = Vm.registry vm in
  let table = Lp_core.Controller.edge_table (Vm.controller vm) in
  let entries = ref [] in
  Lp_core.Edge_table.iter table (fun ~src ~tgt ~max_stale_use ~bytes_used ->
      entries :=
        ( Class_registry.name registry src,
          Class_registry.name registry tgt,
          max_stale_use,
          bytes_used )
        :: !entries);
  let sorted =
    List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a) !entries
  in
  List.filteri (fun i _ -> i < n) sorted

(* The audit timeline's distinct pruned edge types, first-pruned order.
   With a sink attached this is derived from the [Prune_decision] events
   (the same record the trace exporters see); the controller's own list
   is the fallback so the report works untraced. The event filter
   mirrors the controller's recording rule: an edge was "pruned" only
   when it was selected and at least one reference was poisoned. *)
let pruned_report vm =
  let registry = Vm.registry vm in
  let name (src, tgt) =
    Printf.sprintf "%s -> %s"
      (Class_registry.name registry src)
      (Class_registry.name registry tgt)
  in
  let from_events events =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (st : Lp_obs.Event.stamped) ->
        match st.Lp_obs.Event.ev with
        | Lp_obs.Event.Prune_decision { src_class; tgt_class; refs_poisoned; _ }
          when src_class >= 0 && refs_poisoned > 0
               && not (Hashtbl.mem seen (src_class, tgt_class)) ->
          Hashtbl.add seen (src_class, tgt_class) ();
          Some (name (src_class, tgt_class))
        | _ -> None)
      events
  in
  match Vm.sink vm with
  | Some sink when Lp_obs.Sink.dropped sink = 0 ->
    from_events (Lp_obs.Sink.events sink)
  | Some _ | None ->
    (* no sink, or the ring wrapped and early decisions are gone *)
    List.map name (Lp_core.Controller.pruned_edge_types (Vm.controller vm))

let summary vm =
  let buf = Buffer.create 1024 in
  let controller = Vm.controller vm in
  let snap = Vm.metrics_snapshot vm in
  let counter name =
    match Lp_obs.Metrics.find_counter snap name with Some v -> v | None -> 0
  in
  Buffer.add_string buf
    (Printf.sprintf "heap: %d / %d bytes reachable (%.0f%%), state %s, %d collections\n"
       (Vm.live_bytes vm) (Vm.heap_limit vm)
       (100.
       *. float_of_int (Vm.live_bytes vm)
       /. float_of_int (Vm.heap_limit vm))
       (Lp_core.State_kind.to_string (Lp_core.Controller.state controller))
       (counter "gc.collections"));
  (* The most recent retained per-collection histogram when one exists
     (the registry keeps the last 16); a live traversal only when no
     full collection has recorded one yet. *)
  let hist =
    match Lp_obs.Metrics.find_series snap "gc.staleness_histogram" with
    | Some (_ :: _ as snapshots) -> List.nth snapshots (List.length snapshots - 1)
    | Some [] | None -> staleness_histogram vm
  in
  Buffer.add_string buf "staleness histogram (objects per counter value 0..7):\n  ";
  Array.iter (fun n -> Buffer.add_string buf (Printf.sprintf "%d " n)) hist;
  Buffer.add_string buf
    (Printf.sprintf "\nstale (>=2) bytes: %d\n" (stale_bytes vm));
  Buffer.add_string buf "largest classes by live footprint:\n";
  List.iteri
    (fun i stat ->
      if i < 8 then
        Buffer.add_string buf
          (Printf.sprintf "  %-40s %6d objects %9d bytes (stale %d..%d)\n"
             stat.class_name stat.objects stat.bytes stat.min_stale stat.max_stale))
    (class_histogram vm);
  (match top_edges vm ~n:5 with
  | [] -> ()
  | edges ->
    Buffer.add_string buf "most protected reference types (maxstaleuse):\n";
    List.iter
      (fun (src, tgt, msu, _) ->
        Buffer.add_string buf (Printf.sprintf "  %s -> %s (maxstaleuse %d)\n" src tgt msu))
      edges);
  (match pruned_report vm with
  | [] -> ()
  | pruned ->
    Buffer.add_string buf "pruned reference types so far:\n";
    List.iter (fun l -> Buffer.add_string buf ("  " ^ l ^ "\n")) pruned);
  (* With a trace attached, every PRUNE collection's decision is in the
     event log; render them as the audit timeline (logical time, edge
     type, poison count, reclaimed bytes). *)
  (match Vm.sink vm with
  | None -> ()
  | Some sink ->
    let registry = Vm.registry vm in
    let decisions =
      List.filter_map
        (fun (st : Lp_obs.Event.stamped) ->
          match st.Lp_obs.Event.ev with
          | Lp_obs.Event.Prune_decision
              { src_class; tgt_class; refs_poisoned; bytes_reclaimed } ->
            Some
              (st.Lp_obs.Event.at, src_class, tgt_class, refs_poisoned,
               bytes_reclaimed)
          | _ -> None)
        (Lp_obs.Sink.events sink)
    in
    if decisions <> [] then begin
      Buffer.add_string buf "prune audit timeline:\n";
      List.iter
        (fun (at, src_class, tgt_class, refs_poisoned, bytes_reclaimed) ->
          let edge =
            if src_class < 0 then "<most-stale level>"
            else
              Printf.sprintf "%s -> %s"
                (Class_registry.name registry src_class)
                (Class_registry.name registry tgt_class)
          in
          Buffer.add_string buf
            (Printf.sprintf "  [cycle %d] %s: %d reference(s), %d bytes reclaimed\n"
               at edge refs_poisoned bytes_reclaimed))
        decisions
    end);
  Buffer.contents buf

let to_dot ?(max_objects = 400) vm =
  let store = Vm.store vm in
  let registry = Vm.registry vm in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph heap {\n  rankdir=LR;\n  node [fontsize=9];\n";
  let count = ref 0 in
  Store.iter_live store (fun obj ->
      if !count < max_objects then begin
        incr count;
        let h = Store.header store obj.Heap_obj.id in
        let stale = Header.stale_counter h in
        let shade = 0xF0 - (stale * 0x18) in
        let shape = if Header.statics_container h then "box" else "ellipse" in
        Buffer.add_string buf
          (Printf.sprintf
             "  n%d [label=\"%s\\nid=%d stale=%d\", shape=%s, style=filled, \
              fillcolor=\"#%02x%02x%02x\"];\n"
             obj.Heap_obj.id
             (Class_registry.name registry (Store.class_of store obj.Heap_obj.id))
             obj.Heap_obj.id stale shape shade shade 0xF8);
        Array.iteri
          (fun i w ->
            if not (Word.is_null w) then
              if Word.poisoned w then
                Buffer.add_string buf
                  (Printf.sprintf
                     "  n%d -> p%d_%d [color=red, style=dashed];\n  p%d_%d \
                      [label=\"pruned #%d\", shape=plaintext, fontcolor=red];\n"
                     obj.Heap_obj.id obj.Heap_obj.id i obj.Heap_obj.id i
                     (Word.target w))
              else if Store.mem store (Word.target w) then
                Buffer.add_string buf
                  (Printf.sprintf "  n%d -> n%d;\n" obj.Heap_obj.id (Word.target w)))
          obj.Heap_obj.fields
      end);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let heap_check ?(strict = false) vm =
  let store = Vm.store vm in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let bytes = ref 0 in
  let poisoned_words = ref 0 in
  let on_disk = ref 0 in
  for id = 1 to Store.slot_count store do
    let h = Store.header store id in
    if not (Header.is_free h) then begin
      bytes := !bytes + Store.size_bytes store id;
      if Header.on_disk h then incr on_disk;
      if Header.marked h then
        fail
          (Printf.sprintf "object %d carries a mark bit outside a collection"
             id);
      let fields = (Store.get store id).Heap_obj.fields in
      for i = 0 to Array.length fields - 1 do
        let w = fields.(i) in
        if not (Word.is_null w) then
          if Word.poisoned w then incr poisoned_words
          else if not (Store.mem store (Word.target w)) then
            fail
              (Printf.sprintf
                 "object %d field %d references reclaimed object %d without poison"
                 id i (Word.target w))
      done
    end
  done;
  if !bytes <> Store.used_bytes store then
    fail
      (Printf.sprintf "byte accounting: traversal found %d, store reports %d"
         !bytes (Store.used_bytes store));
  (* Poison accounting: every poisoned word must be explained by pruning,
     a quarantined corrupt word, a deliberate injection, or poison
     re-applied while restoring a resurrected object's fields. *)
  let stats = Vm.stats vm in
  let accounted =
    stats.Gc_stats.references_poisoned
    + stats.Gc_stats.words_quarantined
    + Vm.corruptions_injected vm
    + stats.Gc_stats.words_repoisoned
  in
  if !poisoned_words > 0 && accounted = 0 then
    fail
      (Printf.sprintf
         "%d poisoned words in the heap but no pruning, quarantine, injection \
          or repoisoning ever recorded"
         !poisoned_words);
  if strict && !poisoned_words > accounted then
    (* strict mode assumes no [Mutator.arraycopy] of poisoned words
       (copies duplicate poison without a counter increment) *)
    fail
      (Printf.sprintf
         "%d poisoned words exceed the %d accounted for (pruned %d + \
          quarantined %d + injected %d + repoisoned %d)"
         !poisoned_words accounted stats.Gc_stats.references_poisoned
         stats.Gc_stats.words_quarantined
         (Vm.corruptions_injected vm)
         stats.Gc_stats.words_repoisoned);
  (* Resurrection invariants. The swap store always exists; without the
     offload baseline it holds only prune images. *)
  let swap = Vm.swap vm in
  let image_sum = ref 0 in
  let image_count = ref 0 in
  let swap_faults_fired =
    match Vm.fault_plan vm with
    | None -> 0
    | Some plan ->
      List.length
        (List.filter
           (fun (site, _, _) -> site = Lp_fault.Fault_plan.Swap)
           (Lp_fault.Fault_plan.fired plan))
  in
  Diskswap.iter_images swap (fun ~id ~image ->
      incr image_count;
      image_sum := !image_sum + Bytes.length image;
      (* validated and CRC-checked here, independently of the
         references the store memoised when it wrote the image; strict
         mode then holds the memo to what the bytes say, read in place *)
      let valid = Swap_image.validate image in
      (if strict then
         let agrees =
           match (valid, Diskswap.image_refs swap id) with
           | Ok _, Some refs -> Swap_image.refs_equal image refs
           | Error _, None -> true
           | Ok _, None | Error _, Some _ -> false
         in
         if not agrees then
           fail
             (Printf.sprintf
                "swap image %d: memoised references differ from its bytes" id));
      match valid with
      | Ok _ ->
        let recorded = Swap_image.stored_object_id image in
        if recorded <> id then
          fail
            (Printf.sprintf
               "swap image stored under id %d records object id %d" id recorded)
        (* NB: [Store.mem store id] proves nothing here — the freed
           identifier may have been recycled by an unrelated live
           object, which is exactly why images record referent classes *)
      | Error reason ->
        (* only an injected storage fault may leave a corrupt image *)
        if swap_faults_fired = 0 then
          fail
            (Printf.sprintf "swap image %d is corrupt (%s) with no swap fault \
                             ever injected"
               id
               (Lp_core.Errors.resurrection_failure_to_string reason)));
  if !image_sum <> Diskswap.image_bytes swap then
    fail
      (Printf.sprintf "image accounting: images sum to %d, store reports %d"
         !image_sum (Diskswap.image_bytes swap));
  if Diskswap.image_count swap <> !image_count then
    fail
      (Printf.sprintf "image count: iterated %d, store reports %d" !image_count
         (Diskswap.image_count swap));
  if stats.Gc_stats.resurrections > 0 && not (Vm.resurrection_enabled vm) then
    fail "resurrections counted with the subsystem disabled";
  let controller = Vm.controller vm in
  if
    Lp_core.Controller.pruned_edge_types controller <> []
    && stats.Gc_stats.references_poisoned = 0
    (* a warm-booted VM's restored brain remembers prunes a previous
       incarnation performed; this incarnation's stats start at zero *)
    && not (Vm.warm_boot vm)
  then fail "pruned edge types recorded but no reference was ever poisoned";
  if
    stats.Gc_stats.references_poisoned > 0
    && Lp_core.Controller.averted_error controller = None
  then fail "references were poisoned but no averted error was recorded";
  (* Disk residency: every disk-resident identifier must denote a live
     object of the recorded size, and the totals must close. Strict mode
     also holds the on-disk header bit to the residency table: the read
     barrier trusts the bit alone, so a resident object without it would
     be read from memory it no longer owns. *)
  if strict && !on_disk <> Diskswap.resident_count swap then
    fail
      (Printf.sprintf
         "%d live objects carry the on-disk bit but %d are disk-resident"
         !on_disk (Diskswap.resident_count swap));
  if Vm.offloading vm then begin
    let disk_total = ref 0 in
    Diskswap.iter_resident swap (fun ~id ~bytes ->
        disk_total := !disk_total + bytes;
        let h = Store.header store id in
        if Header.is_free h then
          fail (Printf.sprintf "disk-resident object %d is not live" id)
        else begin
          if Store.size_bytes store id <> bytes then
            fail
              (Printf.sprintf
                 "disk-resident object %d recorded as %d bytes but is %d" id
                 bytes (Store.size_bytes store id));
          if strict && not (Header.on_disk h) then
            fail
              (Printf.sprintf
                 "disk-resident object %d lacks the on-disk header bit" id)
        end);
    if !disk_total <> Diskswap.resident_bytes swap then
      fail
        (Printf.sprintf "disk accounting: entries sum to %d, disk reports %d"
           !disk_total (Diskswap.resident_bytes swap));
    if Diskswap.resident_bytes swap <> Store.swapped_out_bytes store then
      fail
        (Printf.sprintf
           "disk reports %d resident bytes but the store credits %d"
           (Diskswap.resident_bytes swap)
           (Store.swapped_out_bytes store))
  end;
  (* Remembered-set integrity: sources must be live with the recorded
     field in bounds (full collections clear the set; minor collections
     free only nursery objects, never a remset source, which is mature). *)
  Remset.iter (Vm.remset vm) (fun ~src_id ~field ->
      let obj = Store.find store src_id in
      if obj == Store.sentinel then
        fail (Printf.sprintf "remset source %d is not live" src_id)
      else if field < 0 || field >= Array.length obj.Heap_obj.fields then
        fail (Printf.sprintf "remset entry %d.%d is out of bounds" src_id field));
  match !error with None -> Ok () | Some msg -> Error msg
