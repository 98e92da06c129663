open Lp_heap

(* Read only when an image fails validation: [Fault_plan.fired] builds
   its log afresh. *)
let swap_faults_fired vm =
  match Vm.fault_plan vm with
  | None -> 0
  | Some plan ->
    List.length
      (List.filter
         (fun (site, _, _) -> site = Lp_fault.Fault_plan.Swap)
         (Lp_fault.Fault_plan.fired plan))

let heap_check ?(strict = false) vm =
  let store = Vm.store vm in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let bytes = ref 0 in
  let poisoned_words = ref 0 in
  let on_disk = ref 0 in
  (* Between collections no mark is open, and every non-free slot the
     lazy sweep has passed carries the mark sense. Below its cursor a
     slot that does not is dead but not yet free, which strict mode
     tells apart from a freed one when a live word or a root names it. *)
  let unswept = Store.unswept store in
  let unswept_dead id =
    id <= unswept && not (Header.is_free (Store.header store id))
  in
  if Store.mark_open store then fail "a mark is open outside a collection";
  for id = 1 to Store.slot_count store do
    let h = Store.header store id in
    if Store.mem store id then begin
      bytes := !bytes + Store.size_bytes store id;
      if Header.on_disk h then incr on_disk;
      for i = 0 to Store.n_fields store id - 1 do
        let w = Store.field store id i in
        if not (Word.is_null w) then
          if Word.poisoned w then incr poisoned_words
          else if not (Store.mem store (Word.target w)) then
            fail
              (if strict && unswept_dead (Word.target w) then
                 Printf.sprintf
                   "object %d field %d names slot %d, unmarked below the sweep \
                    cursor"
                   id i (Word.target w)
               else
                 Printf.sprintf
                   "object %d field %d references reclaimed object %d without poison"
                   id i (Word.target w))
      done
    end
    else if id > unswept && not (Header.is_free h) then
      fail
        (Printf.sprintf
           "object %d carries the other mark sense above the sweep cursor (%d)"
           id unswept)
  done;
  if strict then
    Roots.iter (Vm.roots vm) (fun id ->
        if (not (Store.mem store id)) && unswept_dead id then
          fail
            (Printf.sprintf "a root names slot %d, unmarked below the sweep cursor"
               id));
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
  Diskswap.iter_images swap (fun ~id ~image ~refs ->
      incr image_count;
      image_sum := !image_sum + Bytes.length image;
      (* validated and CRC-checked here, independently of the
         references the store memoised when it wrote the image; strict
         mode then holds the memo to what the bytes say, read in place *)
      let valid = Swap_image.validate image in
      (if strict then
         let agrees =
           match (valid, refs) with
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
        if swap_faults_fired vm = 0 then
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
    (* the two collection counts move together, and only an imported
       brain sets the controller's: a restored brain remembers prunes
       that a previous incarnation performed *)
    && Lp_core.Controller.gc_count controller = stats.Gc_stats.collections
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
        if not (Store.mem store id) then
          fail (Printf.sprintf "disk-resident object %d is not live" id)
        else begin
          if Store.size_bytes store id <> bytes then
            fail
              (Printf.sprintf
                 "disk-resident object %d recorded as %d bytes but is %d" id
                 bytes (Store.size_bytes store id));
          if strict && not (Header.on_disk (Store.header store id)) then
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
      if not (Store.mem store src_id) then
        fail (Printf.sprintf "remset source %d is not live" src_id)
      else if field < 0 || field >= Store.n_fields store src_id then
        fail (Printf.sprintf "remset entry %d.%d is out of bounds" src_id field));
  match !error with None -> Ok () | Some msg -> Error msg
