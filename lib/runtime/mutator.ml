open Lp_heap

let charge_barrier vm n = if Vm.charge_barriers vm then Vm.charge vm n

(* Event emission lives out of line ([@inline never]) so the disabled
   cost at each barrier site is one sink load, one compare and a
   never-taken branch — constructing the event inline would swell the
   barrier's hot code region even when no sink is attached. *)

let[@inline never] emit_poison_trap s store (src : Heap_obj.t) i target =
  Lp_obs.Sink.emit s
    (Lp_obs.Event.Poison_trap
       { src_class = Store.class_of store src.Heap_obj.id; field = i; target })

let[@inline never] emit_resurrection_attempt s target =
  Lp_obs.Sink.emit s (Lp_obs.Event.Resurrection_attempt { target })

let[@inline never] emit_resurrection_ok s target (tgt : Heap_obj.t) =
  Lp_obs.Sink.emit s
    (Lp_obs.Event.Resurrection_ok { target; new_id = tgt.Heap_obj.id })

let[@inline never] emit_resurrection_failed s target reason =
  Lp_obs.Sink.emit s
    (Lp_obs.Event.Resurrection_failed
       { target; reason = Lp_core.Errors.resurrection_failure_to_string reason })

let[@inline never] emit_barrier_cold s store (src : Heap_obj.t) i =
  Lp_obs.Sink.emit s
    (Lp_obs.Event.Barrier_cold
       { src_class = Store.class_of store src.Heap_obj.id; field = i })

(* Out-of-line disk fault: the target's on-disk header bit is set, so
   its payload is read back (and validated) before the load returns. *)
let[@inline never] swap_in vm (src : Heap_obj.t) (tgt : Heap_obj.t) =
  let cost = Vm.cost vm in
  let store = Vm.store vm in
  let class_name (obj : Heap_obj.t) =
    Class_registry.name (Vm.registry vm) (Store.class_of store obj.Heap_obj.id)
  in
  match Diskswap.retrieve (Vm.swap vm) store tgt with
  | `Not_resident -> ()
  | `Swapped_in -> Vm.charge vm cost.Cost.disk_swap_in
  | `Corrupt reason ->
    (* the disk copy of an offloaded object failed validation: the
       payload is lost; surface it with the same cause protocol as a
       failed resurrection *)
    Vm.charge vm cost.Cost.disk_swap_in;
    raise
      (Lp_core.Errors.internal_error
         ~cause:
           (Lp_core.Errors.resurrection_failed ~target:tgt.Heap_obj.id ~reason
              ~gc_count:(Vm.gc_count vm))
         ~src_class:(class_name src) ~tgt_class:(class_name tgt))

let read vm (src : Heap_obj.t) i =
  Vm.assert_live vm src;
  let cost = Vm.cost vm in
  Vm.charge vm cost.Cost.read_ref;
  charge_barrier vm cost.Cost.barrier_fast;
  let w = Store.field (Vm.store vm) src.Heap_obj.id i in
  if Word.is_null w then None
  else if Word.poisoned w then begin
    charge_barrier vm (cost.Cost.barrier_cold + cost.Cost.barrier_poison_check);
    let store = Vm.store vm in
    (match Vm.sink vm with
    | None -> ()
    | Some s -> emit_poison_trap s store src i (Word.target w));
    let tgt_class () =
      let id = Word.target w in
      if Store.mem store id then
        Class_registry.name (Vm.registry vm) (Store.class_of store id)
      else "<reclaimed>"
    in
    if not (Vm.resurrection_enabled vm) then
      raise
        (Lp_core.Controller.poisoned_access_error (Vm.controller vm) store ~src
           ~tgt_class:(tgt_class ()))
    else begin
      (* barrier-level recovery: restore the pruned target from its swap
         image and retry the load *)
      (match Vm.sink vm with
      | None -> ()
      | Some s -> emit_resurrection_attempt s (Word.target w));
      match Vm.try_resurrect vm src ~field:i with
      | Ok tgt ->
        (match Vm.sink vm with
        | None -> ()
        | Some s -> emit_resurrection_ok s (Word.target w) tgt);
        (* the program just used the resurrected reference *)
        Store.set_stale store tgt.Heap_obj.id 0;
        Some tgt
      | Error reason ->
        (match Vm.sink vm with
        | None -> ()
        | Some s -> emit_resurrection_failed s (Word.target w) reason);
        let stats = Vm.stats vm in
        stats.Gc_stats.resurrection_failures <-
          stats.Gc_stats.resurrection_failures + 1;
        raise
          (Lp_core.Errors.internal_error
             ~cause:
               (Lp_core.Errors.resurrection_failed ~target:(Word.target w)
                  ~reason ~gc_count:(Vm.gc_count vm))
             ~src_class:
               (Class_registry.name (Vm.registry vm)
                  (Store.class_of store src.Heap_obj.id))
             ~tgt_class:(tgt_class ()))
    end
  end
  else begin
    let store = Vm.store vm in
    let tgt = Store.find store (Word.target w) in
    if tgt == Store.sentinel then begin
      (* Corrupt (dangling) reference word: quarantine it — poison the
         slot so later loads take the deterministic poisoned-access
         path — and surface a structured error instead of crashing. *)
      Store.set_field store src.Heap_obj.id i (Word.poison w);
      let stats = Vm.stats vm in
      stats.Gc_stats.words_quarantined <- stats.Gc_stats.words_quarantined + 1;
      raise
        (Lp_core.Errors.heap_corruption
           ~src_class:
             (Class_registry.name (Vm.registry vm)
                (Store.class_of store src.Heap_obj.id))
           ~field:i ~target:(Word.target w) ~gc_count:(Vm.gc_count vm))
    end;
    if Word.untouched w then begin
      (* Out-of-line cold path: first use of this reference since the last
         collection scanned it. *)
      charge_barrier vm cost.Cost.barrier_cold;
      (match Vm.sink vm with
      | None -> ()
      | Some s -> emit_barrier_cold s store src i);
      Store.set_field store src.Heap_obj.id i (Word.clear_untouched w);
      Lp_core.Controller.on_stale_use (Vm.controller vm) store ~src ~tgt;
      (* liveness-oracle conformance probe; a no-op unless an oracle is
         installed, keeping the 3%-budget fast path untouched *)
      Lp_core.Controller.note_field_read (Vm.controller vm) store ~src
        ~field:i;
      Store.set_stale store tgt.Heap_obj.id 0
    end;
    (* the VM's offload flag first, so a VM without the disk baseline
       never loads the target's header here *)
    if Vm.offloading vm && Header.on_disk (Store.header store tgt.Heap_obj.id)
    then
      swap_in vm src tgt;
    Some tgt
  end

let read_exn vm src i =
  match read vm src i with
  | Some obj -> obj
  | None -> invalid_arg "Mutator.read_exn: null reference"

let write vm (src : Heap_obj.t) i tgt =
  Vm.assert_live vm src;
  let cost = Vm.cost vm in
  Vm.charge vm cost.Cost.write_ref;
  match tgt with
  | None -> Store.set_field (Vm.store vm) src.Heap_obj.id i Word.null
  | Some (obj : Heap_obj.t) ->
    Vm.assert_live vm obj;
    Vm.remember_write vm ~src ~field:i ~tgt:obj;
    Store.set_field (Vm.store vm) src.Heap_obj.id i (Word.of_id obj.Heap_obj.id)

let write_obj vm src i obj = write vm src i (Some obj)

let clear vm src i = write vm src i None

let arraycopy vm ~src ~src_pos ~dst ~dst_pos ~len =
  Vm.assert_live vm src;
  Vm.assert_live vm dst;
  let cost = Vm.cost vm in
  Vm.charge vm (len * (cost.Cost.read_ref + cost.Cost.write_ref));
  let store = Vm.store vm in
  Store.blit_fields store ~src:src.Heap_obj.id ~src_pos ~dst:dst.Heap_obj.id
    ~dst_pos ~len;
  if Vm.generational vm then
    (* the intrinsic still honours the generational write barrier *)
    for i = dst_pos to dst_pos + len - 1 do
      let w = Store.field store dst.Heap_obj.id i in
      if (not (Word.is_null w)) && not (Word.poisoned w) then
        let tgt = Store.find store (Word.target w) in
        if tgt != Store.sentinel then Vm.remember_write vm ~src:dst ~field:i ~tgt
    done

let field_is_poisoned vm (src : Heap_obj.t) i =
  Vm.assert_live vm src;
  Word.poisoned (Store.field (Vm.store vm) src.Heap_obj.id i)

let field_word vm (src : Heap_obj.t) i =
  Vm.assert_live vm src;
  Store.field (Vm.store vm) src.Heap_obj.id i
