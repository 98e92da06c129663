open Lp_heap

type site = {
  vm : Vm.t;
  class_id : Class_registry.id;
  m : int;
  n_fields : int;
  scalar_bytes : int;
  ring_holder : Heap_obj.t;  (* statics-rooted object whose fields are the ring *)
  engine : Collector.t;  (* runs the trial mark *)
  mutable filled : int;
  mutable next : int;
  mutable recycled : int;
  mutable recycled_while_reachable : int;
}

let site vm ~class_name ~m ~n_fields ~scalar_bytes =
  if m < 1 then invalid_arg "Cyclic_alloc.site: m must be >= 1";
  let ring_holder =
    Vm.statics vm ~class_name:(Printf.sprintf "CyclicRing$%s" class_name) ~n_fields:m
  in
  {
    vm;
    class_id = Vm.register_class vm class_name;
    m;
    n_fields;
    scalar_bytes;
    ring_holder;
    engine = Collector.create ();
    filled = 0;
    next = 0;
    recycled = 0;
    recycled_while_reachable = 0;
  }

(* Trial mark from the roots, treating the ring holder's own references
   as invisible: tells whether the program still reaches [obj] through
   its own structures. All GC bits are cleared again before returning. *)
let program_reachable t (obj : Heap_obj.t) =
  let store = Vm.store t.vm in
  let stats = Gc_stats.create () in
  let filter (e : Collector.edge) =
    if e.Collector.src == t.ring_holder then Collector.Defer else Collector.Trace
  in
  ignore
    (Collector.mark t.engine store (Vm.roots t.vm) ~stats
       ~config:
         {
           Collector.set_untouched_bits = false;
           stale_tick_gc = None;
           edge_filter = Some filter;
           on_poison = None;
           events = None;
         });
  let reachable = Header.marked (Store.header store obj.Heap_obj.id) in
  for id = 1 to Store.slot_count store do
    let h = Store.header store id in
    if not (Header.is_free h) then Store.set_header store id (Header.clear_gc_bits h)
  done;
  reachable

let alloc t =
  if t.filled < t.m then begin
    let obj =
      Vm.alloc_class t.vm ~class_id:t.class_id ~scalar_bytes:t.scalar_bytes
        ~n_fields:t.n_fields ()
    in
    Mutator.write_obj t.vm t.ring_holder t.filled obj;
    t.filled <- t.filled + 1;
    obj
  end
  else begin
    let obj = Mutator.read_exn t.vm t.ring_holder t.next in
    t.next <- (t.next + 1) mod t.m;
    t.recycled <- t.recycled + 1;
    if program_reachable t obj then
      t.recycled_while_reachable <- t.recycled_while_reachable + 1;
    (* in-place reuse: the allocator clears the object; any surviving
       program reference now silently sees a "different" object *)
    Array.fill obj.Heap_obj.fields 0 (Array.length obj.Heap_obj.fields) Word.null;
    obj
  end

let recycled t = t.recycled

let recycled_while_reachable t = t.recycled_while_reachable
