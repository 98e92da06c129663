open Lp_heap
open Lp_runtime

let orders_per_iteration = 5
let id_chars = 1_000  (* the order line's String payload: the prunable bytes *)
let churn_bytes = 20_000
(* Every [touch_period] iterations a maintenance phase walks all existing
   (by then very stale) orders once, teaching the edge table the high
   maxstaleuse that protects Object[] -> Order (and Order -> Date) from
   pruning: the paper's diagnosis of why leak pruning tolerates JbbMod
   for only 21x rather than indefinitely. *)
let touch_period = 24

(* statics: field 0 = order vector.
   Order: fields [line; date]; OrderLine: fields [id (String)];
   Date: scalar only. Orders are never processed after creation except
   for one early-phase walk that teaches Object[] -> Order a high
   maxstaleuse. *)
let prepare vm =
  let statics = Vm.statics vm ~class_name:"JbbMod" ~n_fields:1 in
  let orders = Jheap.Vector.create vm ~holder:statics ~field:0 ~initial_capacity:64 in
  let iteration = ref 0 in
  fun () ->
    incr iteration;
    let remaining = ref churn_bytes in
    while !remaining > 0 do
      let n = min !remaining 2_000 in
      ignore
        (Vm.alloc vm ~class_name:"TransactionScratch" ~scalar_bytes:n ~n_fields:0 ());
      remaining := !remaining - n
    done;
    for _i = 1 to orders_per_iteration do
      Vm.with_frame vm ~n_slots:2 (fun frame ->
          let id = Jheap.alloc_string vm ~chars:id_chars in
          Roots.set_slot frame 0 (Heap_obj.index id);
          let line = Vm.alloc vm ~class_name:"spec.jbb.OrderLine" ~n_fields:1 () in
          Mutator.write_obj vm line 0 (Vm.deref vm (Roots.get_slot frame 0));
          Roots.set_slot frame 0 (Heap_obj.index line);
          let date =
            Vm.alloc vm ~class_name:"java.util.Date" ~scalar_bytes:16 ~n_fields:0 ()
          in
          Roots.set_slot frame 1 (Heap_obj.index date);
          let order = Vm.alloc vm ~class_name:"spec.jbb.Order" ~n_fields:2 () in
          Mutator.write_obj vm order 0 (Vm.deref vm (Roots.get_slot frame 0));
          Mutator.write_obj vm order 1 (Vm.deref vm (Roots.get_slot frame 1));
          Jheap.Vector.add orders order)
    done;
    if !iteration mod touch_period = 0 then
      (* Rare maintenance walk: touch every existing order after most
         have gone very stale. The edge table records the staleness as
         Object[] -> Order's (and Order -> Date's) maxstaleuse,
         protecting orders and dates — but not the strings below the
         never-touched order lines — from pruning. *)
      Jheap.Vector.iter orders (fun _i order ->
          match order with
          | Some order -> ignore (Mutator.read vm order 1)
          | None -> ());
    Vm.work vm 1_200

let workload =
  {
    Workload.name = "JbbMod";
    description =
      "SPECjbb2000 modified for stale heap growth; Object[]->Order protected by \
       maxstaleuse";
    category = Workload.Mostly_dead;
    default_heap_bytes = 1_000_000;
    fixed_iterations = None;
    prepare;
    bytecode = None;
    field_map = [];
  }
