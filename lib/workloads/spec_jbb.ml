open Lp_heap
open Lp_runtime

let orders_per_iteration = 6  (* scaled from 100,000 transactions *)
let receipt_bytes = 400
let order_scalar = 40
let library_classes = 80
let churn_bytes = 1_200

(* statics:
   field 0 = district order vector (live: processing walks it),
   field 1 = Object[] of tiny never-used class-library singletons.
   Order: fields [receipt (dead); customer (live-ish String)]. *)
let prepare vm =
  let statics = Vm.statics vm ~class_name:"SPECjbb2000" ~n_fields:2 in
  let orders = Jheap.Vector.create vm ~holder:statics ~field:0 ~initial_capacity:64 in
  Vm.with_frame vm ~n_slots:2 (fun frame ->
      let library = Jheap.alloc_array vm ~len:library_classes () in
      Roots.set_slot frame 0 (Heap_obj.index library);
      for i = 0 to library_classes - 1 do
        let singleton =
          Vm.alloc vm
            ~class_name:(Printf.sprintf "sun.nio.cs.Charset%02d" i)
            ~scalar_bytes:(20 + (i mod 7 * 8))
            ~n_fields:0 ()
        in
        Roots.set_slot frame 1 (Heap_obj.index singleton);
        let library = Vm.deref vm (Roots.get_slot frame 0) in
        Mutator.write_obj vm library i (Vm.deref vm (Roots.get_slot frame 1))
      done;
      Mutator.write_obj vm statics 1 (Vm.deref vm (Roots.get_slot frame 0)));
  fun () ->
    let remaining = ref churn_bytes in
    while !remaining > 0 do
      let n = min !remaining 400 in
      ignore
        (Vm.alloc vm ~class_name:"TransactionScratch" ~scalar_bytes:n ~n_fields:0 ());
      remaining := !remaining - n
    done;
    for _i = 1 to orders_per_iteration do
      Vm.with_frame vm ~n_slots:2 (fun frame ->
          let receipt =
            Vm.alloc vm ~class_name:"spec.jbb.Receipt" ~scalar_bytes:receipt_bytes
              ~n_fields:0 ()
          in
          Roots.set_slot frame 0 (Heap_obj.index receipt);
          let customer = Jheap.alloc_string vm ~chars:24 in
          Roots.set_slot frame 1 (Heap_obj.index customer);
          let order =
            Vm.alloc vm ~class_name:"spec.jbb.Order" ~scalar_bytes:order_scalar
              ~n_fields:2 ()
          in
          Mutator.write_obj vm order 0 (Vm.deref vm (Roots.get_slot frame 0));
          Mutator.write_obj vm order 1 (Vm.deref vm (Roots.get_slot frame 1));
          Jheap.Vector.add orders order)
    done;
    (* Order processing: walk the whole order list, touching every order
       (this is what keeps the leak live). *)
    Jheap.Vector.iter orders (fun _i order ->
        match order with
        | Some order -> ignore (Mutator.read vm order 1)
        | None -> ());
    Vm.work vm 1_500

let workload =
  {
    Workload.name = "SPECjbb2000";
    description = "order list never trimmed; processing touches all orders (34K LOC)";
    category = Workload.Some_dead;
    default_heap_bytes = 1_000_000;
    fixed_iterations = None;
    prepare;
    bytecode = None;
    field_map = [];
  }
