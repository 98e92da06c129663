open Lp_heap
open Lp_runtime

let live_records_per_iteration = 4
let live_payload_bytes = 96
let dead_records_per_iteration = 1
let dead_payload_bytes = 24

(* statics: field 0 = live list head, field 1 = dead list head *)
let prepare vm =
  let statics = Vm.statics vm ~class_name:"DualLeak" ~n_fields:2 in
  fun () ->
    for _i = 1 to live_records_per_iteration do
      Vm.with_frame vm ~n_slots:1 (fun frame ->
          let payload =
            Vm.alloc vm ~class_name:"DualLeak$Record" ~scalar_bytes:live_payload_bytes
              ~n_fields:0 ()
          in
          Roots.set_slot frame 0 (Heap_obj.index payload);
          ignore
            (Jheap.List_field.push vm ~node_class:"DualLeak$LiveNode" ~holder:statics
               ~field:0
               ~payload:(Some (Vm.deref vm (Roots.get_slot frame 0)))))
    done;
    for _i = 1 to dead_records_per_iteration do
      Vm.with_frame vm ~n_slots:1 (fun frame ->
          let payload =
            Vm.alloc vm ~class_name:"DualLeak$Scratch" ~scalar_bytes:dead_payload_bytes
              ~n_fields:0 ()
          in
          Roots.set_slot frame 0 (Heap_obj.index payload);
          ignore
            (Jheap.List_field.push vm ~node_class:"DualLeak$DeadNode" ~holder:statics
               ~field:1
               ~payload:(Some (Vm.deref vm (Roots.get_slot frame 0)))))
    done;
    (* The live traversal: read every node and its record — this is what
       makes the growth live and the leak intolerable. *)
    Jheap.List_field.iter vm ~holder:statics ~field:0 (fun node ->
        ignore (Mutator.read vm node 1));
    Vm.work vm 200

let workload =
  {
    Workload.name = "DualLeak";
    description = "live list traversed every iteration + small dead leak (55 LOC)";
    category = Workload.Live_growth;
    default_heap_bytes = 100_000;
    fixed_iterations = None;
    prepare;
    bytecode = None;
    field_map = [];
  }
