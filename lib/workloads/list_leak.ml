open Lp_heap
open Lp_runtime

let nodes_per_iteration = 5
let payload_bytes = 100

let prepare vm =
  let statics = Vm.statics vm ~class_name:"ListLeak" ~n_fields:1 in
  fun () ->
    for _i = 1 to nodes_per_iteration do
      Vm.with_frame vm ~n_slots:1 (fun frame ->
          let payload =
            Vm.alloc vm ~class_name:"ListLeak$Payload" ~scalar_bytes:payload_bytes
              ~n_fields:0 ()
          in
          Roots.set_slot frame 0 (Heap_obj.index payload);
          ignore
            (Jheap.List_field.push vm ~node_class:"ListLeak$Node" ~holder:statics
               ~field:0
               ~payload:(Some (Vm.deref vm (Roots.get_slot frame 0)))))
    done;
    Vm.work vm 400

(* Bytecode model of the iteration for the static liveness oracle: the
   node chain is written through the static head but no instruction ever
   loads a node field, so ListLeak$Node.{0,1} come out [Dead_beyond 0]
   (the prune target, boosted), while the static slot itself — read to
   link each push — is merely depth-bounded. *)
let bytecode =
  let open Lp_jit.Bytecode in
  [
    {
      name = "ListLeak.iterate";
      n_locals = 3;  (* 0 = counter, 1 = payload, 2 = node *)
      code =
        [|
          (* 0 *) Const nodes_per_iteration;
          (* 1 *) Store_local 0;
          (* 2 *) Load_local 0;  (* loop head *)
          (* 3 *) Jump_if_zero 22;
          (* 4 *) New_object "ListLeak$Payload";
          (* 5 *) Store_local 1;
          (* 6 *) New_object "ListLeak$Node";
          (* 7 *) Store_local 2;
          (* 8 *) Load_local 2;
          (* 9 *) Get_static "ListLeak$Statics.0";
          (* 10 *) Put_field "0";  (* node.next <- old head *)
          (* 11 *) Load_local 2;
          (* 12 *) Load_local 1;
          (* 13 *) Put_field "1";  (* node.payload <- payload *)
          (* 14 *) Const 0;
          (* 15 *) Load_local 2;
          (* 16 *) Put_field "ListLeak$Statics.0";  (* head <- node *)
          (* 17 *) Load_local 0;
          (* 18 *) Const 1;
          (* 19 *) Sub;
          (* 20 *) Store_local 0;
          (* 21 *) Jump 2;
          (* 22 *) Return;
        |];
    };
  ]

let field_map =
  [
    ("ListLeak$Statics", "0", [ 0 ]);
    ("ListLeak$Node", "0", [ 0 ]);
    ("ListLeak$Node", "1", [ 1 ]);
  ]

let workload =
  {
    Workload.name = "ListLeak";
    description = "growing static list, elements never used again (9 LOC)";
    category = Workload.All_dead;
    default_heap_bytes = 100_000;
    fixed_iterations = None;
    prepare;
    bytecode = Some bytecode;
    field_map;
  }
