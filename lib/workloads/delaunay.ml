open Lp_heap
open Lp_runtime

let iterations = 40
let triangles_per_iteration = 60
let point_bytes = 24

(* statics: field 0 = mesh triangle list. Triangle: fields
   [neighbor; point; retired]. Refinement keeps retired triangles
   reachable from the mesh even though only the frontier is used —
   memory held longer than necessary, but bounded. *)
let prepare vm =
  let statics = Vm.statics vm ~class_name:"Delaunay" ~n_fields:1 in
  let rand = Rand.create 7 in
  fun () ->
    for _i = 1 to triangles_per_iteration do
      Vm.with_frame vm ~n_slots:1 (fun frame ->
          let point =
            Vm.alloc vm ~class_name:"delaunay.Point" ~scalar_bytes:point_bytes
              ~n_fields:0 ()
          in
          Roots.set_slot frame 0 (Heap_obj.index point);
          let tri = Vm.alloc vm ~class_name:"delaunay.Triangle" ~n_fields:3 () in
          Mutator.write_obj vm tri 1 (Vm.deref vm (Roots.get_slot frame 0));
          Roots.set_slot frame 0 (Heap_obj.index tri);
          (match Mutator.read vm statics 0 with
          | Some head -> Mutator.write_obj vm (Vm.deref vm (Roots.get_slot frame 0)) 0 head
          | None -> ());
          Mutator.write_obj vm statics 0 (Vm.deref vm (Roots.get_slot frame 0)))
    done;
    (* Refine: walk a random prefix of the frontier, reading neighbors
       and points. *)
    let budget = ref (20 + Rand.below rand 40) in
    (try
       Jheap.List_field.iter vm ~holder:statics ~field:0 (fun tri ->
           ignore (Mutator.read vm tri 1);
           decr budget;
           if !budget <= 0 then raise Exit)
     with Exit -> ());
    Vm.work vm 5_000

let workload =
  {
    Workload.name = "Delaunay";
    description = "short-running mesh refinement; bounded memory (1.9K LOC)";
    category = Workload.Short_running;
    default_heap_bytes = 600_000;
    fixed_iterations = Some iterations;
    prepare;
    bytecode = None;
    field_map = [];
  }
