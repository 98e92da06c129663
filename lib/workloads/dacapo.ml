open Lp_heap
open Lp_runtime

type spec = {
  name : string;
  pool_objects : int;
  object_fields : int;
  scalar_bytes : int;
  allocations_per_iteration : int;
  reads_per_iteration : int;
  work_per_iteration : int;
  seed : int;
}

let object_bytes spec =
  Heap_obj.size_of ~n_fields:spec.object_fields ~scalar_bytes:spec.scalar_bytes

let min_heap_bytes spec =
  let pool_array = Heap_obj.size_of ~n_fields:spec.pool_objects ~scalar_bytes:0 in
  let live = spec.pool_objects * object_bytes spec in
  let headroom = spec.allocations_per_iteration * object_bytes spec in
  pool_array + live + headroom + 4_096

let prepare spec vm =
  let statics = Vm.statics vm ~class_name:spec.name ~n_fields:1 in
  let rand = Rand.create spec.seed in
  let class_id = Vm.register_class vm (spec.name ^ "$Node") in
  let alloc_node () =
    Vm.alloc_class vm ~class_id ~scalar_bytes:spec.scalar_bytes
      ~n_fields:spec.object_fields ()
  in
  (* Fill the pool; each node's field 0 links to a random earlier node
     so the heap has real edges for the collector and barrier. *)
  Vm.with_frame vm ~n_slots:1 (fun frame ->
      let pool = Jheap.alloc_array vm ~len:spec.pool_objects () in
      Roots.set_slot frame 0 (Heap_obj.index pool);
      Mutator.write_obj vm statics 0 pool;
      for i = 0 to spec.pool_objects - 1 do
        let node = alloc_node () in
        let pool = Vm.deref vm (Roots.get_slot frame 0) in
        Mutator.write_obj vm pool i node;
        if i > 0 && spec.object_fields > 0 then begin
          let other = Mutator.read_exn vm pool (Rand.below rand i) in
          let node = Mutator.read_exn vm pool i in
          Mutator.write_obj vm node 0 other
        end
      done);
  fun () ->
    let pool = Mutator.read_exn vm statics 0 in
    for _i = 1 to spec.allocations_per_iteration do
      Vm.with_frame vm ~n_slots:1 (fun frame ->
          Roots.set_slot frame 0 (Heap_obj.index pool);
          let node = alloc_node () in
          let pool = Vm.deref vm (Roots.get_slot frame 0) in
          let slot = Rand.below rand spec.pool_objects in
          (* link into the pool graph, then replace a random slot; the
             old occupant's outgoing link is severed first so garbage
             does not chain old generations together into a leak *)
          if spec.object_fields > 0 then begin
            (match Mutator.read vm pool (Rand.below rand spec.pool_objects) with
            | Some other -> Mutator.write_obj vm node 0 other
            | None -> ());
            match Mutator.read vm pool slot with
            | Some old -> Mutator.clear vm old 0
            | None -> ()
          end;
          Mutator.write_obj vm pool slot node)
    done;
    let pool = Mutator.read_exn vm statics 0 in
    (* Skewed access, as in real programs: most reads hit a hot eighth
       of the pool; the cold majority is read rarely, so its staleness
       at each collection grows as collections become more frequent —
       which is what makes the OBSERVE/SELECT overheads of Figure 7
       shrink as the heap (and hence the collection interval) grows. *)
    let read_slot () =
      if Rand.below rand 8 < 7 then Rand.below rand (max 1 (spec.pool_objects / 8))
      else Rand.below rand spec.pool_objects
    in
    for _i = 1 to spec.reads_per_iteration do
      match Mutator.read vm pool (read_slot ()) with
      | Some node ->
        if spec.object_fields > 0 then ignore (Mutator.read vm node 0)
      | None -> ()
    done;
    Vm.work vm spec.work_per_iteration

let workload_of_spec spec =
  {
    Workload.name = spec.name;
    description = "non-leaking overhead benchmark (bounded live pool)";
    category = Workload.Short_running;
    default_heap_bytes = 2 * min_heap_bytes spec;
    fixed_iterations = None;
    prepare = prepare spec;
    bytecode = None;
    field_map = [];
  }

let spec ~name ?(pool_objects = 2_000) ?(object_fields = 4) ?(scalar_bytes = 32)
    ?(allocations_per_iteration = 60) ?(reads_per_iteration = 800)
    ?(work_per_iteration = 160_000) ~seed () =
  {
    name;
    pool_objects;
    object_fields;
    scalar_bytes;
    allocations_per_iteration;
    reads_per_iteration;
    work_per_iteration;
    seed;
  }

let suite =
  [
    spec ~name:"antlr" ~reads_per_iteration:700 ~allocations_per_iteration:80 ~seed:201 ();
    spec ~name:"bloat" ~reads_per_iteration:1_400 ~work_per_iteration:128_000 ~seed:202 ();
    spec ~name:"chart" ~reads_per_iteration:600 ~scalar_bytes:64 ~seed:203 ();
    spec ~name:"eclipse" ~pool_objects:4_000 ~reads_per_iteration:1_600
      ~work_per_iteration:192_000 ~seed:204 ();
    spec ~name:"fop" ~reads_per_iteration:900 ~allocations_per_iteration:40 ~seed:205 ();
    spec ~name:"hsqldb" ~pool_objects:3_000 ~reads_per_iteration:1_200 ~seed:206 ();
    spec ~name:"jython" ~reads_per_iteration:1_800 ~work_per_iteration:112_000 ~seed:207 ();
    spec ~name:"luindex" ~reads_per_iteration:500 ~work_per_iteration:208_000 ~seed:208 ();
    spec ~name:"lusearch" ~reads_per_iteration:1_100 ~seed:209 ();
    spec ~name:"pmd" ~reads_per_iteration:1_300 ~work_per_iteration:144_000 ~seed:210 ();
    spec ~name:"xalan" ~reads_per_iteration:1_200 ~allocations_per_iteration:90 ~seed:211 ();
    spec ~name:"pseudojbb" ~pool_objects:3_000 ~reads_per_iteration:900
      ~allocations_per_iteration:100 ~seed:212 ();
    spec ~name:"compress" ~reads_per_iteration:150 ~work_per_iteration:320_000 ~seed:213 ();
    spec ~name:"db" ~reads_per_iteration:1_500 ~work_per_iteration:96_000 ~seed:214 ();
    spec ~name:"jack" ~reads_per_iteration:700 ~seed:215 ();
    spec ~name:"javac" ~pool_objects:3_000 ~reads_per_iteration:1_400 ~seed:216 ();
    spec ~name:"jess" ~reads_per_iteration:800 ~work_per_iteration:120_000 ~seed:217 ();
    spec ~name:"mpegaudio" ~reads_per_iteration:200 ~work_per_iteration:288_000 ~seed:218 ();
    spec ~name:"mtrt" ~reads_per_iteration:1_600 ~work_per_iteration:104_000 ~seed:219 ();
    spec ~name:"raytrace" ~reads_per_iteration:1_700 ~work_per_iteration:96_000 ~seed:220 ();
  ]

