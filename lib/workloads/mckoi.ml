open Lp_heap
open Lp_runtime

let threads_per_iteration = 2
let stack_bytes = 8_000  (* the thread's unreclaimable stack allocation *)
let buffer_bytes = 6_000  (* the dead row buffer behind each connection *)
let churn_bytes = 8_000

(* Each leaked worker thread's stack holds a WorkerThread object:
   fields [stack memory; connection]; Connection: fields [rowBuffer].
   The blocked worker "polls" its connection every iteration (it is
   blocked on it), keeping the connection fresh; nothing ever reads the
   row buffer again. A worker is the frame of its thread that holds its
   WorkerThread object. *)
let prepare vm =
  let workers = ref [] in
  let spawn () =
    let thread = Vm.spawn_thread vm in
    let frame = Roots.push_frame thread ~n_slots:1 in
    Vm.with_frame vm ~n_slots:2 (fun scratch ->
        let stack =
          Vm.alloc vm ~class_name:"VM_ThreadStack" ~scalar_bytes:stack_bytes
            ~n_fields:0 ()
        in
        Roots.set_slot scratch 0 stack.Heap_obj.id;
        let buffer =
          Vm.alloc vm ~class_name:"mckoi.RowBuffer" ~scalar_bytes:buffer_bytes
            ~n_fields:0 ()
        in
        Roots.set_slot scratch 1 buffer.Heap_obj.id;
        let connection = Vm.alloc vm ~class_name:"mckoi.Connection" ~n_fields:1 () in
        Mutator.write_obj vm connection 0 (Vm.deref vm (Roots.get_slot scratch 1));
        Roots.set_slot scratch 1 connection.Heap_obj.id;
        let worker = Vm.alloc vm ~class_name:"mckoi.WorkerThread" ~n_fields:2 () in
        Mutator.write_obj vm worker 0 (Vm.deref vm (Roots.get_slot scratch 0));
        Mutator.write_obj vm worker 1 (Vm.deref vm (Roots.get_slot scratch 1));
        Roots.set_slot frame 0 worker.Heap_obj.id);
    workers := frame :: !workers
  in
  fun () ->
    let remaining = ref churn_bytes in
    while !remaining > 0 do
      let n = min !remaining 2_000 in
      ignore (Vm.alloc vm ~class_name:"QueryScratch" ~scalar_bytes:n ~n_fields:0 ());
      remaining := !remaining - n
    done;
    for _i = 1 to threads_per_iteration do
      spawn ()
    done;
    (* Every blocked worker owns its stack and polls its connection: the
       scheduler touches the stack memory and the thread reads the
       connection reference, so neither is ever prunable — only the row
       buffers behind the connections are. *)
    List.iter
      (fun frame ->
        let worker = Vm.deref vm (Roots.get_slot frame 0) in
        ignore (Mutator.read vm worker 0);
        ignore (Mutator.read vm worker 1))
      !workers;
    Vm.work vm (100 * List.length !workers)

let workload =
  {
    Workload.name = "Mckoi";
    description = "leaked worker threads pin stacks and connections (95K LOC app)";
    category = Workload.Thread_leak;
    default_heap_bytes = 2_000_000;
    fixed_iterations = None;
    prepare;
    bytecode = None;
    field_map = [];
  }
