type outcome =
  | Reached_cap
  | Completed
  | Out_of_memory of exn
  | Pruned_access of exn
  | Out_of_disk of exn

type result = {
  workload : string;
  policy : Lp_core.Policy.t;
  heap_bytes : int;
  iterations : int;
  outcome : outcome;
  total_cycles : int;
  gc_cycles : int;
  gc_count : int;
  pruned_edge_types : (string * string) list;
  edge_table_entries : int;
  references_poisoned : int;
  bytes_reclaimed : int;
  mispredictions : int;
  liveness_vetoes : int;
  liveness_boosts : int;
  reachable_series : (int * int) list;
  iteration_cycles : int array;
}

let outcome_to_string = function
  | Reached_cap -> "reached cap"
  | Completed -> "completed"
  | Out_of_memory _ -> "out of memory"
  | Pruned_access _ -> "accessed pruned reference"
  | Out_of_disk _ -> "out of disk"

let run ?(policy = Lp_core.Policy.Default) ?config
    ?(liveness = Lp_core.Config.Liveness_off) ?heap_bytes
    ?(max_iterations = 50_000) ?(charge_barriers = true) ?cost ?disk
    ?resurrection ?(record_iteration_cycles = false) ?prepare_vm
    (w : Lp_workloads.Workload.t) =
  let config =
    match config with
    | Some c -> c
    | None -> Lp_core.Config.make ~policy ()
  in
  let heap_bytes =
    match heap_bytes with
    | Some h -> h
    | None -> w.Lp_workloads.Workload.default_heap_bytes
  in
  let vm =
    Lp_runtime.Vm.create ~config ~charge_barriers ?cost ?disk ?resurrection
      ~heap_bytes ()
  in
  (* Runs before the workload's own [prepare] so a trace attached here
     observes the workload's setup allocations too. *)
  (match prepare_vm with Some f -> f vm | None -> ());
  Lp_runtime.Liveness_oracle.install liveness vm
    ~bytecode:w.Lp_workloads.Workload.bytecode
    ~field_map:w.Lp_workloads.Workload.field_map;
  let iteration = ref 0 in
  let series = ref [] in
  Lp_runtime.Vm.set_gc_listener vm
    (Some
       (fun r ->
         series := (!iteration, r.Lp_runtime.Vm.live_bytes_after) :: !series));
  let cap =
    match w.Lp_workloads.Workload.fixed_iterations with
    | Some n -> min n max_iterations
    | None -> max_iterations
  in
  let cycles_log = ref [] in
  let outcome = ref Reached_cap in
  (* [prepare] allocates the long-lived structure, so it can run out of
     memory too: a heap too small for it ends the run after 0
     iterations like any other out-of-memory run *)
  (try
     let iterate = w.Lp_workloads.Workload.prepare vm in
     while !iteration < cap do
       let before = Lp_runtime.Vm.cycles vm in
       iterate ();
       if record_iteration_cycles then
         cycles_log := Lp_runtime.Vm.cycles vm - before :: !cycles_log;
       incr iteration
     done;
     if w.Lp_workloads.Workload.fixed_iterations <> None then outcome := Completed
   with
  | Lp_core.Errors.Out_of_memory _ as e -> outcome := Out_of_memory e
  | Lp_core.Errors.Internal_error _ as e -> outcome := Pruned_access e
  | Lp_core.Errors.Disk_exhausted _ as e -> outcome := Out_of_disk e
  | Lp_runtime.Diskswap.Out_of_disk _ as e -> outcome := Out_of_disk e);
  let controller = Lp_runtime.Vm.controller vm in
  let registry = Lp_runtime.Vm.registry vm in
  let named (src, tgt) =
    ( Lp_heap.Class_registry.name registry src,
      Lp_heap.Class_registry.name registry tgt )
  in
  {
    workload = w.Lp_workloads.Workload.name;
    policy = (Lp_core.Controller.config controller).Lp_core.Config.policy;
    heap_bytes;
    iterations = !iteration;
    outcome = !outcome;
    total_cycles = Lp_runtime.Vm.cycles vm;
    gc_cycles = Lp_runtime.Vm.gc_cycles vm;
    gc_count = Lp_runtime.Vm.gc_count vm;
    pruned_edge_types =
      List.map named (Lp_core.Controller.pruned_edge_types controller);
    edge_table_entries =
      Lp_core.Edge_table.entry_count (Lp_core.Controller.edge_table controller);
    references_poisoned =
      (Lp_runtime.Vm.stats vm).Lp_heap.Gc_stats.references_poisoned;
    bytes_reclaimed = (Lp_runtime.Vm.stats vm).Lp_heap.Gc_stats.bytes_reclaimed;
    mispredictions = Lp_core.Controller.mispredictions controller;
    liveness_vetoes = Lp_core.Controller.liveness_vetoes controller;
    liveness_boosts = Lp_core.Controller.liveness_boosts controller;
    reachable_series = List.rev !series;
    iteration_cycles = Array.of_list (List.rev !cycles_log);
  }

let survival_factor ~base result =
  if base.iterations = 0 then infinity
  else float_of_int result.iterations /. float_of_int base.iterations
