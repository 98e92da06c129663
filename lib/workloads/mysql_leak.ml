open Lp_heap
open Lp_runtime

let statements_per_iteration = 6  (* scaled from the paper's 1000 *)
let metadata_bytes = 900
let result_buffer_bytes = 450
let query_chars = 48
let churn_bytes = 300_000

(* statics: field 0 = Connection; Connection: field 0 = statement table.
   Statement: fields [metadata; resultBuffer; queryString]. The table's
   rehash reads every entry and statement, keeping them live; nothing
   ever reads the metadata or result buffers again. *)
let prepare vm =
  let statics = Vm.statics vm ~class_name:"MySQL" ~n_fields:1 in
  let connection =
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let conn = Vm.alloc vm ~class_name:"jdbc.Connection" ~n_fields:1 () in
        Roots.set_slot frame 0 (Heap_obj.index conn);
        Mutator.write_obj vm statics 0 conn;
        Vm.deref vm (Roots.get_slot frame 0))
  in
  let table =
    Jheap.Hash_table.create vm ~holder:connection ~field:0 ~initial_buckets:32
  in
  let key = ref 0 in
  let sweep = ref 0 in
  fun () ->
    let remaining = ref churn_bytes in
    while !remaining > 0 do
      let n = min !remaining 6_000 in
      ignore (Vm.alloc vm ~class_name:"ProtocolScratch" ~scalar_bytes:n ~n_fields:0 ());
      remaining := !remaining - n
    done;
    for _i = 1 to statements_per_iteration do
      incr key;
      Vm.with_frame vm ~n_slots:3 (fun frame ->
          let metadata =
            Vm.alloc vm ~class_name:"jdbc.ResultSetMetadata"
              ~scalar_bytes:metadata_bytes ~n_fields:0 ()
          in
          Roots.set_slot frame 0 (Heap_obj.index metadata);
          let buffer =
            Vm.alloc vm ~class_name:"jdbc.ResultBuffer"
              ~scalar_bytes:result_buffer_bytes ~n_fields:0 ()
          in
          Roots.set_slot frame 1 (Heap_obj.index buffer);
          let query = Jheap.alloc_string vm ~chars:query_chars in
          Roots.set_slot frame 2 (Heap_obj.index query);
          let stmt = Vm.alloc vm ~class_name:"jdbc.Statement" ~n_fields:3 () in
          Mutator.write_obj vm stmt 0 (Vm.deref vm (Roots.get_slot frame 0));
          Mutator.write_obj vm stmt 1 (Vm.deref vm (Roots.get_slot frame 1));
          Mutator.write_obj vm stmt 2 (Vm.deref vm (Roots.get_slot frame 2));
          Jheap.Hash_table.insert table ~key:!key ~payload:stmt)
    done;
    (* Execute statements: lookups sweep an eighth of the buckets each
       iteration, reading entries (never their result structures). *)
    incr sweep;
    Jheap.Hash_table.lookup_sweep table ~touch_payloads_in:!sweep ~stride:8
      ~offset:!sweep ();
    Vm.work vm 2_000

let workload =
  {
    Workload.name = "MySQL";
    description = "JDBC statements retained in a rehashing hash table (75K LOC app)";
    category = Workload.Mostly_dead;
    default_heap_bytes = 1_000_000;
    fixed_iterations = None;
    prepare;
    bytecode = None;
    field_map = [];
  }
