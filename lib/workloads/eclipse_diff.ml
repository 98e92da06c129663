open Lp_heap
open Lp_runtime

let diff_nodes = 24
let name_chars = 120
let result_buffer_bytes = 4_096
let scratch_bytes = 36_000  (* short-lived diff-computation garbage per iteration *)
let full_traversal_period = 16

(* One DiffNode is 20 bytes plus a name String (12) and its char[]
   (8 + chars). *)
let subtree_bytes =
  (diff_nodes * (20 + 12 + 8 + name_chars)) + 8 + result_buffer_bytes

(* statics: field 0 = NavigationHistory list head.
   NavHistory$Node: fields [next; entry].
   NavigationHistoryEntry: fields [input].
   ResourceCompareInput: fields [diffRoot; resultBuffer; name].
   DiffNode: fields [left; right; name]. *)

let alloc_diff_tree vm =
  (* Builds a left-leaning binary tree of DiffNodes bottom-up; the frame
     slot always holds the subtree built so far. *)
  Vm.with_frame vm ~n_slots:2 (fun frame ->
      for _i = 1 to diff_nodes do
        let name = Jheap.alloc_string vm ~chars:name_chars in
        Roots.set_slot frame 1 (Heap_obj.index name);
        let node = Vm.alloc vm ~class_name:"DiffNode" ~n_fields:3 () in
        Mutator.write_obj vm node 2 (Vm.deref vm (Roots.get_slot frame 1));
        (match Roots.get_slot frame 0 with
        | 0 -> ()
        | prev -> Mutator.write_obj vm node 0 (Vm.deref vm prev));
        Roots.set_slot frame 0 (Heap_obj.index node)
      done;
      Vm.deref vm (Roots.get_slot frame 0))

let alloc_compare_input vm =
  Vm.with_frame vm ~n_slots:2 (fun frame ->
      let tree = alloc_diff_tree vm in
      Roots.set_slot frame 0 (Heap_obj.index tree);
      let buffer =
        Vm.alloc vm ~class_name:"DiffResultBuffer" ~scalar_bytes:result_buffer_bytes
          ~n_fields:0 ()
      in
      Roots.set_slot frame 1 (Heap_obj.index buffer);
      let input = Vm.alloc vm ~class_name:"ResourceCompareInput" ~n_fields:3 () in
      Mutator.write_obj vm input 0 (Vm.deref vm (Roots.get_slot frame 0));
      Mutator.write_obj vm input 1 (Vm.deref vm (Roots.get_slot frame 1));
      input)

let append_history vm statics ~fixed =
  Vm.with_frame vm ~n_slots:2 (fun frame ->
      let input = alloc_compare_input vm in
      Roots.set_slot frame 0 (Heap_obj.index input);
      let entry = Vm.alloc vm ~class_name:"NavigationHistoryEntry" ~n_fields:1 () in
      Roots.set_slot frame 1 (Heap_obj.index entry);
      let input = Vm.deref vm (Roots.get_slot frame 0) in
      if fixed then begin
        (* The manual fix clears the references to the diff results when
           the input is archived in the history. *)
        Mutator.clear vm input 0;
        Mutator.clear vm input 1
      end;
      Mutator.write_obj vm entry 0 input;
      ignore
        (Jheap.List_field.push vm ~node_class:"NavHistory$Node" ~holder:statics
           ~field:0
           ~payload:(Some (Vm.deref vm (Roots.get_slot frame 1)))))

(* Short-lived diff computation garbage: allocated and dropped at once. *)
let churn vm =
  let remaining = ref scratch_bytes in
  while !remaining > 0 do
    let n = min !remaining 1_200 in
    ignore (Vm.alloc vm ~class_name:"DiffScratch" ~scalar_bytes:n ~n_fields:0 ());
    remaining := !remaining - n
  done

(* Eclipse browses the navigation history rarely; a full walk touches
   every entry after a long stale gap, which is exactly what teaches the
   edge table the high maxstaleuse values that protect the (live) list
   from pruning. Between walks only the most recent entries are hot. *)
let traverse_history vm statics ~full =
  let visited = ref 0 in
  (try
     Jheap.List_field.iter vm ~holder:statics ~field:0 (fun node ->
         incr visited;
         (match Mutator.read vm node 1 with
         | Some entry -> ignore (Mutator.read vm entry 0)  (* touch the input *)
         | None -> ());
         if (not full) && !visited >= 4 then raise Exit)
   with Exit -> ());
  Vm.work vm (10 * !visited)

let prepare_with ~fixed vm =
  let statics = Vm.statics vm ~class_name:"EclipseDiff" ~n_fields:1 in
  let iteration = ref 0 in
  fun () ->
    incr iteration;
    churn vm;
    append_history vm statics ~fixed;
    let full = !iteration mod full_traversal_period = 0 in
    traverse_history vm statics ~full;
    Vm.work vm 2_000

let workload =
  {
    Workload.name = "EclipseDiff";
    description =
      "Eclipse structural compare: live NavigationHistory, dead diff subtrees \
       (bug #115789)";
    category = Workload.Mostly_dead;
    default_heap_bytes = 600_000;
    fixed_iterations = None;
    prepare = prepare_with ~fixed:false;
    bytecode = None;
    field_map = [];
  }

let fixed =
  {
    Workload.name = "EclipseDiff-fixed";
    description = "EclipseDiff with the manual source fix applied (Figure 1)";
    category = Workload.Short_running;
    default_heap_bytes = 600_000;
    fixed_iterations = None;
    prepare = prepare_with ~fixed:true;
    bytecode = None;
    field_map = [];
  }
