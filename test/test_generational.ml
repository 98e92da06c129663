(* Generational mode: nursery, minor collections, remembered set. *)

open Lp_heap
open Lp_runtime

let make_vm ?(nursery = 2_000) ?(heap = 100_000) () =
  Vm.create
    ~config:(Lp_core.Config.make ~policy:Lp_core.Policy.Default ())
    ~nursery_bytes:nursery ~heap_bytes:heap ()

let test_nursery_allocation () =
  let vm = make_vm () in
  let obj = Vm.alloc vm ~class_name:"N" ~scalar_bytes:16 ~n_fields:0 () in
  Alcotest.(check bool) "allocated in nursery" true
    (Header.in_nursery (Store.header (Vm.store vm) (Heap_obj.index obj)));
  Alcotest.(check bool) "nursery bytes tracked" true
    (Store.nursery_bytes (Vm.store vm) >= Store.size_bytes (Vm.store vm) (Heap_obj.index obj))

let test_minor_gc_reclaims_dead_nursery () =
  let vm = make_vm ~nursery:1_000 () in
  (* allocate more garbage than the nursery holds: minor collections must
     trigger, reclaim it, and never run a full collection *)
  for _i = 1 to 100 do
    ignore (Vm.alloc vm ~class_name:"Garbage" ~scalar_bytes:80 ~n_fields:0 ())
  done;
  Alcotest.(check bool) "minor collections ran" true (Vm.minor_gc_count vm > 0);
  Alcotest.(check int) "no full collection needed" 0 (Vm.gc_count vm);
  Alcotest.(check bool) "nursery stays bounded" true
    (Store.nursery_bytes (Vm.store vm) <= 1_000)

let test_rooted_nursery_objects_promote () =
  let vm = make_vm ~nursery:1_000 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  let keep = Vm.alloc vm ~class_name:"Keep" ~scalar_bytes:16 ~n_fields:0 () in
  Mutator.write_obj vm statics 0 keep;
  (* churn until a minor collection happens *)
  while Vm.minor_gc_count vm = 0 do
    ignore (Vm.alloc vm ~class_name:"Garbage" ~scalar_bytes:80 ~n_fields:0 ())
  done;
  Alcotest.(check bool) "survivor still live" true
    (Store.mem (Vm.store vm) (Heap_obj.index keep));
  Alcotest.(check bool) "survivor promoted to mature" false
    (Header.in_nursery (Store.header (Vm.store vm) (Heap_obj.index keep)))

let test_remembered_set_keeps_nursery_target_alive () =
  let vm = make_vm ~nursery:1_000 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  (* make a mature holder *)
  let holder = Vm.alloc vm ~class_name:"Holder" ~n_fields:1 () in
  Mutator.write_obj vm statics 0 holder;
  Vm.run_gc vm;  (* promotes everything: holder is now mature *)
  Alcotest.(check bool) "holder mature" false
    (Header.in_nursery (Store.header (Vm.store vm) (Heap_obj.index holder)));
  (* a fresh nursery object referenced ONLY from the mature holder *)
  let young = Vm.alloc vm ~class_name:"Young" ~scalar_bytes:16 ~n_fields:0 () in
  Mutator.write_obj vm holder 0 young;  (* write barrier records the slot *)
  while Vm.minor_gc_count vm = 0 do
    ignore (Vm.alloc vm ~class_name:"Garbage" ~scalar_bytes:80 ~n_fields:0 ())
  done;
  Alcotest.(check bool) "mature->nursery target survived the minor GC" true
    (Store.mem (Vm.store vm) (Heap_obj.index young));
  match Mutator.read vm holder 0 with
  | Some got -> Alcotest.(check bool) "same object" true (got == young)
  | None -> Alcotest.fail "reference lost"

let test_arraycopy_honours_write_barrier () =
  let vm = make_vm ~nursery:1_000 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:2 in
  let src = Vm.alloc vm ~class_name:"Object[]" ~n_fields:2 () in
  Mutator.write_obj vm statics 0 src;
  let dst = Vm.alloc vm ~class_name:"Object[]" ~n_fields:2 () in
  Mutator.write_obj vm statics 1 dst;
  Vm.run_gc vm;  (* both arrays mature *)
  let young = Vm.alloc vm ~class_name:"Young" ~scalar_bytes:16 ~n_fields:0 () in
  Mutator.write_obj vm src 0 young;
  (* copy the nursery reference into the other mature array, then erase
     the original slot: only the arraycopy barrier keeps [young] alive *)
  Mutator.arraycopy vm ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:2;
  Mutator.clear vm src 0;
  while Vm.minor_gc_count vm = 0 do
    ignore (Vm.alloc vm ~class_name:"Garbage" ~scalar_bytes:80 ~n_fields:0 ())
  done;
  Alcotest.(check bool) "copied reference kept the target alive" true
    (Store.mem (Vm.store vm) (Heap_obj.index young))

let test_full_gc_empties_nursery () =
  let vm = make_vm () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  let keep = Vm.alloc vm ~class_name:"Keep" ~scalar_bytes:16 ~n_fields:0 () in
  Mutator.write_obj vm statics 0 keep;
  Vm.run_gc vm;
  Alcotest.(check int) "nursery empty after full collection" 0
    (Store.nursery_bytes (Vm.store vm));
  Alcotest.(check bool) "survivor mature" false
    (Header.in_nursery (Store.header (Vm.store vm) (Heap_obj.index keep)))

let test_pruning_still_works_generationally () =
  (* a leak whose churn dies in the nursery; pruning must still reclaim
     the stale chain at full-heap collections *)
  let vm = make_vm ~nursery:2_000 ~heap:20_000 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  let iters = ref 0 in
  (try
     for _i = 1 to 4_000 do
       ignore (Vm.alloc vm ~class_name:"Scratch" ~scalar_bytes:120 ~n_fields:0 ());
       Vm.with_frame vm ~n_slots:1 (fun frame ->
           let node = Vm.alloc vm ~class_name:"Node" ~scalar_bytes:40 ~n_fields:1 () in
           Roots.set_slot frame 0 (Heap_obj.index node);
           (match Mutator.read vm statics 0 with
           | Some head -> Mutator.write_obj vm node 0 head
           | None -> ());
           Mutator.write_obj vm statics 0 node);
       incr iters
     done
   with Lp_core.Errors.Out_of_memory _ -> ());
  Alcotest.(check int) "survived the whole run" 4_000 !iters;
  Alcotest.(check bool) "pruned the chain" true
    ((Vm.stats vm).Gc_stats.references_poisoned > 0);
  match Diagnostics.heap_check vm with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let suite =
  ( "generational",
    [
      Alcotest.test_case "nursery allocation" `Quick test_nursery_allocation;
      Alcotest.test_case "minor GC reclaims garbage" `Quick
        test_minor_gc_reclaims_dead_nursery;
      Alcotest.test_case "rooted survivors promote" `Quick
        test_rooted_nursery_objects_promote;
      Alcotest.test_case "remembered set" `Quick
        test_remembered_set_keeps_nursery_target_alive;
      Alcotest.test_case "arraycopy write barrier" `Quick
        test_arraycopy_honours_write_barrier;
      Alcotest.test_case "full GC empties nursery" `Quick test_full_gc_empties_nursery;
      Alcotest.test_case "pruning on the generational substrate" `Quick
        test_pruning_still_works_generationally;
    ] )
