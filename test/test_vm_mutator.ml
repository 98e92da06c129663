(* VM assembly and read-barrier semantics (paper Sections 2, 4.1, 4.4). *)

open Lp_heap
open Lp_runtime

let make_vm ?(policy = Lp_core.Policy.Default) ?(heap = 100_000) () =
  Vm.create ~config:(Lp_core.Config.make ~policy ()) ~heap_bytes:heap ()

let test_write_read_roundtrip () =
  let vm = make_vm () in
  let a = Vm.alloc vm ~class_name:"A" ~n_fields:1 () in
  let b = Vm.alloc vm ~class_name:"B" ~n_fields:0 () in
  Mutator.write_obj vm a 0 b;
  (match Mutator.read vm a 0 with
  | Some obj -> Alcotest.(check bool) "same object" true (obj == b)
  | None -> Alcotest.fail "expected Some");
  Mutator.clear vm a 0;
  Alcotest.(check bool) "null after clear" true (Mutator.read vm a 0 = None)

let test_barrier_cold_path_clears_staleness () =
  let vm = make_vm () in
  let a = Vm.alloc vm ~class_name:"A" ~n_fields:1 () in
  let b = Vm.alloc vm ~class_name:"B" ~n_fields:0 () in
  Mutator.write_obj vm a 0 b;
  Store.set_stale (Vm.store vm) b.Heap_obj.id 4;
  Store.set_field (Vm.store vm) a.Heap_obj.id 0 (Word.set_untouched (Store.field (Vm.store vm) a.Heap_obj.id 0));
  ignore (Mutator.read vm a 0);
  Alcotest.(check int) "stale counter cleared on use" 0 (Store.stale (Vm.store vm) b.Heap_obj.id);
  Alcotest.(check bool) "untouched bit cleared" false
    (Word.untouched (Store.field (Vm.store vm) a.Heap_obj.id 0))

let test_barrier_fast_path_leaves_staleness () =
  let vm = make_vm () in
  let a = Vm.alloc vm ~class_name:"A" ~n_fields:1 () in
  let b = Vm.alloc vm ~class_name:"B" ~n_fields:0 () in
  Mutator.write_obj vm a 0 b;
  Store.set_stale (Vm.store vm) b.Heap_obj.id 4;
  (* low bit clear: fast path does not touch the counter (the paper's
     barrier takes no action when the bit is clear) *)
  ignore (Mutator.read vm a 0);
  Alcotest.(check int) "fast path leaves counter" 4 (Store.stale (Vm.store vm) b.Heap_obj.id)

let test_stale_use_updates_edge_table () =
  let vm = make_vm () in
  let a = Vm.alloc vm ~class_name:"SrcClass" ~n_fields:1 () in
  let b = Vm.alloc vm ~class_name:"TgtClass" ~n_fields:0 () in
  Mutator.write_obj vm a 0 b;
  (* staleness tracking must be active: force the machine out of
     INACTIVE by keeping the heap past 50% full across a collection *)
  let statics = Vm.statics vm ~class_name:"Pins" ~n_fields:2 in
  Mutator.write_obj vm statics 0
    (Vm.alloc vm ~class_name:"Filler" ~scalar_bytes:60_000 ~n_fields:0 ());
  Mutator.write_obj vm statics 1 a;
  Vm.run_gc vm;
  Alcotest.(check bool) "tracking active" true
    (Lp_core.Controller.tracking (Vm.controller vm));
  Store.set_stale (Vm.store vm) b.Heap_obj.id 5;
  Store.set_field (Vm.store vm) a.Heap_obj.id 0 (Word.set_untouched (Store.field (Vm.store vm) a.Heap_obj.id 0));
  ignore (Mutator.read vm a 0);
  let table = Lp_core.Controller.edge_table (Vm.controller vm) in
  let registry = Vm.registry vm in
  let src = Option.get (Class_registry.find registry "SrcClass") in
  let tgt = Option.get (Class_registry.find registry "TgtClass") in
  Alcotest.(check int) "maxstaleuse recorded" 5
    (Lp_core.Edge_table.max_stale_use table ~src ~tgt)

let test_poisoned_access_raises_internal_error () =
  let vm = make_vm () in
  let a = Vm.alloc vm ~class_name:"A" ~n_fields:1 () in
  let b = Vm.alloc vm ~class_name:"B" ~n_fields:0 () in
  Mutator.write_obj vm a 0 b;
  Store.set_field (Vm.store vm) a.Heap_obj.id 0 (Word.poison (Store.field (Vm.store vm) a.Heap_obj.id 0));
  (match Mutator.read vm a 0 with
  | _ -> Alcotest.fail "expected InternalError"
  | exception Lp_core.Errors.Internal_error { cause; src_class; tgt_class } ->
    Alcotest.(check string) "src class" "A" src_class;
    Alcotest.(check string) "tgt class" "B" tgt_class;
    (match cause with
    | Lp_core.Errors.Out_of_memory _ -> ()
    | _ -> Alcotest.fail "cause must be the averted OutOfMemoryError"))

let test_arraycopy_preserves_tags_without_barrier () =
  let vm = make_vm () in
  let src = Vm.alloc vm ~class_name:"Object[]" ~n_fields:3 () in
  let dst = Vm.alloc vm ~class_name:"Object[]" ~n_fields:3 () in
  let b = Vm.alloc vm ~class_name:"B" ~n_fields:0 () in
  Mutator.write_obj vm src 0 b;
  Store.set_stale (Vm.store vm) b.Heap_obj.id 5;
  Store.set_field (Vm.store vm) src.Heap_obj.id 0 (Word.set_untouched (Store.field (Vm.store vm) src.Heap_obj.id 0));
  Store.set_field (Vm.store vm) src.Heap_obj.id 1 (Word.poison (Word.of_id b.Heap_obj.id));
  Mutator.arraycopy vm ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:3;
  Alcotest.(check bool) "untouched bit copied" true (Word.untouched (Store.field (Vm.store vm) dst.Heap_obj.id 0));
  Alcotest.(check bool) "poison copied" true (Word.poisoned (Store.field (Vm.store vm) dst.Heap_obj.id 1));
  Alcotest.(check int) "no staleness effect" 5 (Store.stale (Vm.store vm) b.Heap_obj.id)

let test_alloc_triggers_collection () =
  let vm = make_vm ~policy:Lp_core.Policy.None_ ~heap:1_000 () in
  (* fill with garbage; allocation pressure must collect, not fail *)
  for _i = 1 to 50 do
    ignore (Vm.alloc vm ~class_name:"Garbage" ~scalar_bytes:92 ~n_fields:0 ())
  done;
  Alcotest.(check bool) "collected at least once" true (Vm.gc_count vm >= 1)

let test_out_of_memory_when_live () =
  let vm = make_vm ~policy:Lp_core.Policy.None_ ~heap:1_000 () in
  let statics = Vm.statics vm ~class_name:"Pin" ~n_fields:1 in
  (match
     (* a live chain that cannot be collected *)
     let rec fill () =
       Vm.with_frame vm ~n_slots:1 (fun frame ->
           let node = Vm.alloc vm ~class_name:"Node" ~scalar_bytes:60 ~n_fields:1 () in
           Roots.set_slot frame 0 node.Heap_obj.id;
           (match Mutator.read vm statics 0 with
           | Some head -> Mutator.write_obj vm node 0 head
           | None -> ());
           Mutator.write_obj vm statics 0 node);
       fill ()
     in
     fill ()
   with
  | () -> Alcotest.fail "unreachable"
  | exception Lp_core.Errors.Out_of_memory _ -> ());
  Alcotest.(check bool) "heap nearly full of live data" true
    (Vm.live_bytes vm > 800)

let test_statics_are_roots_and_stable () =
  let vm = make_vm () in
  let s1 = Vm.statics vm ~class_name:"K" ~n_fields:2 in
  let s2 = Vm.statics vm ~class_name:"K" ~n_fields:2 in
  Alcotest.(check bool) "same object" true (s1 == s2);
  Alcotest.(check bool) "flagged as statics container" true
    (Header.statics_container (Store.header (Vm.store vm) s1.Heap_obj.id));
  Vm.run_gc vm;
  Alcotest.(check bool) "survives collection" true
    (Store.mem (Vm.store vm) s1.Heap_obj.id)

let test_finalizer_runs_once () =
  let vm = make_vm ~policy:Lp_core.Policy.None_ () in
  let count = ref 0 in
  ignore
    (Vm.alloc vm ~class_name:"Closeable" ~scalar_bytes:16
       ~finalizer:(fun _ -> incr count)
       ~n_fields:0 ());
  Vm.run_gc vm;
  Alcotest.(check int) "ran at first collection" 1 !count;
  Vm.run_gc vm;
  Vm.run_gc vm;
  Alcotest.(check int) "never re-runs" 1 !count

let test_work_rejects_negative () =
  let vm = make_vm () in
  Alcotest.check_raises "negative work" (Invalid_argument "Vm.work") (fun () ->
      Vm.work vm (-1))

(* Without a slice budget each collection is one pause: the engine
   reports no slices, so the VM records exactly one Monolithic sample
   per collection. *)
let test_unbudgeted_collection_is_one_pause () =
  let vm = make_vm () in
  let a = Vm.statics vm ~class_name:"Root" ~n_fields:1 in
  Mutator.write_obj vm a 0 (Vm.alloc vm ~class_name:"B" ~n_fields:0 ());
  for _ = 1 to 5 do
    Vm.run_gc vm
  done;
  Alcotest.(check int) "the collector ran no slices" 0
    (Collector.slices (Lp_core.Controller.engine (Vm.controller vm)));
  Alcotest.(check (list bool)) "one Monolithic sample per collection"
    (List.init (Vm.gc_count vm) (fun _ -> true))
    (List.map
       (fun (ph, _) -> ph = Trace_engine.Monolithic)
       (Vm.pause_samples vm));
  Alcotest.(check int) "five collections" 5 (Vm.gc_count vm)

(* An object held only in a frame slot is a root: it survives the
   collections that allocation inside the frame triggers, and it is
   reclaimed once the frame is popped. *)
let test_frame_slot_survives_collections () =
  let vm = make_vm ~heap:4_000 () in
  let node =
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let node = Vm.alloc vm ~class_name:"Node" ~scalar_bytes:16 ~n_fields:1 () in
        Roots.set_slot frame 0 node.Heap_obj.id;
        let before = Vm.gc_count vm in
        for _ = 1 to 40 do
          ignore (Vm.alloc vm ~class_name:"Buffer" ~scalar_bytes:256 ~n_fields:0 ())
        done;
        Alcotest.(check bool) "allocation collected" true (Vm.gc_count vm > before);
        Alcotest.(check bool) "frame-held node survived" true
          (Store.is_live (Vm.store vm) node);
        node)
  in
  Vm.run_gc vm;
  Alcotest.(check bool) "reclaimed once the frame is popped" false
    (Store.is_live (Vm.store vm) node)

let suite =
  ( "vm_mutator",
    [
      Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
      Alcotest.test_case "cold path clears staleness" `Quick
        test_barrier_cold_path_clears_staleness;
      Alcotest.test_case "fast path leaves staleness" `Quick
        test_barrier_fast_path_leaves_staleness;
      Alcotest.test_case "stale use updates edge table" `Quick
        test_stale_use_updates_edge_table;
      Alcotest.test_case "poisoned access raises" `Quick
        test_poisoned_access_raises_internal_error;
      Alcotest.test_case "arraycopy intrinsic" `Quick
        test_arraycopy_preserves_tags_without_barrier;
      Alcotest.test_case "alloc triggers collection" `Quick test_alloc_triggers_collection;
      Alcotest.test_case "OOM when heap is live" `Quick test_out_of_memory_when_live;
      Alcotest.test_case "statics semantics" `Quick test_statics_are_roots_and_stable;
      Alcotest.test_case "finalizer runs once" `Quick test_finalizer_runs_once;
      Alcotest.test_case "work validation" `Quick test_work_rejects_negative;
      Alcotest.test_case "no slice budget: one Monolithic pause per collection"
        `Quick test_unbudgeted_collection_is_one_pause;
      Alcotest.test_case "frame slot survives collections" `Quick
        test_frame_slot_survives_collections;
    ] )
