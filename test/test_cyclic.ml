(* The cyclic-memory-allocation comparator (Section 7). *)

open Lp_heap
open Lp_runtime

let test_fresh_until_full () =
  let vm = Vm.create ~heap_bytes:100_000 () in
  let site = Cyclic_alloc.site vm ~class_name:"C" ~m:4 ~n_fields:1 ~scalar_bytes:16 in
  let objs = List.init 4 (fun _ -> Cyclic_alloc.alloc site) in
  let ids = List.map (fun (o : Heap_obj.t) -> Heap_obj.index o) objs in
  Alcotest.(check int) "all distinct" 4 (List.length (List.sort_uniq compare ids));
  Alcotest.(check int) "no recycling yet" 0 (Cyclic_alloc.recycled site)

let test_recycles_in_fifo_order () =
  let vm = Vm.create ~heap_bytes:100_000 () in
  let site = Cyclic_alloc.site vm ~class_name:"C" ~m:2 ~n_fields:1 ~scalar_bytes:16 in
  let a = Cyclic_alloc.alloc site in
  let b = Cyclic_alloc.alloc site in
  let c = Cyclic_alloc.alloc site in
  Alcotest.(check bool) "third allocation reuses the first" true (c == a);
  let d = Cyclic_alloc.alloc site in
  Alcotest.(check bool) "fourth reuses the second" true (d == b);
  Alcotest.(check int) "two recycles" 2 (Cyclic_alloc.recycled site)

let test_recycling_clears_fields () =
  let vm = Vm.create ~heap_bytes:100_000 () in
  let site = Cyclic_alloc.site vm ~class_name:"C" ~m:1 ~n_fields:1 ~scalar_bytes:16 in
  let a = Cyclic_alloc.alloc site in
  let other = Vm.alloc vm ~class_name:"Payload" ~n_fields:0 () in
  Mutator.write_obj vm a 0 other;
  let b = Cyclic_alloc.alloc site in
  Alcotest.(check bool) "same object" true (b == a);
  Alcotest.(check bool) "field silently cleared" true (Mutator.read vm b 0 = None)

let test_corruption_detected_only_when_live () =
  let vm = Vm.create ~heap_bytes:100_000 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  let site = Cyclic_alloc.site vm ~class_name:"C" ~m:2 ~n_fields:1 ~scalar_bytes:16 in
  (* the program holds no references: recycling is safe *)
  ignore (Cyclic_alloc.alloc site);
  ignore (Cyclic_alloc.alloc site);
  ignore (Cyclic_alloc.alloc site);
  Alcotest.(check int) "unreferenced reuse is not corruption" 0
    (Cyclic_alloc.recycled_while_reachable site);
  (* now the program pins one: recycling it is corruption *)
  let pinned = Cyclic_alloc.alloc site in
  Mutator.write_obj vm statics 0 pinned;
  ignore (Cyclic_alloc.alloc site);
  ignore (Cyclic_alloc.alloc site);
  Alcotest.(check bool) "live recycle counted" true
    (Cyclic_alloc.recycled_while_reachable site >= 1)

let test_bounded_memory () =
  let vm = Vm.create ~heap_bytes:4_000 () in
  let site = Cyclic_alloc.site vm ~class_name:"C" ~m:8 ~n_fields:1 ~scalar_bytes:64 in
  (* thousands of allocations in a tiny heap: the ring bound must keep
     the program alive without any collection pressure from the site *)
  for _i = 1 to 5_000 do
    ignore (Cyclic_alloc.alloc site)
  done;
  Alcotest.(check bool) "memory bounded by m" true (Vm.used_bytes vm < 2_000)

(* A recycling allocation runs a trial mark, which must leave no trace:
   after it every slot reads as before, and the next collection counts
   exactly what it counts in a run without the trial mark. The trial
   mark comes while the last collection's sweep is part way done. *)
let test_trial_mark_leaves_no_trace () =
  let run ~trial =
    let vm = Vm.create ~heap_bytes:20_000 () in
    let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
    let site = Cyclic_alloc.site vm ~class_name:"C" ~m:4 ~n_fields:0 ~scalar_bytes:16 in
    let objs = List.init 4 (fun _ -> Cyclic_alloc.alloc site) in
    Mutator.write_obj vm statics 0 (List.nth objs 1);
    for _ = 1 to 60 do
      ignore (Vm.alloc vm ~class_name:"G" ~n_fields:0 ())
    done;
    Vm.run_gc vm;
    ignore (Vm.alloc vm ~class_name:"G" ~n_fields:0 ());
    let store = Vm.store vm in
    Alcotest.(check bool) "the sweep is part way done" true (Store.unswept store > 0);
    let reads () =
      List.init (Store.slot_count store) (fun i ->
          let id = i + 1 in
          let live = Store.mem store id in
          (live, Store.find store id, if live then Store.header store id else Header.free))
    in
    if trial then begin
      let before = reads () in
      ignore (Cyclic_alloc.alloc site);
      Alcotest.(check int) "one recycle" 1 (Cyclic_alloc.recycled site);
      Alcotest.(check bool) "every slot reads as before" true (reads () = before)
    end;
    Vm.run_gc vm;
    Gc_stats.copy (Vm.stats vm)
  in
  let control = run ~trial:false in
  Alcotest.(check bool) "the next collection's counters match a run without it" true
    (run ~trial:true = control)

let suite =
  ( "cyclic_alloc",
    [
      Alcotest.test_case "fresh until full" `Quick test_fresh_until_full;
      Alcotest.test_case "fifo recycling" `Quick test_recycles_in_fifo_order;
      Alcotest.test_case "clears fields" `Quick test_recycling_clears_fields;
      Alcotest.test_case "live-recycle detection" `Quick
        test_corruption_detected_only_when_live;
      Alcotest.test_case "bounded memory" `Quick test_bounded_memory;
      Alcotest.test_case "a trial mark leaves no trace" `Quick
        test_trial_mark_leaves_no_trace;
    ] )
