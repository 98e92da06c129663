(* Heap diagnostics and the consistency checker. *)

open Lp_heap
open Lp_runtime

let vm_with_leak () =
  let vm = Vm.create ~heap_bytes:100_000 () in
  let statics = Vm.statics vm ~class_name:"D" ~n_fields:1 in
  for _i = 1 to 20 do
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let node = Vm.alloc vm ~class_name:"D$Node" ~scalar_bytes:40 ~n_fields:1 () in
        Roots.set_slot frame 0 node.Heap_obj.id;
        (match Mutator.read vm statics 0 with
        | Some head -> Mutator.write_obj vm node 0 head
        | None -> ());
        Mutator.write_obj vm statics 0 node)
  done;
  vm

let test_class_histogram () =
  let vm = vm_with_leak () in
  let hist = Diagnostics.class_histogram vm in
  let nodes = List.find (fun s -> s.Diagnostics.class_name = "D$Node") hist in
  Alcotest.(check int) "node count" 20 nodes.Diagnostics.objects;
  Alcotest.(check int) "node bytes" (20 * (8 + 4 + 40)) nodes.Diagnostics.bytes;
  (* biggest first *)
  (match hist with
  | first :: _ ->
    Alcotest.(check string) "sorted by footprint" "D$Node" first.Diagnostics.class_name
  | [] -> Alcotest.fail "empty histogram")

let test_staleness_histogram () =
  let vm = vm_with_leak () in
  let before = Diagnostics.staleness_histogram vm in
  Alcotest.(check int) "everything fresh initially"
    (Array.fold_left ( + ) 0 before)
    before.(0);
  (* age the heap: staleness tracking starts once occupancy crosses the
     OBSERVE threshold, so pin a filler past 50% *)
  let pin = Vm.statics vm ~class_name:"Pin" ~n_fields:1 in
  Mutator.write_obj vm pin 0
    (Vm.alloc vm ~class_name:"Big" ~scalar_bytes:60_000 ~n_fields:0 ());
  Vm.run_gc vm;
  Vm.run_gc vm;
  Vm.run_gc vm;
  Vm.run_gc vm;
  let after = Diagnostics.staleness_histogram vm in
  Alcotest.(check bool) "staleness appeared" true
    (Array.fold_left ( + ) 0 (Array.sub after 2 6) > 0);
  Alcotest.(check bool) "stale bytes positive" true (Diagnostics.stale_bytes vm > 0)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_summary_mentions_classes () =
  let vm = vm_with_leak () in
  let s = Diagnostics.summary vm in
  Alcotest.(check bool) "mentions the leaking class" true (contains_sub s "D$Node")

let test_to_dot () =
  let vm = vm_with_leak () in
  let dot = Diagnostics.to_dot vm in
  Alcotest.(check bool) "digraph" true (contains_sub dot "digraph heap");
  Alcotest.(check bool) "nodes labelled with class" true (contains_sub dot "D$Node");
  Alcotest.(check bool) "edges drawn" true (contains_sub dot "->");
  (* poison an edge and confirm it renders red *)
  let statics = Vm.statics vm ~class_name:"D" ~n_fields:1 in
  (match Mutator.read vm statics 0 with
  | Some head ->
    Store.set_field (Vm.store vm) head.Heap_obj.id 0 (Word.poison (Store.field (Vm.store vm) head.Heap_obj.id 0))
  | None -> Alcotest.fail "expected a head node");
  let dot = Diagnostics.to_dot vm in
  Alcotest.(check bool) "poisoned edge rendered" true (contains_sub dot "color=red")

let test_heap_check_ok () =
  let vm = vm_with_leak () in
  match Diagnostics.heap_check vm with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_heap_check_detects_corruption () =
  let vm = Vm.create ~heap_bytes:10_000 () in
  let a = Vm.alloc vm ~class_name:"A" ~n_fields:1 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  Mutator.write_obj vm statics 0 a;
  (* forge a dangling, unpoisoned reference *)
  Store.set_field (Vm.store vm) a.Heap_obj.id 0 (Word.of_id 9_999);
  match Diagnostics.heap_check vm with
  | Ok () -> Alcotest.fail "corruption not detected"
  | Error _ -> ()

(* The first failure [heap_check] reports must mention [needle]. *)
let check_fails_with ?strict vm needle =
  match Diagnostics.heap_check ?strict vm with
  | Ok () -> Alcotest.failf "heap check passed; expected %S" needle
  | Error msg ->
    Alcotest.(check bool) ("reported: " ^ msg) true (contains_sub msg needle)

let image_bytes ~object_id =
  Swap_image.encode
    {
      Swap_image.object_id;
      class_id = 1;
      stale = 3;
      scalar_bytes = 8;
      fields =
        [|
          { Swap_image.word = Word.of_id 2; referent_class = 1 };
          { Swap_image.word = Word.null; referent_class = -1 };
        |];
    }

let test_heap_check_mark_bit () =
  let vm = vm_with_leak () in
  let obj = Vm.alloc vm ~class_name:"Marked" ~n_fields:0 () in
  Store.set_header (Vm.store vm) obj.Heap_obj.id (Header.set_marked (Store.header (Vm.store vm) obj.Heap_obj.id));
  check_fails_with vm
    (Printf.sprintf "object %d carries a mark bit outside a collection"
       obj.Heap_obj.id)

let test_heap_check_image_object_id () =
  let vm = Vm.create ~resurrection:true ~heap_bytes:10_000 () in
  Diskswap.store_image (Vm.swap vm) ~id:7 (image_bytes ~object_id:8);
  check_fails_with ~strict:true vm
    "swap image stored under id 7 records object id 8"

let test_heap_check_corrupt_image () =
  let vm = Vm.create ~resurrection:true ~heap_bytes:10_000 () in
  Diskswap.store_image (Vm.swap vm) ~id:7
    (Swap_image.tear (image_bytes ~object_id:7) ~keep:20);
  (* the memo of a corrupt image is empty, as its bytes say, so strict
     mode reaches the corruption itself *)
  check_fails_with ~strict:true vm "swap image 7 is corrupt (";
  check_fails_with vm "with no swap fault ever injected"

(* The live objects counted by stale counter, one closure per object. *)
let iter_live_histogram vm =
  let hist = Array.make (Header.max_stale + 1) 0 in
  Store.iter_live (Vm.store vm) (fun obj ->
      let k = Store.stale (Vm.store vm) obj.Heap_obj.id in
      hist.(k) <- hist.(k) + 1);
  hist

(* After every collection [drive] runs, the histogram the VM retained
   for it equals a count over the live objects taken right then, and
   some collection saw a stale object. The VM's history holds exactly
   the records its listener was handed. *)
let check_retained_histograms vm ~drive =
  let collections = ref 0 and stale_seen = ref false and seen = ref [] in
  Vm.set_gc_listener vm
    (Some
       (fun record ->
         incr collections;
         seen := record :: !seen;
         let expected = iter_live_histogram vm in
         if Array.exists (fun n -> n > 0) (Array.sub expected 1 Header.max_stale)
         then stale_seen := true;
         match
           Lp_obs.Metrics.find_series (Vm.metrics_snapshot vm)
             "gc.staleness_histogram"
         with
         | Some (_ :: _ as retained) ->
           Alcotest.(check (array int))
             (Printf.sprintf "collection %d" (Vm.gc_count vm))
             expected
             (List.nth retained (List.length retained - 1));
           Alcotest.(check (array int)) "diagnostics agree" expected
             (Diagnostics.staleness_histogram vm)
         | Some [] | None -> Alcotest.fail "no retained histogram"));
  drive ();
  Alcotest.(check bool)
    (Printf.sprintf "collections ran (%d)" !collections)
    true (!collections >= 5);
  Alcotest.(check bool) "history = records handed to the listener" true
    (Vm.gc_history vm = List.rev !seen);
  Alcotest.(check bool) "staleness appeared" true !stale_seen

(* A leaking list the program keeps prepending to, so its tail ages. *)
let leak vm statics ~nodes ~garbage_bytes =
  for _i = 1 to nodes do
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let node = Vm.alloc vm ~class_name:"L$Node" ~scalar_bytes:40 ~n_fields:1 () in
        Roots.set_slot frame 0 node.Heap_obj.id;
        (match Mutator.read vm statics 0 with
        | Some head -> Mutator.write_obj vm node 0 head
        | None -> ());
        Mutator.write_obj vm statics 0 node;
        if garbage_bytes > 0 then
          ignore
            (Vm.alloc vm ~class_name:"L$Garbage" ~scalar_bytes:garbage_bytes
               ~n_fields:0 ()))
  done

let test_histogram_generational () =
  let vm =
    Vm.create
      ~config:(Lp_core.Config.make ~policy:Lp_core.Policy.Default ())
      ~nursery_bytes:2_000 ~heap_bytes:20_000 ()
  in
  let statics = Vm.statics vm ~class_name:"L" ~n_fields:1 in
  check_retained_histograms vm ~drive:(fun () ->
      leak vm statics ~nodes:2_000 ~garbage_bytes:80);
  Alcotest.(check bool) "minor collections ran" true (Vm.minor_gc_count vm > 0)

let test_histogram_disk_baseline () =
  let vm =
    Vm.create
      ~config:
        (Lp_core.Config.make ~policy:Lp_core.Policy.Default
           ~force_state:Lp_core.State_kind.Observe ())
      ~disk:(Diskswap.default_config ~disk_limit_bytes:10_000)
      ~heap_bytes:2_000 ()
  in
  let statics = Vm.statics vm ~class_name:"L" ~n_fields:1 in
  check_retained_histograms vm ~drive:(fun () ->
      for _round = 1 to 12 do
        leak vm statics ~nodes:5 ~garbage_bytes:0;
        Vm.run_gc vm
      done);
  Alcotest.(check bool) "offloaded something" true
    (Diskswap.resident_bytes (Vm.swap vm) > 0)

let suite =
  ( "diagnostics",
    [
      Alcotest.test_case "class histogram" `Quick test_class_histogram;
      Alcotest.test_case "staleness histogram" `Quick test_staleness_histogram;
      Alcotest.test_case "summary" `Quick test_summary_mentions_classes;
      Alcotest.test_case "dot export" `Quick test_to_dot;
      Alcotest.test_case "heap check ok" `Quick test_heap_check_ok;
      Alcotest.test_case "heap check detects corruption" `Quick
        test_heap_check_detects_corruption;
      Alcotest.test_case "heap check: mark bit" `Quick test_heap_check_mark_bit;
      Alcotest.test_case "heap check: image object id" `Quick
        test_heap_check_image_object_id;
      Alcotest.test_case "heap check: corrupt image" `Quick
        test_heap_check_corrupt_image;
      Alcotest.test_case "retained histograms: generational" `Quick
        test_histogram_generational;
      Alcotest.test_case "retained histograms: disk baseline" `Quick
        test_histogram_disk_baseline;
    ] )
