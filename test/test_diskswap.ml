(* The Melt/LeakSurvivor-style disk-offloading baseline. *)

open Lp_heap
open Lp_runtime

let make_vm ?(disk_limit = 10_000) ?(heap = 2_000) () =
  Vm.create
    ~config:
      (Lp_core.Config.make ~policy:Lp_core.Policy.Default
         ~force_state:Lp_core.State_kind.Observe ())
    ~disk:(Diskswap.default_config ~disk_limit_bytes:disk_limit)
    ~heap_bytes:heap ()

let grow vm statics ~nodes =
  for _i = 1 to nodes do
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let node = Vm.alloc vm ~class_name:"Node" ~scalar_bytes:40 ~n_fields:1 () in
        Roots.set_slot frame 0 node.Heap_obj.id;
        (match Mutator.read vm statics 0 with
        | Some head -> Mutator.write_obj vm node 0 head
        | None -> ());
        Mutator.write_obj vm statics 0 node)
  done

(* Build a chain while collections age it (staleness only grows across
   collections); growth eventually pushes occupancy past the offload
   threshold and the post-collection hook moves the stale tail to
   disk. *)
let leak_until_offload vm statics =
  for _round = 1 to 10 do
    grow vm statics ~nodes:5;
    Vm.run_gc vm
  done

let test_offload_extends_run () =
  let vm = make_vm () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:2 in
  leak_until_offload vm statics;
  Alcotest.(check bool) "offload baseline configured" true (Vm.offloading vm);
  let d = Vm.swap vm in
  Alcotest.(check bool) "offloaded something" true (Diskswap.resident_bytes d > 0);
  Alcotest.(check bool) "heap used exceeds limit thanks to the disk credit" true
    (Store.used_bytes (Vm.store vm) > Store.limit_bytes (Vm.store vm)
    || Store.swapped_out_bytes (Vm.store vm) > 0)

let test_retrieval_on_access () =
  let vm = make_vm () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:2 in
  leak_until_offload vm statics;
  Alcotest.(check bool) "offload baseline configured" true (Vm.offloading vm);
  let d = Vm.swap vm in
  let resident_before = Diskswap.resident_count d in
  (* walk the chain: accesses fault offloaded nodes back in *)
  let rec walk = function
    | None -> ()
    | Some node -> walk (Mutator.read vm node 0)
  in
  walk (Mutator.read vm statics 0);
  Alcotest.(check bool) "retrievals happened" true (Diskswap.total_swap_ins d > 0);
  Alcotest.(check bool) "fewer resident after walking" true
    (Diskswap.resident_count d < resident_before)

(* The read barrier trusts the on-disk header bit alone, so the bit must
   track residency exactly; the strict verifier holds it to that. *)
let test_on_disk_bit_tracks_residency () =
  let vm = make_vm () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:2 in
  leak_until_offload vm statics;
  let d = Vm.swap vm in
  let resident = ref [] in
  Store.iter_live (Vm.store vm) (fun obj ->
      Alcotest.(check bool)
        (Printf.sprintf "object %d: bit iff resident" obj.Heap_obj.id)
        (Diskswap.is_resident d obj.Heap_obj.id)
        (Header.on_disk obj.Heap_obj.header);
      if Header.on_disk obj.Heap_obj.header then resident := obj :: !resident);
  Alcotest.(check bool) "something is on disk" true (!resident <> []);
  Alcotest.(check bool) "strict verifier passes" true
    (Diagnostics.heap_check ~strict:true vm = Ok ());
  let obj = List.hd !resident in
  (match Diskswap.retrieve d (Vm.store vm) obj with
  | `Swapped_in -> ()
  | `Not_resident | `Corrupt _ -> Alcotest.fail "resident object must swap in");
  Alcotest.(check bool) "swap-in clears the bit" false
    (Header.on_disk obj.Heap_obj.header);
  Alcotest.(check bool) "still consistent" true
    (Diagnostics.heap_check ~strict:true vm = Ok ());
  (* a resident object whose bit went missing is reported *)
  let other = List.nth !resident 1 in
  other.Heap_obj.header <- Header.clear_on_disk other.Heap_obj.header;
  Alcotest.(check bool) "missing bit reported" true
    (Result.is_error (Diagnostics.heap_check ~strict:true vm))

let test_out_of_disk () =
  let vm = make_vm ~disk_limit:4_000 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:2 in
  match
    for _i = 1 to 10_000 do
      grow vm statics ~nodes:5;
      (* periodic collections age the chain, as allocation churn does in
         a real program *)
      Vm.run_gc vm
    done
  with
  | () -> Alcotest.fail "expected Disk_exhausted"
  | exception
      Lp_core.Errors.Disk_exhausted { resident_bytes; limit_bytes; retries; gc_count }
    ->
    (* the VM's bounded degradation policy ran out: the structured error
       carries the configured limit, the residency that defeated the
       last retry, and the retry budget it spent *)
    Alcotest.(check int) "limit carried" 4_000 limit_bytes;
    Alcotest.(check bool) "resident exceeded limit" true (resident_bytes > limit_bytes);
    Alcotest.(check int) "retries equal the configured budget"
      (Lp_core.Controller.config (Vm.controller vm)).Lp_core.Config.disk_retry_attempts
      retries;
    Alcotest.(check bool) "collection count recorded" true (gc_count > 0)

(* Exercise the Diskswap layer directly, without the VM's retry policy
   in between: build a full heap of stale objects by hand and let the
   post-collection hook offload them past a tiny disk limit. *)
let stale_full_store () =
  let store = Store.create ~limit_bytes:2_000 in
  let registry = Class_registry.create () in
  let cls = Class_registry.register registry "Node" in
  let objs = ref [] in
  (try
     while true do
       let o =
         Store.alloc store ~class_id:cls ~n_fields:1 ~scalar_bytes:100
           ~finalizable:false
       in
       Heap_obj.set_stale o 3;
       objs := o :: !objs
     done
   with Store.Heap_full _ -> ());
  (* the occupancy test reads live bytes, which only a sweep records *)
  Store.set_live_bytes store (Store.used_bytes store);
  (store, !objs)

let test_direct_out_of_disk_payload () =
  let store, _ = stale_full_store () in
  let d =
    Diskswap.create
      { Diskswap.disk_limit_bytes = 300; offload_stale_threshold = 2; offload_occupancy = 0.5 }
  in
  match Diskswap.after_gc d store with
  | () -> Alcotest.fail "expected Out_of_disk"
  | exception Diskswap.Out_of_disk { resident_bytes; limit_bytes } ->
    Alcotest.(check int) "limit carried" 300 limit_bytes;
    Alcotest.(check bool) "resident exceeds limit" true (resident_bytes > limit_bytes);
    Alcotest.(check int) "payload matches the disk's accounting"
      (Diskswap.resident_bytes d) resident_bytes

let test_reconcile_releases_swept () =
  let store, objs = stale_full_store () in
  let d =
    Diskswap.create
      { Diskswap.disk_limit_bytes = 100_000; offload_stale_threshold = 2; offload_occupancy = 0.5 }
  in
  Diskswap.after_gc d store;
  let before = Diskswap.resident_bytes d in
  Alcotest.(check bool) "objects offloaded" true (before > 0);
  (* a sweep reclaims half the objects; reconcile must release their disk *)
  List.iteri (fun i o -> if i mod 2 = 0 then Store.free store o) objs;
  Diskswap.after_gc ~allow_offload:false d store;
  Alcotest.(check bool) "disk released for swept objects" true
    (Diskswap.resident_bytes d < before);
  Diskswap.iter_resident d (fun ~id ~bytes:_ ->
      Alcotest.(check bool) "every remaining resident id is live" true
        (Store.mem store id))

let test_dead_objects_release_disk () =
  let vm = make_vm () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:2 in
  leak_until_offload vm statics;
  Alcotest.(check bool) "offload baseline configured" true (Vm.offloading vm);
  let d = Vm.swap vm in
  let resident_before = Diskswap.resident_bytes d in
  Alcotest.(check bool) "precondition" true (resident_before > 0);
  (* drop the chain; offloaded objects die and must release disk space *)
  Mutator.clear vm statics 0;
  Mutator.clear vm statics 1;
  Vm.run_gc vm;
  Alcotest.(check int) "disk released" 0 (Diskswap.resident_bytes d)

(* ---- Accounting edges: retrieval must never drive residency negative,
   no matter how it interleaves with reconciliation or faults. ---- *)

let offloaded_fixture ?image_fault () =
  let store, objs = stale_full_store () in
  let d =
    Diskswap.create
      { Diskswap.disk_limit_bytes = 100_000; offload_stale_threshold = 2; offload_occupancy = 0.5 }
  in
  Diskswap.set_image_fault_hook d image_fault;
  Diskswap.after_gc d store;
  Alcotest.(check bool) "fixture offloaded something" true
    (Diskswap.resident_count d > 0);
  (store, d, objs)

let test_double_retrieve_is_not_resident () =
  let store, d, objs = offloaded_fixture () in
  let obj = List.find (fun o -> Diskswap.is_resident d o.Heap_obj.id) objs in
  (match Diskswap.retrieve d store obj with
  | `Swapped_in -> ()
  | `Not_resident | `Corrupt _ -> Alcotest.fail "first retrieve must swap in");
  let resident_after = Diskswap.resident_bytes d in
  (match Diskswap.retrieve d store obj with
  | `Not_resident -> ()
  | `Swapped_in | `Corrupt _ ->
    Alcotest.fail "second retrieve of the same object must be a no-op");
  Alcotest.(check int) "no double release" resident_after
    (Diskswap.resident_bytes d);
  Alcotest.(check bool) "residency non-negative" true
    (Diskswap.resident_bytes d >= 0)

let test_reconcile_after_retrieve () =
  let store, d, objs = offloaded_fixture () in
  (* retrieve half the resident set, then reconcile: the already-released
     entries must not be released a second time *)
  List.iteri
    (fun i o ->
      if i mod 2 = 0 && Diskswap.is_resident d o.Heap_obj.id then
        ignore (Diskswap.retrieve d store o))
    objs;
  let after_retrieves = Diskswap.resident_bytes d in
  Diskswap.after_gc ~allow_offload:false d store;
  Alcotest.(check int) "reconcile releases nothing extra" after_retrieves
    (Diskswap.resident_bytes d);
  Alcotest.(check bool) "residency non-negative" true (after_retrieves >= 0)

let test_residency_non_negative_under_faults () =
  (* every payload write is corrupted: each retrieval reports `Corrupt
     and releases the entry exactly once; the books stay closed *)
  let store, d, objs =
    offloaded_fixture
      ~image_fault:(fun img -> Lp_runtime.Swap_image.corrupt img ~pos:3)
      ()
  in
  List.iter
    (fun o ->
      if Diskswap.is_resident d o.Heap_obj.id then begin
        (match Diskswap.retrieve d store o with
        | `Corrupt _ -> ()
        | `Swapped_in -> Alcotest.fail "corrupted payload must not swap in"
        | `Not_resident -> Alcotest.fail "entry disappeared");
        (match Diskswap.retrieve d store o with
        | `Not_resident -> ()
        | `Swapped_in | `Corrupt _ -> Alcotest.fail "entry must be released once");
        Alcotest.(check bool) "residency non-negative" true
          (Diskswap.resident_bytes d >= 0)
      end)
    objs;
  Alcotest.(check int) "all entries released" 0 (Diskswap.resident_count d);
  Alcotest.(check int) "accounting drained to zero" 0 (Diskswap.resident_bytes d)

let test_combined_pruning_and_disk () =
  (* with pruning enabled alongside the disk, an allocation failure
     falls through to the SELECT/PRUNE protocol instead of giving up *)
  let vm =
    Vm.create
      ~config:(Lp_core.Config.make ~policy:Lp_core.Policy.Default ())
      ~disk:(Diskswap.default_config ~disk_limit_bytes:50_000)
      ~heap_bytes:2_000 ()
  in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:2 in
  (* the chain leaks; pruning should keep the program alive far beyond
     the heap's capacity *)
  for _i = 1 to 400 do
    grow vm statics ~nodes:1
  done;
  Alcotest.(check bool) "survived 400 x 52B in a 2KB heap" true
    ((Vm.stats vm).Gc_stats.references_poisoned > 0)

(* ---- Shared-backend quota accounting (fleet mode) ---- *)

(* A bare store of [objs] equally-sized, maximally-stale objects, so
   every one is an offload candidate and the admission math is exact. *)
let direct_store ~objs =
  let reg = Class_registry.create () in
  let cid = Class_registry.register reg "Q" in
  let store = Store.create ~limit_bytes:1_000_000 in
  let size = ref 0 in
  for _i = 1 to objs do
    let o =
      Store.alloc store ~class_id:cid ~n_fields:0 ~scalar_bytes:64
        ~finalizable:false
    in
    Heap_obj.set_stale o Lp_heap.Header.max_stale;
    size := o.Heap_obj.size_bytes
  done;
  (* the occupancy test reads live bytes, which only a sweep records *)
  Store.set_live_bytes store (Store.used_bytes store);
  (store, !size)

let eager_config ~quota =
  { (Diskswap.default_config ~disk_limit_bytes:quota) with
    Diskswap.offload_occupancy = 0.0;
    offload_stale_threshold = 1
  }

let test_quota_exactly_exhausted () =
  let store, size = direct_store ~objs:4 in
  let backend = Diskswap.create_backend ~capacity_bytes:max_int in
  (* quota holds exactly two objects: <= admits the boundary write *)
  let d = Diskswap.create ~backend (eager_config ~quota:(2 * size)) in
  Diskswap.after_gc d store;
  Alcotest.(check int) "quota filled to the byte" (2 * size)
    (Diskswap.disk_bytes d);
  Alcotest.(check int) "the other candidates were denied" 2
    (Diskswap.admission_denials d);
  Alcotest.(check int) "backend charged exactly the quota" (2 * size)
    (Diskswap.backend_used_bytes backend)

let test_quota_freed_by_retrieve_readmits () =
  let store, size = direct_store ~objs:3 in
  let backend = Diskswap.create_backend ~capacity_bytes:max_int in
  let d = Diskswap.create ~backend (eager_config ~quota:(2 * size)) in
  Diskswap.after_gc d store;
  Alcotest.(check int) "one denial at full quota" 1
    (Diskswap.admission_denials d);
  (* fault one object back in: quota space frees, the next pass admits
     the previously denied candidate *)
  let resident = ref None in
  Store.iter_live store (fun o ->
      if !resident = None && Diskswap.is_resident d o.Heap_obj.id then
        resident := Some o);
  (match Diskswap.retrieve d store (Option.get !resident) with
  | `Swapped_in -> ()
  | _ -> Alcotest.fail "expected a clean swap-in");
  Diskswap.after_gc d store;
  Alcotest.(check int) "quota full again" (2 * size) (Diskswap.disk_bytes d);
  Alcotest.(check int) "backend follows" (2 * size)
    (Diskswap.backend_used_bytes backend)

let test_quota_freed_by_retain_images () =
  let backend = Diskswap.create_backend ~capacity_bytes:max_int in
  let d = Diskswap.create ~backend (eager_config ~quota:10_000) in
  Diskswap.store_image d ~id:1 (Bytes.create 400);
  Diskswap.store_image d ~id:2 (Bytes.create 300);
  Alcotest.(check int) "backend charged for images" 700
    (Diskswap.backend_used_bytes backend);
  Diskswap.retain_images d ~keep:(fun id -> id = 2);
  Alcotest.(check int) "retention credited the backend" 300
    (Diskswap.backend_used_bytes backend);
  Diskswap.retain_images d ~keep:(fun _ -> false);
  Alcotest.(check int) "all image bytes released" 0
    (Diskswap.backend_used_bytes backend)

(* Two tenants race admission for the backend's last bytes, on the
   deterministic schedule the fleet uses (tenant-id order): the store
   served first wins, the loser's denial is counted on both the store
   and the backend. *)
let test_two_tenants_race_last_bytes () =
  let store_a, size = direct_store ~objs:2 in
  let store_b, _ = direct_store ~objs:2 in
  let backend = Diskswap.create_backend ~capacity_bytes:(3 * size) in
  let a = Diskswap.create ~backend (eager_config ~quota:(2 * size)) in
  let b = Diskswap.create ~backend (eager_config ~quota:(2 * size)) in
  Diskswap.after_gc a store_a;
  Diskswap.after_gc b store_b;
  Alcotest.(check int) "first tenant offloads its whole quota" (2 * size)
    (Diskswap.disk_bytes a);
  Alcotest.(check int) "second tenant got only the last slot" size
    (Diskswap.disk_bytes b);
  Alcotest.(check int) "no denials for the winner" 0
    (Diskswap.admission_denials a);
  Alcotest.(check int) "one denial for the loser" 1
    (Diskswap.admission_denials b);
  Alcotest.(check int) "backend saw exactly that denial" 1
    (Diskswap.backend_denials backend);
  Alcotest.(check int) "backend is full" (3 * size)
    (Diskswap.backend_used_bytes backend);
  (* crash-consistent recovery of the winner frees its share *)
  let recovery = Diskswap.recover a in
  Alcotest.(check int) "recovery released the winner's bytes" (2 * size)
    recovery.Diskswap.bytes_released;
  Alcotest.(check int) "backend credited" size
    (Diskswap.backend_used_bytes backend);
  Diskswap.after_gc b store_b;
  Alcotest.(check int) "loser's denied candidate now admitted" (2 * size)
    (Diskswap.disk_bytes b)

let suite =
  ( "diskswap",
    [
      Alcotest.test_case "offload extends run" `Quick test_offload_extends_run;
      Alcotest.test_case "retrieval on access" `Quick test_retrieval_on_access;
      Alcotest.test_case "on-disk bit tracks residency" `Quick
        test_on_disk_bit_tracks_residency;
      Alcotest.test_case "out of disk" `Quick test_out_of_disk;
      Alcotest.test_case "direct out-of-disk payload" `Quick test_direct_out_of_disk_payload;
      Alcotest.test_case "reconcile releases swept objects" `Quick test_reconcile_releases_swept;
      Alcotest.test_case "dead objects release disk" `Quick test_dead_objects_release_disk;
      Alcotest.test_case "double retrieve" `Quick test_double_retrieve_is_not_resident;
      Alcotest.test_case "reconcile after retrieve" `Quick test_reconcile_after_retrieve;
      Alcotest.test_case "residency under faults" `Quick
        test_residency_non_negative_under_faults;
      Alcotest.test_case "combined pruning + disk" `Quick test_combined_pruning_and_disk;
      Alcotest.test_case "quota exactly exhausted" `Quick
        test_quota_exactly_exhausted;
      Alcotest.test_case "quota freed by retrieve readmits" `Quick
        test_quota_freed_by_retrieve_readmits;
      Alcotest.test_case "quota freed by retain_images" `Quick
        test_quota_freed_by_retain_images;
      Alcotest.test_case "two tenants race the last bytes" `Quick
        test_two_tenants_race_last_bytes;
    ] )
