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

(* Whether the object with this identifier is among the disk-resident
   ones. *)
let is_resident d id =
  let found = ref false in
  Diskswap.iter_resident d (fun ~id:r ~bytes:_ -> if r = id then found := true);
  !found

let grow vm statics ~nodes =
  for _i = 1 to nodes do
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let node = Vm.alloc vm ~class_name:"Node" ~scalar_bytes:40 ~n_fields:1 () in
        Roots.set_slot frame 0 (Heap_obj.index node);
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
        (Printf.sprintf "object %d: bit iff resident" (Heap_obj.index obj))
        (is_resident d (Heap_obj.index obj))
        (Header.on_disk (Store.header (Vm.store vm) (Heap_obj.index obj)));
      if Header.on_disk (Store.header (Vm.store vm) (Heap_obj.index obj)) then resident := obj :: !resident);
  Alcotest.(check bool) "something is on disk" true (!resident <> []);
  Alcotest.(check bool) "strict verifier passes" true
    (Diagnostics.heap_check ~strict:true vm = Ok ());
  let obj = List.hd !resident in
  (match Diskswap.retrieve d (Vm.store vm) obj with
  | `Swapped_in -> ()
  | `Not_resident | `Corrupt _ -> Alcotest.fail "resident object must swap in");
  Alcotest.(check bool) "swap-in clears the bit" false
    (Header.on_disk (Store.header (Vm.store vm) (Heap_obj.index obj)));
  Alcotest.(check bool) "still consistent" true
    (Diagnostics.heap_check ~strict:true vm = Ok ());
  (* a resident object whose bit went missing is reported *)
  let other = List.nth !resident 1 in
  Store.set_header (Vm.store vm) (Heap_obj.index other) (Header.clear_on_disk (Store.header (Vm.store vm) (Heap_obj.index other)));
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
    Alcotest.(check int) "retries equal the budget" Vm.disk_retry_attempts
      retries;
    Alcotest.(check bool) "collection count recorded" true (gc_count > 0)

(* A real collection that keeps every object, as if all were rooted:
   the store's live bytes become its used bytes, which the offload
   pass's occupancy test reads. *)
let collect_all store =
  let roots = Roots.create () in
  Store.iter_live store (fun o -> Roots.add_static_root roots (Heap_obj.index o));
  let engine = Collector.create () and stats = Gc_stats.create () in
  ignore (Collector.mark engine store roots ~stats ~config:Collector.base_config);
  Collector.sweep engine store ~stats

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
       Store.set_stale store (Heap_obj.index o) 3;
       objs := o :: !objs
     done
   with Store.Heap_full _ -> ());
  collect_all store;
  (store, !objs)

let test_direct_out_of_disk_payload () =
  let store, _ = stale_full_store () in
  let d =
    Diskswap.create
      (Diskswap.default_config ~disk_limit_bytes:300)
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
      (Diskswap.default_config ~disk_limit_bytes:100_000)
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
      (Diskswap.default_config ~disk_limit_bytes:100_000)
  in
  Diskswap.set_image_fault_hook d image_fault;
  Diskswap.after_gc d store;
  Alcotest.(check bool) "fixture offloaded something" true
    (Diskswap.resident_count d > 0);
  (store, d, objs)

let test_double_retrieve_is_not_resident () =
  let store, d, objs = offloaded_fixture () in
  let obj = List.find (fun o -> is_resident d (Heap_obj.index o)) objs in
  (match Diskswap.retrieve d store obj with
  | `Swapped_in -> ()
  | `Not_resident | `Corrupt _ -> Alcotest.fail "first retrieve must swap in");
  let resident_after = Diskswap.resident_bytes d in
  let count_after = Diskswap.resident_count d in
  Alcotest.(check bool) "bit cleared" false
    (Header.on_disk (Store.header store (Heap_obj.index obj)));
  (match Diskswap.retrieve d store obj with
  | `Not_resident -> ()
  | `Swapped_in | `Corrupt _ ->
    Alcotest.fail "second retrieve of the same object must be a no-op");
  Alcotest.(check int) "no double release" resident_after
    (Diskswap.resident_bytes d);
  Alcotest.(check int) "no double count" count_after
    (Diskswap.resident_count d);
  Alcotest.(check bool) "residency non-negative" true
    (Diskswap.resident_bytes d >= 0)

let test_reconcile_after_retrieve () =
  let store, d, objs = offloaded_fixture () in
  (* retrieve half the resident set, then reconcile: the already-released
     entries must not be released a second time *)
  List.iteri
    (fun i o ->
      if i mod 2 = 0 && is_resident d (Heap_obj.index o) then
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
      if is_resident d (Heap_obj.index o) then begin
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
   every one is an offload candidate and the admission math is exact.
   The heap holds one object fewer than it has live, so every pass sees
   it past the 0.9 offload occupancy while at most one object is on
   disk. *)
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
    Store.set_stale store (Heap_obj.index o) Lp_heap.Header.max_stale;
    size := Store.size_bytes store (Heap_obj.index o)
  done;
  collect_all store;
  Store.set_limit_bytes store ((objs - 1) * !size);
  (store, !size)

let test_quota_exactly_exhausted () =
  let store, size = direct_store ~objs:4 in
  let backend = Diskswap.create_backend ~capacity_bytes:max_int in
  (* quota holds exactly two objects: <= admits the boundary write *)
  let d =
    Diskswap.create ~backend (Diskswap.default_config ~disk_limit_bytes:(2 * size))
  in
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
  let d =
    Diskswap.create ~backend (Diskswap.default_config ~disk_limit_bytes:(2 * size))
  in
  Diskswap.after_gc d store;
  Alcotest.(check int) "one denial at full quota" 1
    (Diskswap.admission_denials d);
  (* fault one object back in: quota space frees, the next pass admits
     the previously denied candidate *)
  let resident = ref None in
  Store.iter_live store (fun o ->
      if !resident = None && is_resident d (Heap_obj.index o) then
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
  let d =
    Diskswap.create ~backend (Diskswap.default_config ~disk_limit_bytes:10_000)
  in
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
  let a =
    Diskswap.create ~backend (Diskswap.default_config ~disk_limit_bytes:(2 * size))
  in
  let b =
    Diskswap.create ~backend (Diskswap.default_config ~disk_limit_bytes:(2 * size))
  in
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
  ignore (Diskswap.recover a : Diskswap.recovery);
  Alcotest.(check int) "recovery released the winner's bytes" 0
    (Diskswap.disk_bytes a);
  Alcotest.(check int) "backend credited the winner's share" size
    (Diskswap.backend_used_bytes backend);
  Diskswap.after_gc b store_b;
  Alcotest.(check int) "loser's denied candidate now admitted" (2 * size)
    (Diskswap.disk_bytes b)

(* Collects the store, keeping every object, and sets its limit to the
   bytes [d] leaves in memory, so the next pass sees the heap full. *)
let fill_heap store d =
  collect_all store;
  Store.set_limit_bytes store
    (Store.live_bytes store - Diskswap.resident_bytes d)

(* ---- Offload order against an independent reference ---- *)

type kind = Plain | Statics | Resident | Dead

(* One generated object: its kind, its stale level for the measured
   pass, and its scalar bytes. *)
let gen_obj =
  QCheck.Gen.(
    let* kind =
      frequency
        [ (6, return Plain); (1, return Statics); (2, return Resident);
          (1, return Dead) ]
    in
    let* stale = int_range 0 Header.max_stale in
    let* scalar = int_range 0 12 in
    return (kind, stale, 8 * scalar))

let show_obj (kind, stale, scalar) =
  Printf.sprintf "%s/%d/%d"
    (match kind with
    | Plain -> "plain"
    | Statics -> "statics"
    | Resident -> "resident"
    | Dead -> "dead")
    stale scalar

(* A generated store meets a pass in two steps. The first offloads the
   [Resident] objects alone (the only stale ones then, with room for
   all). The second gives every object its stale level and lets the
   store's quota and the backend's capacity, each [budget] bytes past
   what is on disk, deny part of the pass. The [Disk_offload] events of
   the second pass must come in the order of a plain sort of the
   candidates by staleness descending, then id ascending, less the
   ones the two budgets turn away. *)
let prop_offload_order =
  QCheck.Test.make ~name:"diskswap: offload order is the sorted candidates"
    ~count:300
    (QCheck.make
       ~print:
         QCheck.Print.(
           triple (list show_obj) int int)
       QCheck.Gen.(
         triple
           (list_size (int_range 0 60) gen_obj)
           (int_range 0 3_000) (int_range 0 3_000)))
    (fun (objs, quota_budget, backend_budget) ->
      let reg = Class_registry.create () in
      let cid = Class_registry.register reg "Q" in
      let store = Store.create ~limit_bytes:1_000_000 in
      let alloc scalar_bytes =
        Store.alloc store ~class_id:cid ~n_fields:0 ~scalar_bytes
          ~finalizable:false
      in
      (* never a candidate: keeps the in-memory bytes above zero *)
      ignore (alloc 0 : Heap_obj.t);
      let placed =
        List.map (fun (kind, stale, scalar) -> (kind, stale, alloc scalar)) objs
      in
      let size o = Store.size_bytes store (Heap_obj.index o) in
      List.iter
        (fun (kind, _, o) ->
          let id = Heap_obj.index o in
          match kind with
          | Dead -> Store.free store o
          | Statics ->
            Store.set_header store id
              (Header.set_statics_container (Store.header store id))
          | Resident -> Store.set_stale store id Header.max_stale
          | Plain -> ())
        placed;
      let resident_bytes =
        List.fold_left
          (fun acc (kind, _, o) -> if kind = Resident then acc + size o else acc)
          0 placed
      in
      let backend = Diskswap.create_backend ~capacity_bytes:max_int in
      let d =
        Diskswap.create ~backend
          (Diskswap.default_config
             ~disk_limit_bytes:(resident_bytes + quota_budget))
      in
      fill_heap store d;
      Diskswap.after_gc d store;
      if Diskswap.resident_bytes d <> resident_bytes then
        QCheck.Test.fail_report "the first pass left some Resident in memory";
      List.iter
        (fun (kind, stale, o) ->
          if kind <> Dead then Store.set_stale store (Heap_obj.index o) stale)
        placed;
      fill_heap store d;
      Diskswap.set_backend_capacity backend
        (Diskswap.backend_used_bytes backend + backend_budget);
      let sink = Lp_obs.Sink.create ~clock:(fun () -> 0) () in
      Diskswap.set_sink d (Some sink);
      Diskswap.after_gc d store;
      let seen =
        List.filter_map
          (fun (st : Lp_obs.Event.stamped) ->
            match st.Lp_obs.Event.ev with
            | Lp_obs.Event.Disk_offload { id; bytes } -> Some (id, bytes)
            | _ -> None)
          (Lp_obs.Sink.events sink)
      in
      let candidates =
        List.filter_map
          (fun (kind, stale, o) ->
            if kind = Plain && stale >= 2 then
              Some (stale, Heap_obj.index o, size o)
            else None)
          placed
      in
      let sorted =
        List.sort
          (fun (s1, id1, _) (s2, id2, _) ->
            if s1 <> s2 then compare s2 s1 else compare id1 id2)
          candidates
      in
      let quota = ref quota_budget and capacity = ref backend_budget in
      let expected =
        List.filter_map
          (fun (_, id, bytes) ->
            if bytes <= !quota && bytes <= !capacity then begin
              quota := !quota - bytes;
              capacity := !capacity - bytes;
              Some (id, bytes)
            end
            else None)
          sorted
      in
      seen = expected
      && Diskswap.admission_denials d
         = List.length candidates - List.length expected)

(* ---- The residency table's lifecycle ---- *)

(* [n] objects of mixed sizes, none stale, and a swap store with room
   for all of them. *)
let lifecycle_store n =
  let reg = Class_registry.create () in
  let cid = Class_registry.register reg "L" in
  let store = Store.create ~limit_bytes:1_000_000 in
  let objs =
    Array.init n (fun i ->
        Store.alloc store ~class_id:cid ~n_fields:(i mod 3)
          ~scalar_bytes:(8 * (i mod 5)) ~finalizable:false)
  in
  let d = Diskswap.create (Diskswap.default_config ~disk_limit_bytes:max_int) in
  (store, objs, d)

(* One offload pass in which exactly [objs] are new candidates, at the
   given stale levels. *)
let offload store d objs =
  List.iter (fun (o, stale) -> Store.set_stale store (Heap_obj.index o) stale) objs;
  fill_heap store d;
  Diskswap.after_gc d store

let resident_list d =
  let acc = ref [] in
  Diskswap.iter_resident d (fun ~id ~bytes -> acc := (id, bytes) :: !acc);
  List.rev !acc

let size store o = Store.size_bytes store (Heap_obj.index o)

let test_offload_beyond_first_capacity () =
  let store, objs, d = lifecycle_store 300 in
  offload store d [ (objs.(2), 2) ];
  offload store d [ (objs.(149), 2); (objs.(299), 7) ];
  Alcotest.(check (list (pair int int)))
    "all three resident, ascending"
    [ (3, size store objs.(2)); (150, size store objs.(149));
      (300, size store objs.(299)) ]
    (resident_list d);
  Alcotest.(check int) "count" 3 (Diskswap.resident_count d);
  List.iter
    (fun i ->
      match Diskswap.retrieve d store objs.(i) with
      | `Swapped_in -> ()
      | `Not_resident | `Corrupt _ ->
        Alcotest.failf "object %d must swap in" (i + 1))
    [ 2; 149; 299 ];
  Alcotest.(check int) "all swapped in" 0 (Diskswap.resident_count d);
  Alcotest.(check int) "no bytes left" 0 (Diskswap.resident_bytes d)

let test_reconcile_then_recycled_id () =
  let store, objs, d = lifecycle_store 10 in
  offload store d [ (objs.(5), 4); (objs.(8), 2) ];
  let dead = objs.(5) in
  Store.free store dead;
  Diskswap.after_gc ~allow_offload:false d store;
  Alcotest.(check (list (pair int int))) "the dead object's entry is released"
    [ (9, size store objs.(8)) ] (resident_list d);
  Alcotest.(check int) "and its bytes" (size store objs.(8))
    (Diskswap.resident_bytes d);
  Alcotest.(check int) "the store's credit follows" (size store objs.(8))
    (Store.swapped_out_bytes store);
  let fresh =
    Store.alloc store ~class_id:0 ~n_fields:1 ~scalar_bytes:0
      ~finalizable:false
  in
  Alcotest.(check int) "the fresh object takes the dead one's id"
    (Heap_obj.index dead) (Heap_obj.index fresh);
  Alcotest.(check bool) "no on-disk bit" false
    (Header.on_disk (Store.header store (Heap_obj.index fresh)));
  match Diskswap.retrieve d store fresh with
  | `Not_resident -> ()
  | `Swapped_in | `Corrupt _ -> Alcotest.fail "the fresh object is not resident"

let test_recover_empties_table () =
  let store, objs, d = lifecycle_store 100 in
  offload store d [ (objs.(10), 2); (objs.(70), 5); (objs.(99), 3) ];
  Alcotest.(check int) "three resident" 3 (Diskswap.resident_count d);
  ignore (Diskswap.recover d : Diskswap.recovery);
  Alcotest.(check int) "count" 0 (Diskswap.resident_count d);
  Alcotest.(check int) "bytes" 0 (Diskswap.resident_bytes d);
  Alcotest.(check (list (pair int int))) "nothing to visit" [] (resident_list d);
  match Diskswap.retrieve d store objs.(70) with
  | `Not_resident -> ()
  | `Swapped_in | `Corrupt _ -> Alcotest.fail "recovery released every payload"

let test_residency_agrees_with_bits () =
  let store, objs, d = lifecycle_store 200 in
  (* offloaded most-stale first, so out of id order *)
  offload store d
    (List.init 40 (fun k -> (objs.((k * 37) mod 200), 2 + (k mod 6))));
  offload store d [ (objs.(199), 7); (objs.(0), 2) ];
  let with_bit = ref [] in
  Store.iter_live store (fun o ->
      let id = Heap_obj.index o in
      if Header.on_disk (Store.header store id) then
        with_bit := (id, Store.size_bytes store id) :: !with_bit);
  let with_bit = List.rev !with_bit in
  Alcotest.(check (list (pair int int)))
    "iter_resident visits the objects with the bit, in ascending id order"
    with_bit (resident_list d);
  Alcotest.(check int) "resident_count counts them" (List.length with_bit)
    (Diskswap.resident_count d);
  Alcotest.(check int) "their bytes are the resident bytes"
    (List.fold_left (fun acc (_, b) -> acc + b) 0 with_bit)
    (Diskswap.resident_bytes d)

(* ---- Prune images and forwards against a map model ----

   Random sequences of image and forward operations run on a swap store
   and on a model built from [Map]s. The ids reach past the image
   array's first capacity; [Store] may replace an image and may have its
   bytes torn by the image-fault hook; [Cycle] forwards two ids to each
   other. After every operation, every id up to past the largest one
   generated answers [has_image], [load_image], [iter_image_refs] and
   [resolve_forward] as the model does, [iter_images] visits the model's
   images in ascending id order, the count and byte total agree, and the
   generation has moved exactly as often as the model counts writes: on
   every store, on a drop that drops something, on every forward and on
   a recovery. A retention pass's [Image_drop] events name the ids it
   rejects in ascending order. *)

module Int_map = Map.Make (Int)

type image_op =
  | Store_image of { id : int; targets : int list; tear : int option }
  | Drop of int
  | Retain of int list
  | Forward of int * int
  | Cycle of int * int
  | Recover

let show_image_op = function
  | Store_image { id; targets; tear } ->
    Printf.sprintf "store %d [%s]%s" id
      (String.concat ";" (List.map string_of_int targets))
      (match tear with Some k -> Printf.sprintf " torn@%d" k | None -> "")
  | Drop id -> Printf.sprintf "drop %d" id
  | Retain keep ->
    Printf.sprintf "retain {%s}" (String.concat ";" (List.map string_of_int keep))
  | Forward (a, b) -> Printf.sprintf "forward %d->%d" a b
  | Cycle (a, b) -> Printf.sprintf "cycle %d<->%d" a b
  | Recover -> "recover"

let max_image_id = 300

let gen_image_op =
  QCheck.Gen.(
    let image_id =
      frequency [ (6, int_range 1 40); (1, int_range 41 max_image_id) ]
    and forward_id = int_range 1 10 in
    frequency
      [
        ( 6,
          let* id = image_id in
          let* targets = list_size (int_range 0 3) (int_range 1 50) in
          let* tear = opt ~ratio:0.2 (int_range 0 30) in
          return (Store_image { id; targets; tear }) );
        (2, map (fun id -> Drop id) image_id);
        (1, map (fun keep -> Retain keep) (list_size (int_range 0 20) image_id));
        (2, map2 (fun a b -> Forward (a, b)) forward_id forward_id);
        (1, map2 (fun a b -> Cycle (a, b)) forward_id forward_id);
        (1, return Recover);
      ])

type image_model = {
  images : (bytes * int list) Int_map.t;  (* stored bytes, targets *)
  forwards : int Int_map.t;
  writes : int;  (* what the generation should read *)
}

let image_refs_of data targets =
  match Swap_image.validate data with
  | Ok _ -> Some (Array.of_list targets)
  | Error _ -> None

let model_resolve m id =
  let n = Int_map.cardinal m.forwards in
  let rec follow id steps =
    match Int_map.find_opt id m.forwards with
    | Some next when steps < n + 1 -> follow next (steps + 1)
    | Some _ | None -> id
  in
  if n = 0 then None
  else
    let final = follow id 0 in
    if final = id then None else Some final

let drop_events d f =
  let sink = Lp_obs.Sink.create ~capacity:1_024 ~clock:(fun () -> 0) () in
  Diskswap.set_sink d (Some sink);
  f ();
  Diskswap.set_sink d None;
  let ids = ref [] in
  Lp_obs.Sink.iter sink (fun st ->
      match st.Lp_obs.Event.ev with
      | Lp_obs.Event.Image_drop { id } -> ids := id :: !ids
      | _ -> ());
  List.rev !ids

let apply_image_op d m op =
  match op with
  | Store_image { id; targets; tear } ->
    let bytes =
      Swap_image.encode
        {
          Swap_image.object_id = id;
          class_id = 1;
          stale = 2;
          scalar_bytes = 8;
          fields =
            Array.of_list
              (List.map
                 (fun t -> { Swap_image.word = Word.of_id t; referent_class = 1 })
                 targets);
        }
    in
    let stored =
      match tear with Some keep -> Swap_image.tear bytes ~keep | None -> bytes
    in
    Diskswap.set_image_fault_hook d
      (Option.map (fun keep b -> Swap_image.tear b ~keep) tear);
    Diskswap.store_image d ~id bytes;
    Diskswap.set_image_fault_hook d None;
    { m with images = Int_map.add id (stored, targets) m.images; writes = m.writes + 1 }
  | Drop id ->
    Diskswap.drop_image d id;
    if Int_map.mem id m.images then
      { m with images = Int_map.remove id m.images; writes = m.writes + 1 }
    else m
  | Retain keep ->
    let kept id = List.mem id keep in
    let dropped = drop_events d (fun () -> Diskswap.retain_images d ~keep:kept) in
    let rejected =
      List.filter (fun id -> not (kept id)) (List.map fst (Int_map.bindings m.images))
    in
    if dropped <> rejected then
      QCheck.Test.fail_reportf "retain dropped [%s], the model [%s]"
        (String.concat ";" (List.map string_of_int dropped))
        (String.concat ";" (List.map string_of_int rejected));
    {
      m with
      images = Int_map.filter (fun id _ -> kept id) m.images;
      writes = m.writes + List.length rejected;
    }
  | Forward (old_id, new_id) ->
    Diskswap.forward d ~old_id ~new_id;
    { m with forwards = Int_map.add old_id new_id m.forwards; writes = m.writes + 1 }
  | Cycle (a, b) ->
    Diskswap.forward d ~old_id:a ~new_id:b;
    Diskswap.forward d ~old_id:b ~new_id:a;
    {
      m with
      forwards = Int_map.add b a (Int_map.add a b m.forwards);
      writes = m.writes + 2;
    }
  | Recover ->
    let r = Diskswap.recover d in
    let valid, corrupt =
      Int_map.fold
        (fun _ (data, _) (v, c) ->
          match Swap_image.validate data with
          | Ok _ -> (v + 1, c)
          | Error _ -> (v, c + 1))
        m.images (0, 0)
    in
    if (r.Diskswap.images_valid, r.Diskswap.images_corrupt) <> (valid, corrupt) then
      QCheck.Test.fail_reportf "recover: %d valid, %d corrupt; the model %d, %d"
        r.Diskswap.images_valid r.Diskswap.images_corrupt valid corrupt;
    { images = Int_map.empty; forwards = Int_map.empty; writes = m.writes + 1 }

let check_image_model d m =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  for id = 0 to max_image_id + 5 do
    let entry = Int_map.find_opt id m.images in
    if Diskswap.has_image d id <> (entry <> None) then fail "has_image %d" id;
    (match (Diskswap.load_image d id, entry) with
    | None, None -> ()
    | Some got, Some (data, _) when Bytes.equal got data -> ()
    | _ -> fail "load_image %d" id);
    let refs = ref [] in
    Diskswap.iter_image_refs d id (fun r -> refs := r :: !refs);
    let expected =
      match entry with
      | Some (data, targets) -> (
        match image_refs_of data targets with Some _ -> targets | None -> [])
      | None -> []
    in
    if List.rev !refs <> expected then fail "iter_image_refs %d" id;
    if Diskswap.resolve_forward d id <> model_resolve m id then
      fail "resolve_forward %d" id
  done;
  let visited = ref [] in
  Diskswap.iter_images d (fun ~id ~image ~refs ->
      visited := (id, Bytes.to_string image, refs) :: !visited);
  let expected =
    List.map
      (fun (id, (data, targets)) ->
        (id, Bytes.to_string data, image_refs_of data targets))
      (Int_map.bindings m.images)
  in
  if List.rev !visited <> expected then fail "iter_images";
  if Diskswap.image_count d <> Int_map.cardinal m.images then fail "image_count";
  let bytes = Int_map.fold (fun _ (data, _) acc -> acc + Bytes.length data) m.images 0 in
  if Diskswap.image_bytes d <> bytes then
    fail "image_bytes %d, the model %d" (Diskswap.image_bytes d) bytes;
  if Diskswap.generation d <> m.writes then
    fail "generation %d, the model %d" (Diskswap.generation d) m.writes

let prop_images_match_model =
  QCheck.Test.make ~name:"diskswap: images and forwards match a map model"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list show_image_op)
       QCheck.Gen.(list_size (int_range 0 60) gen_image_op))
    (fun ops ->
      let d = Diskswap.create (Diskswap.default_config ~disk_limit_bytes:max_int) in
      let m = { images = Int_map.empty; forwards = Int_map.empty; writes = 0 } in
      check_image_model d m;
      ignore
        (List.fold_left
           (fun m op ->
             let m = apply_image_op d m op in
             check_image_model d m;
             m)
           m ops
          : image_model);
      true)

(* ---- Slot_table against a map model ----

   Random writes, walks and clears run on an int table (empty value 0)
   and on a [Map] of its used slots. Ids reach past the first capacity,
   and some lie below 1: such a write is refused and leaves the table
   as it was. A walk empties some of the slots it visits as it meets
   them. After every operation, every id from below 1 to past the
   largest one generated reads as in the model, the count agrees, and a
   walk visits exactly the model's bindings in ascending id order. *)

type slot_op = Set of int * int | Walk of int list | Clear

let show_slot_op = function
  | Set (id, v) -> Printf.sprintf "set %d %d" id v
  | Walk empty ->
    Printf.sprintf "walk, emptying {%s}"
      (String.concat ";" (List.map string_of_int empty))
  | Clear -> "clear"

let max_slot_id = 300

let gen_slot_op =
  QCheck.Gen.(
    let id =
      frequency
        [ (1, int_range (-2) 0); (6, int_range 1 40); (2, int_range 41 max_slot_id) ]
    in
    frequency
      [
        (10, map2 (fun id v -> Set (id, v)) id (frequency [ (1, return 0); (4, int_range 1 9) ]));
        (2, map (fun ids -> Walk ids) (list_size (int_range 0 10) id));
        (1, return Clear);
      ])

let walk t =
  let seen = ref [] in
  Slot_table.iter t (fun id v -> seen := (id, v) :: !seen);
  List.rev !seen

let apply_slot_op t m = function
  | Set (id, v) -> (
    match Slot_table.set t id v with
    | () when id < 1 -> QCheck.Test.fail_reportf "set %d accepted" id
    | () -> if v = 0 then Int_map.remove id m else Int_map.add id v m
    | exception Invalid_argument _ when id < 1 -> m)
  | Walk empty ->
    let seen = ref [] in
    Slot_table.iter t (fun id v ->
        seen := (id, v) :: !seen;
        if List.mem id empty then Slot_table.set t id 0);
    if List.rev !seen <> Int_map.bindings m then
      QCheck.Test.fail_report "a walk that empties slots visited others";
    Int_map.filter (fun id _ -> not (List.mem id empty)) m
  | Clear ->
    Slot_table.clear t;
    Int_map.empty

let check_slot_model t m =
  for id = -2 to max_slot_id + 5 do
    let want = Option.value (Int_map.find_opt id m) ~default:0 in
    if Slot_table.get t id <> want then
      QCheck.Test.fail_reportf "get %d: %d, the model %d" id (Slot_table.get t id) want
  done;
  if Slot_table.count t <> Int_map.cardinal m then
    QCheck.Test.fail_reportf "count %d, the model %d" (Slot_table.count t)
      (Int_map.cardinal m);
  if walk t <> Int_map.bindings m then QCheck.Test.fail_report "iter"

let prop_slot_table_matches_model =
  QCheck.Test.make ~name:"slot table: matches a map model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list show_slot_op)
       QCheck.Gen.(list_size (int_range 0 80) gen_slot_op))
    (fun ops ->
      let t = Slot_table.create 0 in
      ignore
        (List.fold_left
           (fun m op ->
             let m = apply_slot_op t m op in
             check_slot_model t m;
             m)
           Int_map.empty ops
          : int Int_map.t);
      true)

(* Images and forwards are indexed by identifier, and identifiers start
   at 1: a store or forward naming a lower one is refused, and the
   store is left as it was. *)
let test_ids_below_one_rejected () =
  let d = Diskswap.create (Diskswap.default_config ~disk_limit_bytes:max_int) in
  let hook_runs = ref 0 in
  Diskswap.set_image_fault_hook d
    (Some
       (fun image ->
         incr hook_runs;
         image));
  let rejected name f =
    match f () with
    | () -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejected "store_image ~id:0" (fun () ->
      Diskswap.store_image d ~id:0 (Bytes.create 16));
  Alcotest.(check int) "the image-fault hook never ran" 0 !hook_runs;
  rejected "forward ~old_id:0" (fun () -> Diskswap.forward d ~old_id:0 ~new_id:3);
  rejected "forward ~new_id:0" (fun () -> Diskswap.forward d ~old_id:3 ~new_id:0);
  Alcotest.(check int) "no image" 0 (Diskswap.image_count d);
  Alcotest.(check int) "no bytes" 0 (Diskswap.image_bytes d);
  Alcotest.(check (option int)) "no forward" None (Diskswap.resolve_forward d 3);
  Alcotest.(check int) "no write" 0 (Diskswap.generation d)

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
      QCheck_alcotest.to_alcotest prop_offload_order;
      Alcotest.test_case "table: offload beyond its first capacity" `Quick
        test_offload_beyond_first_capacity;
      Alcotest.test_case "table: reconcile, then a recycled id" `Quick
        test_reconcile_then_recycled_id;
      Alcotest.test_case "table: recover empties it" `Quick
        test_recover_empties_table;
      Alcotest.test_case "table: agrees with the on-disk bits" `Quick
        test_residency_agrees_with_bits;
      QCheck_alcotest.to_alcotest prop_images_match_model;
      Alcotest.test_case "images: ids below 1 are rejected" `Quick
        test_ids_below_one_rejected;
      QCheck_alcotest.to_alcotest prop_slot_table_matches_model;
    ] )
