(* The resurrection subsystem: crash-consistent swap images, barrier-level
   recovery of pruned references, and the controller's SAFE moratorium. *)

open Lp_heap
open Lp_runtime

(* ---- Swap image format ---- *)

let sample_image () =
  let store = Store.create ~limit_bytes:100_000 in
  let registry = Class_registry.create () in
  let cls = Class_registry.register registry "Node" in
  let tgt =
    Store.alloc store ~class_id:cls ~n_fields:0 ~scalar_bytes:8 ~finalizable:false
  in
  let obj =
    Store.alloc store ~class_id:cls ~n_fields:3 ~scalar_bytes:24 ~finalizable:false
  in
  Store.set_field store (Heap_obj.index obj) 0 (Word.of_id (Heap_obj.index tgt));
  Store.set_field store (Heap_obj.index obj) 1 (Word.poison (Word.of_id (Heap_obj.index tgt)));
  (* fields.(2) stays null *)
  Store.set_stale store (Heap_obj.index obj) 3;
  let img =
    Result.get_ok (Swap_image.decode (Swap_image.capture store (Heap_obj.index obj)))
  in
  (store, obj, img)

let test_image_roundtrip () =
  let store, obj, img = sample_image () in
  match Swap_image.decode (Swap_image.encode img) with
  | Error _ -> Alcotest.fail "roundtrip must decode"
  | Ok d ->
    Alcotest.(check int) "object id" (Heap_obj.index obj) d.Swap_image.object_id;
    Alcotest.(check int) "class id" (Store.class_of store (Heap_obj.index obj)) d.Swap_image.class_id;
    Alcotest.(check int) "stale" 3 d.Swap_image.stale;
    Alcotest.(check int) "scalar bytes" 24 d.Swap_image.scalar_bytes;
    Alcotest.(check int) "field count" 3 (Array.length d.Swap_image.fields);
    Array.iteri
      (fun i (f : Swap_image.field) ->
        Alcotest.(check int)
          (Printf.sprintf "field %d word" i)
          img.Swap_image.fields.(i).Swap_image.word f.Swap_image.word;
        Alcotest.(check int)
          (Printf.sprintf "field %d referent class" i)
          img.Swap_image.fields.(i).Swap_image.referent_class
          f.Swap_image.referent_class)
      d.Swap_image.fields;
    Alcotest.(check int) "null field records class -1" (-1)
      d.Swap_image.fields.(2).Swap_image.referent_class

let test_image_high_bit_crc_roundtrips () =
  (* regression: checksums with the sign bit set must still validate
     (the stored int32 reads back negative; the comparison is unsigned) *)
  let store = Store.create ~limit_bytes:1_000_000 in
  let registry = Class_registry.create () in
  let cls = Class_registry.register registry "Blob" in
  let found = ref false in
  for scalar = 1 to 64 do
    let obj =
      Store.alloc store ~class_id:cls ~n_fields:0 ~scalar_bytes:scalar
        ~finalizable:false
    in
    let buf = Swap_image.capture store (Heap_obj.index obj) in
    let crc =
      Crc32.of_bytes buf ~pos:Swap_image.header_bytes
        ~len:(Bytes.length buf - Swap_image.header_bytes)
    in
    if crc land 0x80000000 <> 0 then begin
      found := true;
      match Swap_image.decode buf with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "high-bit CRC must still validate"
    end
  done;
  Alcotest.(check bool) "exercised a high-bit checksum" true !found

let test_image_torn_decode () =
  let _store, _obj, img = sample_image () in
  let buf = Swap_image.encode img in
  let torn = Swap_image.tear buf ~keep:(Bytes.length buf / 2) in
  (match Swap_image.decode torn with
  | Error (Lp_core.Errors.Image_torn { expected_bytes; actual_bytes }) ->
    Alcotest.(check int) "expected full length" (Bytes.length buf) expected_bytes;
    Alcotest.(check int) "saw half" (Bytes.length buf / 2) actual_bytes
  | Ok _ | Error _ -> Alcotest.fail "expected Image_torn");
  (* torn inside the prelude: no length prefix to trust at all *)
  match Swap_image.decode (Swap_image.tear buf ~keep:6) with
  | Error (Lp_core.Errors.Image_torn _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Image_torn on prelude cut"

let test_image_corrupt_decode () =
  let _store, _obj, img = sample_image () in
  let buf = Swap_image.encode img in
  for pos = 0 to 40 do
    match Swap_image.decode (Swap_image.corrupt buf ~pos) with
    | Error Lp_core.Errors.Image_crc_mismatch -> ()
    | Ok _ -> Alcotest.fail "bit rot must not decode"
    | Error _ -> Alcotest.fail "bit rot in the payload must fail the CRC"
  done

let test_image_version_and_magic () =
  let _store, _obj, img = sample_image () in
  let buf = Swap_image.encode img in
  let wrong_version = Bytes.copy buf in
  Bytes.set wrong_version 2 (Char.chr 9);
  (match Swap_image.decode wrong_version with
  | Error (Lp_core.Errors.Image_version_unsupported 9) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Image_version_unsupported 9");
  let bad_magic = Bytes.copy buf in
  Bytes.set bad_magic 0 'X';
  match Swap_image.decode bad_magic with
  | Error Lp_core.Errors.Image_crc_mismatch -> ()
  | Ok _ | Error _ -> Alcotest.fail "rotten magic reports as a checksum failure"

(* ---- Barrier-level recovery, manual image setup ----

   The unit-level path: hand the swap store an image, poison the word,
   free the object, and drive the read barrier. *)

let make_vm ?config ?(heap = 100_000) () =
  let config =
    match config with
    | Some c -> c
    | None -> Lp_core.Config.make ~policy:Lp_core.Policy.Default ()
  in
  Vm.create ~config ~resurrection:true ~heap_bytes:heap ()

(* Allocate src -> victim, image the victim, poison the edge (as an
   injected corruption so the verifier's accounting stays closed), then
   kill the victim. Returns (src, victim id, victim class id). *)
let prune_by_hand vm =
  let src = Vm.alloc vm ~class_name:"Holder" ~n_fields:1 () in
  Roots.add_static_root (Vm.roots vm) (Heap_obj.index src);
  let victim = Vm.alloc vm ~class_name:"Victim" ~scalar_bytes:32 ~n_fields:1 () in
  Mutator.write_obj vm src 0 victim;
  Store.set_stale (Vm.store vm) (Heap_obj.index victim) 5;
  Diskswap.store_image (Vm.swap vm) ~id:(Heap_obj.index victim)
    (Swap_image.capture (Vm.store vm) (Heap_obj.index victim));
  Vm.inject_word_corruption vm src ~field:0 `Poison;
  let id = Heap_obj.index victim and cls = Store.class_of (Vm.store vm) (Heap_obj.index victim) in
  Store.free (Vm.store vm) victim;
  (src, id, cls)

let test_resurrect_restores_object () =
  let vm = make_vm () in
  let src, victim_id, victim_cls = prune_by_hand vm in
  (match Mutator.read vm src 0 with
  | None -> Alcotest.fail "expected the restored object"
  | Some tgt ->
    Alcotest.(check int) "class restored" victim_cls (Store.class_of (Vm.store vm) (Heap_obj.index tgt));
    Alcotest.(check int) "scalar size restored" 32 (Store.scalar_bytes (Vm.store vm) tgt);
    Alcotest.(check int) "staleness cleared by the use" 0 (Store.stale (Vm.store vm) (Heap_obj.index tgt));
    Alcotest.(check bool) "restored object is live" true
      (Store.mem (Vm.store vm) (Heap_obj.index tgt));
    (* the forwarding table resolves the pruned id to the restored copy;
       when the store recycled the very same id the self-forward
       collapses to None, which resolves identically *)
    Alcotest.(check bool) "forwarding recorded" true
      (match Diskswap.resolve_forward (Vm.swap vm) victim_id with
      | Some final -> final = Heap_obj.index tgt
      | None -> victim_id = Heap_obj.index tgt));
  Alcotest.(check int) "one resurrection counted" 1
    (Vm.stats vm).Gc_stats.resurrections;
  Alcotest.(check int) "image space released" 0
    (Diskswap.image_count (Vm.swap vm));
  Alcotest.(check bool) "word un-poisoned" false
    (Word.poisoned (Mutator.field_word vm src 0));
  Alcotest.(check int) "misprediction fed back" 1
    (Lp_core.Controller.mispredictions (Vm.controller vm));
  match Lp_runtime.Diagnostics.heap_check ~strict:true vm with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("verifier: " ^ msg)

let test_sibling_reference_forwards () =
  let vm = make_vm () in
  let src, victim_id, _ = prune_by_hand vm in
  (* a second holder still pointing at the pruned identifier *)
  let other = Vm.alloc vm ~class_name:"Holder" ~n_fields:1 () in
  Roots.add_static_root (Vm.roots vm) (Heap_obj.index other);
  Store.set_field (Vm.store vm) (Heap_obj.index other) 0 (Word.poison (Word.of_id victim_id));
  Vm.inject_word_corruption vm other ~field:0 `Poison;
  let first = Option.get (Mutator.read vm src 0) in
  let second = Option.get (Mutator.read vm other 0) in
  Alcotest.(check bool) "sibling resolves to the same restored object" true
    (first == second);
  Alcotest.(check int) "only one resurrection" 1
    (Vm.stats vm).Gc_stats.resurrections

let test_surviving_target_is_rewired () =
  (* a poisoned word whose target never died (injected poison, or an
     edge pruned while the target stayed reachable elsewhere) must be
     repaired in place, not fail with Image_missing *)
  let vm = make_vm () in
  let src = Vm.alloc vm ~class_name:"Holder" ~n_fields:1 () in
  Roots.add_static_root (Vm.roots vm) (Heap_obj.index src);
  let tgt = Vm.alloc vm ~class_name:"Alive" ~n_fields:0 () in
  Mutator.write_obj vm src 0 tgt;
  Vm.inject_word_corruption vm src ~field:0 `Poison;
  (match Mutator.read vm src 0 with
  | Some back -> Alcotest.(check bool) "same live object" true (back == tgt)
  | None -> Alcotest.fail "expected the surviving target");
  Alcotest.(check bool) "word un-poisoned" false
    (Word.poisoned (Mutator.field_word vm src 0));
  Alcotest.(check int) "no resurrection needed" 0
    (Vm.stats vm).Gc_stats.resurrections;
  Alcotest.(check int) "but the misprediction is recorded" 1
    (Lp_core.Controller.mispredictions (Vm.controller vm))

let test_missing_image_raises () =
  let vm = make_vm () in
  let src, victim_id, _ = prune_by_hand vm in
  Diskswap.drop_image (Vm.swap vm) victim_id;
  match Mutator.read vm src 0 with
  | _ -> Alcotest.fail "expected InternalError"
  | exception Lp_core.Errors.Internal_error { cause; _ } ->
    (match cause with
    | Lp_core.Errors.Resurrection_failed { target; reason; _ } ->
      Alcotest.(check int) "target carried" victim_id target;
      (match reason with
      | Lp_core.Errors.Image_missing -> ()
      | _ -> Alcotest.fail "reason must be Image_missing")
    | _ -> Alcotest.fail "cause must be Resurrection_failed");
    Alcotest.(check int) "failure counted" 1
      (Vm.stats vm).Gc_stats.resurrection_failures

let corrupt_image_in_store vm id transform =
  let swap = Vm.swap vm in
  let image = Option.get (Diskswap.load_image swap id) in
  Diskswap.drop_image swap id;
  Diskswap.store_image swap ~id (transform image)

let test_corrupt_image_raises () =
  let vm = make_vm () in
  let src, victim_id, _ = prune_by_hand vm in
  corrupt_image_in_store vm victim_id (fun img -> Swap_image.corrupt img ~pos:7);
  match Mutator.read vm src 0 with
  | _ -> Alcotest.fail "expected InternalError"
  | exception
      Lp_core.Errors.Internal_error
        { cause = Lp_core.Errors.Resurrection_failed { reason; _ }; _ } ->
    (match reason with
    | Lp_core.Errors.Image_crc_mismatch -> ()
    | _ -> Alcotest.fail "reason must be Image_crc_mismatch")
  | exception _ -> Alcotest.fail "wrong exception"

let test_torn_image_raises () =
  let vm = make_vm () in
  let src, _victim_id, _ = prune_by_hand vm in
  corrupt_image_in_store vm
    (Word.target (Mutator.field_word vm src 0))
    (fun img -> Swap_image.tear img ~keep:(Bytes.length img - 4));
  match Mutator.read vm src 0 with
  | _ -> Alcotest.fail "expected InternalError"
  | exception
      Lp_core.Errors.Internal_error
        { cause = Lp_core.Errors.Resurrection_failed { reason; _ }; _ } ->
    (match reason with
    | Lp_core.Errors.Image_torn _ -> ()
    | _ -> Alcotest.fail "reason must be Image_torn")
  | exception _ -> Alcotest.fail "wrong exception"

let test_repoisoned_dead_referent () =
  (* the victim's own field pointed at an object that is dead with no
     image: restoration must re-poison that edge, not resurrect garbage *)
  let vm = make_vm () in
  let src = Vm.alloc vm ~class_name:"Holder" ~n_fields:1 () in
  Roots.add_static_root (Vm.roots vm) (Heap_obj.index src);
  let victim = Vm.alloc vm ~class_name:"Victim" ~n_fields:1 () in
  let inner = Vm.alloc vm ~class_name:"Inner" ~n_fields:0 () in
  Mutator.write_obj vm src 0 victim;
  Mutator.write_obj vm victim 0 inner;
  Diskswap.store_image (Vm.swap vm) ~id:(Heap_obj.index victim)
    (Swap_image.capture (Vm.store vm) (Heap_obj.index victim));
  Vm.inject_word_corruption vm src ~field:0 `Poison;
  Store.free (Vm.store vm) victim;
  Store.free (Vm.store vm) inner;
  let restored = Option.get (Mutator.read vm src 0) in
  Alcotest.(check bool) "inner edge re-poisoned" true
    (Word.poisoned (Mutator.field_word vm restored 0));
  Alcotest.(check int) "repoisoning counted" 1
    (Vm.stats vm).Gc_stats.words_repoisoned

(* ---- End-to-end: a real prune, then recovery ---- *)

let leak_until_pruned vm statics =
  let guard = ref 0 in
  while (Vm.stats vm).Gc_stats.references_poisoned = 0 && !guard < 3_000 do
    incr guard;
    Vm.with_frame vm ~n_slots:1 (fun frame ->
        let node = Vm.alloc vm ~class_name:"N" ~scalar_bytes:40 ~n_fields:1 () in
        Roots.set_slot frame 0 (Heap_obj.index node);
        (match Mutator.read vm statics 0 with
        | Some head -> Mutator.write_obj vm node 0 head
        | None -> ());
        Mutator.write_obj vm statics 0 node)
  done;
  Alcotest.(check bool) "pruning engaged" true
    ((Vm.stats vm).Gc_stats.references_poisoned > 0)

(* first live poisoned field in the heap *)
let find_poisoned vm =
  let found = ref None in
  let store = Vm.store vm in
  Store.iter_live store (fun obj ->
      for i = 0 to Store.n_fields store (Heap_obj.index obj) - 1 do
        let w = Store.field store (Heap_obj.index obj) i in
        if !found = None && (not (Word.is_null w)) && Word.poisoned w then
          found := Some (obj, i)
      done);
  Option.get !found

let test_end_to_end_prune_then_resurrect () =
  let vm = make_vm ~heap:10_000 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  leak_until_pruned vm statics;
  Alcotest.(check bool) "prune captured images" true
    (Diskswap.image_count (Vm.swap vm) > 0);
  (match Lp_runtime.Diagnostics.heap_check ~strict:true vm with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("verifier before recovery: " ^ msg));
  (* the program now walks into the pruned structure: every hop
     resurrects the next node, whose own forward edge was re-poisoned
     because its referent died in the same prune *)
  let hops = ref 0 in
  let src, field = find_poisoned vm in
  let rec walk src field =
    if !hops < 5 then
      match Mutator.read vm src field with
      | Some tgt ->
        incr hops;
        if Store.n_fields (Vm.store vm) (Heap_obj.index tgt) > 0
           && Word.poisoned (Mutator.field_word vm tgt 0)
        then walk tgt 0
      | None -> ()
  in
  walk src field;
  let stats = Vm.stats vm in
  Alcotest.(check bool) "chain resurrected hop by hop" true
    (stats.Gc_stats.resurrections >= 2);
  Alcotest.(check bool) "interior edges were re-poisoned at restore" true
    (stats.Gc_stats.words_repoisoned >= 1);
  Alcotest.(check int) "no failures" 0 stats.Gc_stats.resurrection_failures;
  match Lp_runtime.Diagnostics.heap_check ~strict:true vm with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("verifier after recovery: " ^ msg)

let test_end_to_end_corruption_fault () =
  (* same scenario, but every swap-image write passes through an
     injected Corrupt_image fault: accessing the pruned structure must
     surface Internal_error carrying a Resurrection_failed cause *)
  let plan =
    Lp_fault.Fault_plan.make
      [
        {
          Lp_fault.Fault_plan.site = Lp_fault.Fault_plan.Swap;
          fault = Lp_fault.Fault_plan.Corrupt_image;
          at = 1;
          repeat = true;
        };
      ]
  in
  let vm =
    Vm.create
      ~config:(Lp_core.Config.make ~policy:Lp_core.Policy.Default ())
      ~resurrection:true ~fault:plan ~heap_bytes:10_000 ()
  in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  leak_until_pruned vm statics;
  let src, field = find_poisoned vm in
  match Mutator.read vm src field with
  | _ -> Alcotest.fail "expected InternalError"
  | exception
      Lp_core.Errors.Internal_error
        { cause = Lp_core.Errors.Resurrection_failed { reason; _ }; _ } ->
    (match reason with
    | Lp_core.Errors.Image_crc_mismatch -> ()
    | _ -> Alcotest.fail "reason must be Image_crc_mismatch");
    Alcotest.(check int) "failure counted" 1
      (Vm.stats vm).Gc_stats.resurrection_failures
  | exception _ -> Alcotest.fail "wrong exception"

(* ---- SAFE mode ---- *)

(* The controller enters SAFE at this many mispredictions in one prune
   epoch. *)
let safe_mode_threshold = 4

let test_safe_mode_entry_and_expiry () =
  let vm = make_vm () in
  let c = Vm.controller vm in
  for i = 1 to safe_mode_threshold do
    let src, _, _ = prune_by_hand vm in
    ignore (Mutator.read vm src 0);
    Alcotest.(check bool)
      (Printf.sprintf "safe only at threshold (%d)" i)
      (i >= safe_mode_threshold)
      (Lp_core.Controller.in_safe_mode c)
  done;
  Alcotest.(check int) "one SAFE entry" 1 (Lp_core.Controller.safe_entries c);
  Alcotest.(check int) "mispredictions counted" safe_mode_threshold
    (Lp_core.Controller.mispredictions c);
  (* the moratorium expires after safe_mode_collections collections *)
  let budget = Lp_core.State_machine.safe_mode_collections in
  for _i = 1 to budget + 1 do
    Vm.run_gc vm
  done;
  Alcotest.(check bool) "moratorium expired" false
    (Lp_core.Controller.in_safe_mode c);
  Alcotest.(check int) "expiry is not a forced exit" 0
    (Lp_core.Controller.safe_exits_forced c)

let test_safe_mode_forced_exit_on_exhaustion () =
  let vm = make_vm () in
  let c = Vm.controller vm in
  for _i = 1 to safe_mode_threshold do
    let src, _, _ = prune_by_hand vm in
    ignore (Mutator.read vm src 0)
  done;
  Alcotest.(check bool) "in SAFE" true (Lp_core.Controller.in_safe_mode c);
  (* memory exhaustion overrides the moratorium: holding it while the
     program starves would be the opposite of graceful *)
  (match
     Lp_core.Controller.on_allocation_failure c (Vm.store vm) ~requested:64
   with
  | `Retry -> ()
  | `Out_of_memory _ -> Alcotest.fail "SAFE exhaustion must grant a retry");
  Alcotest.(check bool) "forced out of SAFE" false
    (Lp_core.Controller.in_safe_mode c);
  Alcotest.(check int) "forced exit counted" 1
    (Lp_core.Controller.safe_exits_forced c)

let test_misprediction_protects_edge_type () =
  let vm = make_vm () in
  let src, _, victim_cls = prune_by_hand vm in
  ignore (Mutator.read vm src 0);
  let table = Lp_core.Controller.edge_table (Vm.controller vm) in
  let slack = (Lp_core.Controller.config (Vm.controller vm)).Lp_core.Config.stale_slack in
  Alcotest.(check bool) "edge type protected past the observed staleness" true
    (Lp_core.Edge_table.max_stale_use table ~src:(Store.class_of (Vm.store vm) (Heap_obj.index src))
       ~tgt:victim_cls
    >= 5 + slack)

(* ---- Re-allocation that cannot succeed ----

   No pruning policy, so collections free nothing, and a live chain
   fills the heap until the pruned object's image no longer fits the
   headroom: the restore runs its 4 collections and gives up, and the
   read barrier surfaces that as a structured failure. *)

let test_reallocation_exhausted () =
  let vm =
    make_vm ~config:(Lp_core.Config.make ~policy:Lp_core.Policy.None_ ())
      ~heap:20_000 ()
  in
  let store = Vm.store vm in
  let fill = Vm.statics vm ~class_name:"Fill" ~n_fields:1 in
  let src = Vm.alloc vm ~class_name:"Holder" ~n_fields:1 () in
  Roots.add_static_root (Vm.roots vm) (Heap_obj.index src);
  let victim =
    Vm.alloc vm ~class_name:"Victim" ~scalar_bytes:2_000 ~n_fields:1 ()
  in
  Mutator.write_obj vm src 0 victim;
  let victim_id = Heap_obj.index victim in
  let size = Store.size_bytes store victim_id in
  Diskswap.store_image (Vm.swap vm) ~id:victim_id
    (Swap_image.capture store victim_id);
  Vm.inject_word_corruption vm src ~field:0 `Poison;
  Store.free store victim;
  let prev = ref fill in
  while not (Store.would_overflow store size) do
    let o = Vm.alloc vm ~class_name:"Node" ~scalar_bytes:16 ~n_fields:1 () in
    Mutator.write_obj vm !prev 0 o;
    prev := o
  done;
  let gcs = Vm.gc_count vm and used = Store.used_bytes store in
  let r =
    Resurrection.create ~store ~swap:(Vm.swap vm) ~controller:(Vm.controller vm)
      ~stats:(Vm.stats vm)
  in
  (match
     Resurrection.restore r ~collect:(fun () -> Vm.run_gc vm) src ~field:0
   with
  | Error (Lp_core.Errors.Reallocation_exhausted { attempts; size_bytes }) ->
    Alcotest.(check int) "attempts" 4 attempts;
    Alcotest.(check int) "size of the pruned object" size size_bytes
  | Ok _ -> Alcotest.fail "the object cannot fit"
  | Error _ -> Alcotest.fail "reason must be Reallocation_exhausted");
  Alcotest.(check int) "one collection per attempt" (gcs + 4) (Vm.gc_count vm);
  Alcotest.(check int) "the collections freed nothing" used
    (Store.used_bytes store);
  Alcotest.(check bool) "word still poisoned" true
    (Word.poisoned (Mutator.field_word vm src 0));
  Alcotest.(check int) "image kept" 1 (Diskswap.image_count (Vm.swap vm));
  (match Mutator.read vm src 0 with
  | _ -> Alcotest.fail "expected InternalError"
  | exception
      Lp_core.Errors.Internal_error
        { cause = Lp_core.Errors.Resurrection_failed { target; reason; _ }; _ }
    -> (
      Alcotest.(check int) "target carried" victim_id target;
      match reason with
      | Lp_core.Errors.Reallocation_exhausted { attempts = 4; _ } -> ()
      | _ -> Alcotest.fail "reason must be Reallocation_exhausted after 4")
  | exception _ -> Alcotest.fail "wrong exception");
  Alcotest.(check int) "failure counted" 1
    (Vm.stats vm).Gc_stats.resurrection_failures;
  Alcotest.(check int) "no resurrection" 0 (Vm.stats vm).Gc_stats.resurrections

let suite =
  ( "resurrection",
    [
      Alcotest.test_case "image roundtrip" `Quick test_image_roundtrip;
      Alcotest.test_case "high-bit CRC roundtrip" `Quick
        test_image_high_bit_crc_roundtrips;
      Alcotest.test_case "torn image fails length check" `Quick
        test_image_torn_decode;
      Alcotest.test_case "bit rot fails CRC" `Quick test_image_corrupt_decode;
      Alcotest.test_case "version and magic validation" `Quick
        test_image_version_and_magic;
      Alcotest.test_case "resurrect restores the object" `Quick
        test_resurrect_restores_object;
      Alcotest.test_case "sibling reference forwards" `Quick
        test_sibling_reference_forwards;
      Alcotest.test_case "surviving target rewired in place" `Quick
        test_surviving_target_is_rewired;
      Alcotest.test_case "missing image raises" `Quick test_missing_image_raises;
      Alcotest.test_case "corrupt image raises" `Quick test_corrupt_image_raises;
      Alcotest.test_case "torn image raises" `Quick test_torn_image_raises;
      Alcotest.test_case "dead referent re-poisoned" `Quick
        test_repoisoned_dead_referent;
      Alcotest.test_case "end-to-end prune then resurrect" `Quick
        test_end_to_end_prune_then_resurrect;
      Alcotest.test_case "end-to-end corruption fault" `Quick
        test_end_to_end_corruption_fault;
      Alcotest.test_case "SAFE entry and expiry" `Quick
        test_safe_mode_entry_and_expiry;
      Alcotest.test_case "SAFE forced exit on exhaustion" `Quick
        test_safe_mode_forced_exit_on_exhaustion;
      Alcotest.test_case "misprediction protects the edge type" `Quick
        test_misprediction_protects_edge_type;
      Alcotest.test_case "re-allocation exhausted raises" `Quick
        test_reallocation_exhausted;
    ] )
