(* Fault-injection plans and the chaos harness. *)

open Lp_fault
open Lp_runtime

let ev site fault at repeat = { Fault_plan.site; fault; at; repeat }

let test_plan_determinism () =
  let p1 = Fault_plan.random ~seed:42 () in
  let p2 = Fault_plan.random ~seed:42 () in
  Alcotest.(check bool) "same seed, same plan" true
    (Fault_plan.events p1 = Fault_plan.events p2);
  let distinct =
    List.sort_uniq compare
      (List.init 20 (fun s -> Fault_plan.events (Fault_plan.random ~seed:s ())))
  in
  Alcotest.(check bool) "different seeds give different plans" true
    (List.length distinct > 1)

(* The plans behind chaos seeds 1-50, pinned: each entry is the MD5 of
   [Fault_plan.describe] for that seed's plan. Every seed's events are
   the ones it always drew, minus the retired mark-site events, so
   historical chaos seeds keep reproducing. The retired slots must keep
   consuming their draws: if they stopped, every later event of a seed
   that drew one would move, and its digest with it. *)
let plan_digests =
  [|
    "17714e555bb9ebf0abea3e7ef1bfb270"; "c0018059832588eea95e1991e28725ad";
    "34821a6c534aa67ded8948d6d6e2f324"; "ebd4a64d126ae86b0c066ec25faed913";
    "97482e533462d99733f53dc83e24f797"; "889fed571d00dce84420fea4c99a8bb3";
    "744a759a5b577ae949421f594112e023"; "23df357e8daed124aef299eb7e83879a";
    "0b4ba83783efe545f94c67db578721c0"; "a62199c5d5ffeb1896dd4fc43a30b1e2";
    "7c13ef2c033cdc191f82c0445e0e69ca"; "6602778b0e28802e4b635910d5d487e7";
    "8e0bc9d1cb770c9feb98ce482985f5ad"; "2d3ad4210716d5e02845cb836ac6f117";
    "a8adee25648123367b5a371c22a5d5e4"; "0e9e69bd8793363d8f0d3b1e5305e458";
    "55992d079193f0eb84d76485da1c448b"; "321acf502f1fc70dce7c8b2275d78d7f";
    "043df72a39b973da3a51c6bcec2f5164"; "762a2ae358aed40fd6e4d53173278a02";
    "6c235de5ed8f1db6ff256fdcb22f096d"; "252ee418274a29ebf5c86ebfbf7317a4";
    "a7bd6f39131c9746034e9294b3aa14cd"; "5247581fa07044a105ec0b8888cb3631";
    "82dfbdb771f0ed4060da51b2a8b0f34c"; "7a980b929fe25bddecd3515e915fa0be";
    "f34e64ee43fc60c11b817add5bfe88b6"; "cbd7bc959cf046514ff112ca34ff7f1a";
    "3bef2f133b9540f3a1ac6e2205ac6e27"; "b895e63d7e22b40496105dd37c920683";
    "384ef49e75c50840cc2b1992a442dfb7"; "591d381d90f6ad82526e488ae7f92813";
    "adfac75b3985a33990da598040f884e3"; "4da1951770a5c50138bd36af7aaa1dbf";
    "d685bbe345b7703da12ee19a0bd6d5bb"; "686f5b38c376ee5c279aa28ba1698dfb";
    "6ba3f44485ed48462490a83fbf69942a"; "a57b98beb74a8e4317d683f58f9ccb6d";
    "c605a0d137b5644e2aafdf00ed71159a"; "7d8c3788b56b8f12eb773189e64bb234";
    "8c7031995d3069e36167498b674ca389"; "c510e3251e635fcd88cc49d0efef3413";
    "074bcc83733924a54138c838884287fd"; "a67cc43f6949ba1cda2771dfd1f64d42";
    "1620e9c988552a303740f62f7112131e"; "373207f32d483cd67c369b7ad781b4ac";
    "173d1c5cfae0927a2e650366d72f1e10"; "99a2ec1b77528d01c98d5bbf1f96e825";
    "4ac70e125ba0073454fb7decb39896d0"; "2dea38cb1b5866cece7a3d26bf1d54e4";
  |]

let test_plan_digests () =
  Array.iteri
    (fun i want ->
      let seed = i + 1 in
      let plan = Fault_plan.random ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: %s" seed (Fault_plan.describe plan))
        want
        (Digest.to_hex (Digest.string (Fault_plan.describe plan))))
    plan_digests

let test_at_firing () =
  let p = Fault_plan.make [ ev Fault_plan.Alloc Fault_plan.Refuse_alloc 3 false ] in
  Alcotest.(check bool) "visit 1 clean" true
    (Fault_plan.check p Fault_plan.Alloc = []);
  Alcotest.(check bool) "visit 2 clean" true
    (Fault_plan.check p Fault_plan.Alloc = []);
  Alcotest.(check bool) "visit 3 fires" true
    (Fault_plan.check p Fault_plan.Alloc = [ Fault_plan.Refuse_alloc ]);
  Alcotest.(check bool) "visit 4 clean again (one-shot)" true
    (Fault_plan.check p Fault_plan.Alloc = []);
  Alcotest.(check int) "one fault fired" 1 (Fault_plan.fired_count p);
  Alcotest.(check bool) "fired log records site, visit and fault" true
    (Fault_plan.fired p = [ (Fault_plan.Alloc, 3, Fault_plan.Refuse_alloc) ])

let test_repeat_firing () =
  let p = Fault_plan.make [ ev Fault_plan.Disk Fault_plan.Disk_failure 2 true ] in
  Alcotest.(check bool) "visit 1 clean" true
    (Fault_plan.check p Fault_plan.Disk = []);
  for _i = 2 to 5 do
    Alcotest.(check bool) "fires on every visit from [at] on" true
      (Fault_plan.check p Fault_plan.Disk = [ Fault_plan.Disk_failure ])
  done;
  (* sites count independently: the Alloc site is still on visit 1 *)
  Alcotest.(check bool) "other sites unaffected" true
    (Fault_plan.check p Fault_plan.Alloc = []);
  Alcotest.(check int) "disk visits counted" 5 (Fault_plan.visits p Fault_plan.Disk)

let test_invalid_event () =
  Alcotest.check_raises "at must be >= 1"
    (Invalid_argument "Fault_plan.make: at must be >= 1") (fun () ->
      ignore (Fault_plan.make [ ev Fault_plan.Alloc Fault_plan.Refuse_alloc 0 false ]))

let test_alloc_refusal_recovery () =
  let plan = Fault_plan.make [ ev Fault_plan.Alloc Fault_plan.Refuse_alloc 1 false ] in
  let vm = Vm.create ~fault:plan ~heap_bytes:10_000 () in
  let obj = Vm.alloc vm ~class_name:"A" ~n_fields:1 () in
  Alcotest.(check bool) "allocation survived the refusal" true
    (obj.Lp_heap.Heap_obj.id > 0);
  Alcotest.(check int) "the refusal fired" 1 (Fault_plan.fired_count plan);
  Alcotest.(check bool) "a recovery collection ran" true (Vm.gc_count vm >= 1)

let test_corruption_read_quarantine () =
  let vm = Vm.create ~heap_bytes:10_000 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:2 in
  let obj = Vm.alloc vm ~class_name:"A" ~n_fields:2 () in
  Mutator.write_obj vm statics 0 obj;
  Vm.inject_word_corruption vm statics ~field:0 `Dangle;
  (match Mutator.read vm statics 0 with
  | _ -> Alcotest.fail "expected Heap_corruption"
  | exception Lp_core.Errors.Heap_corruption { field; _ } ->
    Alcotest.(check int) "corrupt field reported" 0 field);
  Alcotest.(check bool) "slot quarantined (poisoned)" true
    (Mutator.field_is_poisoned vm statics 0);
  Alcotest.(check int) "quarantine counted" 1
    (Vm.stats vm).Lp_heap.Gc_stats.words_quarantined;
  (* the quarantined slot now takes the ordinary poisoned path *)
  (match Mutator.read vm statics 0 with
  | _ -> Alcotest.fail "expected Internal_error"
  | exception Lp_core.Errors.Internal_error _ -> ());
  Alcotest.(check (result unit string)) "heap verifies after quarantine" (Ok ())
    (Diagnostics.heap_check ~strict:true vm)

let test_corruption_gc_quarantine () =
  let vm = Vm.create ~heap_bytes:10_000 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:2 in
  let obj = Vm.alloc vm ~class_name:"A" ~n_fields:2 () in
  Mutator.write_obj vm statics 0 obj;
  Vm.inject_word_corruption vm obj ~field:1 `Dangle;
  (* never read: the next collection's scan must find and quarantine it *)
  Vm.run_gc vm;
  Alcotest.(check bool) "collector quarantined the dangle" true
    (Mutator.field_is_poisoned vm obj 1);
  Alcotest.(check bool) "quarantine counted" true
    ((Vm.stats vm).Lp_heap.Gc_stats.words_quarantined >= 1);
  Alcotest.(check (result unit string)) "heap verifies after collection" (Ok ())
    (Diagnostics.heap_check ~strict:true vm)

let test_heap_check_detects_unaccounted_poison () =
  let vm = Vm.create ~heap_bytes:10_000 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:2 in
  let obj = Vm.alloc vm ~class_name:"A" ~n_fields:1 () in
  Mutator.write_obj vm statics 0 obj;
  (* poison behind the runtime's back: no prune, quarantine or injection
     recorded, so the verifier must flag it *)
  let store = Vm.store vm and id = statics.Lp_heap.Heap_obj.id in
  Lp_heap.Store.set_field store id 0
    (Lp_heap.Word.poison (Lp_heap.Store.field store id 0));
  match Diagnostics.heap_check vm with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier missed an unaccounted poisoned word"

let test_chaos_determinism () =
  let r1 = Lp_harness.Chaos.run_one ~seed:11 () in
  let r2 = Lp_harness.Chaos.run_one ~seed:11 () in
  Alcotest.(check bool) "identical reports from the same seed" true (r1 = r2)

let test_chaos_fault_free_sweep () =
  (* Fault-free runs must never hit a Violation or Crash, and no fault
     events may fire. A Clean_stop is acceptable even without faults:
     the workload leaks by design, and when SAFE mode suspends pruning
     after mispredictions the deferred OutOfMemoryError (or the disk
     baseline's DiskExhausted) legitimately surfaces. *)
  List.iter
    (fun (r : Lp_harness.Chaos.report) ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d clean without faults" r.Lp_harness.Chaos.seed)
        false
        (Lp_harness.Chaos.failed r);
      Alcotest.(check int)
        (Printf.sprintf "seed %d fired no faults" r.Lp_harness.Chaos.seed)
        0 r.Lp_harness.Chaos.faults_fired)
    (Lp_harness.Chaos.run_seeds ~faults:false ~seeds:40 ())

let test_chaos_faulted_sweep () =
  List.iter
    (fun (r : Lp_harness.Chaos.report) ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %s" r.Lp_harness.Chaos.seed
           (Lp_harness.Chaos.outcome_to_string r.Lp_harness.Chaos.outcome))
        false
        (Lp_harness.Chaos.failed r))
    (Lp_harness.Chaos.run_seeds ~faults:true ~seeds:40 ())

let test_shrink_passing_seed () =
  Alcotest.(check bool) "nothing to shrink on a passing seed" true
    (Lp_harness.Chaos.shrink ~seed:3 () = None)

let suite =
  ( "fault",
    [
      Alcotest.test_case "plan determinism" `Quick test_plan_determinism;
      Alcotest.test_case "one-shot firing" `Quick test_at_firing;
      Alcotest.test_case "repeat firing" `Quick test_repeat_firing;
      Alcotest.test_case "invalid event rejected" `Quick test_invalid_event;
      Alcotest.test_case "alloc refusal recovery" `Quick test_alloc_refusal_recovery;
      Alcotest.test_case "corruption quarantined by read barrier" `Quick
        test_corruption_read_quarantine;
      Alcotest.test_case "corruption quarantined by collector" `Quick
        test_corruption_gc_quarantine;
      Alcotest.test_case "verifier flags unaccounted poison" `Quick
        test_heap_check_detects_unaccounted_poison;
      Alcotest.test_case "chaos determinism" `Quick test_chaos_determinism;
      Alcotest.test_case "chaos fault-free sweep" `Quick test_chaos_fault_free_sweep;
      Alcotest.test_case "chaos faulted sweep" `Quick test_chaos_faulted_sweep;
      Alcotest.test_case "shrink on passing seed" `Quick test_shrink_passing_seed;
      Alcotest.test_case "random plans: event digests pinned" `Quick
        test_plan_digests;
    ] )
