(* The collector's allocation rule: once an engine's buffers have grown
   to the heap's working size, a steady-state collection allocates a
   constant number of OCaml words, whatever the heap size. *)

open Lp_heap
open Lp_runtime

(* A Sequential VM holding a chain of [n] live objects, with a heap
   limit that keeps occupancy near 70% — past the OBSERVE threshold,
   short of nearly-full — so every collection marks the chain, ticks
   every live object and sets untouched bits. *)
let chain_vm n =
  let obj_bytes = Heap_obj.size_of ~n_fields:1 ~scalar_bytes:16 in
  let heap = (n + 8) * obj_bytes * 10 / 7 in
  let vm =
    Vm.create ~config:(Lp_core.Config.make ()) ~heap_bytes:heap ()
  in
  let head = Vm.statics vm ~class_name:"Head" ~n_fields:1 in
  let prev = ref head in
  for _ = 1 to n do
    let o = Vm.alloc vm ~class_name:"Node" ~scalar_bytes:16 ~n_fields:1 () in
    Mutator.write_obj vm !prev 0 o;
    prev := o
  done;
  vm

let words_per_gc vm ~collections =
  for _ = 1 to 20 do
    Vm.run_gc vm
  done;
  Alcotest.(check string) "steady state" "OBSERVE"
    (Lp_core.State_kind.to_string (Lp_core.Controller.state (Vm.controller vm)));
  let before = Gc.minor_words () in
  for _ = 1 to collections do
    Vm.run_gc vm
  done;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int collections

let test_constant_words_per_collection () =
  let small = chain_vm 100 and large = chain_vm 3_000 in
  let ws = words_per_gc small ~collections:200 in
  let wl = words_per_gc large ~collections:200 in
  if Float.abs (ws -. wl) > 16. || ws > 256. || wl > 256. then
    Alcotest.failf
      "words per collection: %.1f with 100 live objects, %.1f with 3,000 \
       (must agree within 16 and stay <= 256)"
      ws wl

(* OCaml words allocated per call of [f], over [n] calls. *)
let words_per_call ~n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int n

(* The mutator's fast paths allocate nothing of their own: the liveness
   check and a reference store allocate no words, and a read of a clean
   reference allocates only the [Some] it returns (two words). *)
let test_fast_paths_allocation_free () =
  let vm = chain_vm 100 in
  let src = Vm.alloc vm ~class_name:"Node" ~scalar_bytes:16 ~n_fields:1 () in
  let tgt = Vm.alloc vm ~class_name:"Node" ~scalar_bytes:16 ~n_fields:1 () in
  let some_tgt = Some tgt in
  Mutator.write vm src 0 some_tgt;
  let n = 100_000 in
  let check name expected words =
    if Float.abs (words -. expected) > 0.01 then
      Alcotest.failf "%s: %.3f words per call, expected %.0f" name words
        expected
  in
  check "Vm.assert_live" 0. (words_per_call ~n (fun () -> Vm.assert_live vm src));
  check "Mutator.write" 0.
    (words_per_call ~n (fun () -> Mutator.write vm src 0 some_tgt));
  check "Mutator.read (fast path)" 2.
    (words_per_call ~n (fun () -> ignore (Mutator.read vm src 0)))

(* Collections store no object records in the engines' buffers. A
   buffer outlives collections, so it sits in OCaml's major heap, and
   storing a record allocated since the last OCaml minor collection into
   it adds an entry to OCaml's remembered set; a full set forces a minor
   collection at once, inside the pause. Here every live object is such
   a record and every collection ticks all of them, so a tick batch of
   records fills the set within a few dozen collections. With buffers of
   ids, a minor collection can only come from the minor heap filling
   up, which this window is too small to do. *)
let test_collections_force_no_minor_gc () =
  let minors () = (Gc.quick_stat ()).Gc.minor_collections in
  Gc.minor ();
  let words_before = Gc.minor_words () and minors_before = minors () in
  let vm = chain_vm 2_000 in
  for _ = 1 to 40 do
    Vm.run_gc vm
  done;
  Alcotest.(check string) "ticking state" "OBSERVE"
    (Lp_core.State_kind.to_string (Lp_core.Controller.state (Vm.controller vm)));
  let words = Gc.minor_words () -. words_before in
  if words < float_of_int (Gc.get ()).Gc.minor_heap_size then
    Alcotest.(check int) "OCaml minor collections" 0 (minors () - minors_before)

let suite =
  ( "alloc_budget",
    [
      Alcotest.test_case "constant words per collection" `Quick
        test_constant_words_per_collection;
      Alcotest.test_case "mutator fast paths allocation-free" `Quick
        test_fast_paths_allocation_free;
      Alcotest.test_case "collections force no OCaml minor collection" `Quick
        test_collections_force_no_minor_gc;
    ] )
