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

let suite =
  ( "alloc_budget",
    [
      Alcotest.test_case "constant words per collection" `Quick
        test_constant_words_per_collection;
    ] )
