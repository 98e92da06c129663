(* The collector's allocation rule: once an engine's buffers have grown
   to the heap's working size, a steady-state collection allocates a
   constant number of OCaml words, whatever the heap size. *)

open Lp_heap
open Lp_runtime

(* A Sequential VM holding a chain of [n] live objects, with a heap
   limit that keeps occupancy near 70% — past the OBSERVE threshold,
   short of nearly-full — so every collection marks the chain, ticks
   every live object and sets untouched bits. *)
let chain_vm ?resurrection n =
  let obj_bytes = Heap_obj.size_of ~n_fields:1 ~scalar_bytes:16 in
  let heap = (n + 8) * obj_bytes * 10 / 7 in
  let vm =
    Vm.create ~config:(Lp_core.Config.make ()) ?resurrection ~heap_bytes:heap
      ()
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

(* A resurrection VM over a chain of 1,000 live objects, with one
   poisoned statics word whose target's image starts a chain of
   [images] stored images, each referring to the next: all of them are
   retained, and no collection changes the poisoned words or the
   images. Such a collection skips retention, so what it allocates
   does not depend on how many images are retained. *)
let retained_images_vm images =
  let vm = chain_vm ~resurrection:true 1_000 in
  let first = 1_000_000 in
  let pin = Vm.statics vm ~class_name:"Pin" ~n_fields:1 in
  pin.Heap_obj.fields.(0) <- Word.poison (Word.of_id first);
  for id = first to first + images - 1 do
    let next = if id + 1 < first + images then [| id + 1 |] else [||] in
    Diskswap.store_image (Vm.swap vm) ~id
      (Swap_image.encode
         {
           Swap_image.object_id = id;
           class_id = 1;
           stale = 2;
           scalar_bytes = 8;
           fields =
             Array.map
               (fun t -> { Swap_image.word = Word.of_id t; referent_class = 1 })
               next;
         })
  done;
  vm

let test_unchanged_collections_independent_of_images () =
  let few = retained_images_vm 10 and many = retained_images_vm 200 in
  let wf = words_per_gc few ~collections:100 in
  let wm = words_per_gc many ~collections:100 in
  Alcotest.(check int) "10 images retained" 10 (Diskswap.image_count (Vm.swap few));
  Alcotest.(check int) "200 images retained" 200
    (Diskswap.image_count (Vm.swap many));
  if Float.abs (wf -. wm) > 16. then
    Alcotest.failf
      "words per unchanged collection: %.1f with 10 retained images, %.1f \
       with 200 (must agree within 16)"
      wf wm

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

(* An allocation that fits, on a VM with no nursery and no fault plan,
   takes the fast path: it allocates the object's handle (two fields
   and a header word) and its field array (a header word and one per
   field, none for the shared empty array), and nothing else; the
   header, class and size go into the store's int arrays. Neither the
   number of objects already live nor whether the field array is built
   inline (up to four words) or by [Array.make] changes that. *)
let test_alloc_fast_path_words () =
  let record_words = 3. in
  List.iter
    (fun live ->
      let vm = chain_vm live in
      Store.set_limit_bytes (Vm.store vm) (Vm.used_bytes vm + (1 lsl 20));
      let class_id = Vm.register_class vm "Fresh" in
      let gcs = Vm.gc_count vm in
      List.iter
        (fun n_fields ->
          let expected =
            record_words
            +. if n_fields = 0 then 0. else float_of_int (n_fields + 1)
          in
          let words =
            words_per_call ~n:2_000 (fun () ->
                ignore (Vm.alloc_class vm ~class_id ~scalar_bytes:8 ~n_fields ()))
          in
          if Float.abs (words -. expected) > 0.01 then
            Alcotest.failf
              "%d live objects, %d fields: %.3f words per allocation, \
               expected %.0f"
              live n_fields words expected)
        [ 0; 1; 2; 4; 5; 9 ];
      Alcotest.(check int) "no collection ran" gcs (Vm.gc_count vm))
    [ 100; 3_000 ]

(* An INACTIVE collection frees with no OCaml allocation per freed
   slot: the sweep marks a slot free in the header array and queues its
   id in a ring buffer that keeps its capacity. A VM holding a short
   live chain in a large heap stays INACTIVE; between collections it
   allocates [garbage] dead objects. Only the collections are measured,
   after the free-id ring has grown to the working size. *)
let words_per_inactive_gc ~garbage =
  let vm = chain_vm 100 in
  Store.set_limit_bytes (Vm.store vm) (1 lsl 24);
  let class_id = Vm.register_class vm "Garbage" in
  let churn () =
    for _ = 1 to garbage do
      ignore (Vm.alloc_class vm ~class_id ~scalar_bytes:8 ~n_fields:1 ())
    done
  in
  for _ = 1 to 5 do
    churn ();
    Vm.run_gc vm
  done;
  Alcotest.(check string) "steady state" "INACTIVE"
    (Lp_core.State_kind.to_string (Lp_core.Controller.state (Vm.controller vm)));
  let collections = 50 and words = ref 0. in
  for _ = 1 to collections do
    churn ();
    let before = Gc.minor_words () in
    Vm.run_gc vm;
    words := !words +. (Gc.minor_words () -. before)
  done;
  !words /. float_of_int collections

let test_inactive_words_independent_of_freed () =
  let few = words_per_inactive_gc ~garbage:10 in
  let many = words_per_inactive_gc ~garbage:5_000 in
  if Float.abs (few -. many) > 16. then
    Alcotest.failf
      "words per INACTIVE collection: %.1f freeing 10 objects, %.1f freeing \
       5,000 (must agree within 16)"
      few many

(* Collections store no object records in the engines' buffers. A
   buffer outlives collections, so it sits in OCaml's major heap, and
   storing a record allocated since the last OCaml minor collection into
   it adds an entry to OCaml's remembered set; a full set forces a minor
   collection at once, inside the pause. Here every live object is such
   a record and every collection ticks all of them, so a tick batch of
   records fills the set within a few dozen collections. With buffers of
   ids, a minor collection can only come from the minor heap filling
   up, which this window is too small to do, or from the end of an
   OCaml major cycle, which empties the minor heap too. The window
   starts on a fresh major cycle, which its little allocation cannot
   finish. *)
let test_collections_force_no_minor_gc () =
  let minors () = (Gc.quick_stat ()).Gc.minor_collections in
  Gc.full_major ();
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
      Alcotest.test_case "fast-path allocation: record and fields only"
        `Quick test_alloc_fast_path_words;
      Alcotest.test_case "collections force no OCaml minor collection" `Quick
        test_collections_force_no_minor_gc;
      Alcotest.test_case "unchanged collections: words independent of images"
        `Quick test_unchanged_collections_independent_of_images;
      Alcotest.test_case "INACTIVE collections: words independent of frees"
        `Quick test_inactive_words_independent_of_freed;
    ] )
