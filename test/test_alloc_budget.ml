(* The collector's allocation rule: once an engine's buffers have grown
   to the heap's working size, a steady-state collection allocates a
   constant number of OCaml words, whatever the heap size, in every
   state that marks: OBSERVE, SELECT (candidates and stale closures)
   and PRUNE (the poisoning filter). *)

open Lp_heap
open Lp_runtime

(* A Sequential VM holding a chain of [n] live objects, with a heap
   limit that keeps occupancy near 70% — past the OBSERVE threshold,
   short of nearly-full — so every collection marks the chain, ticks
   every live object and sets untouched bits. *)
let chain_vm ?resurrection ?force_state n =
  let obj_bytes = Heap_obj.size_of ~n_fields:1 ~scalar_bytes:16 in
  let heap = (n + 8) * obj_bytes * 10 / 7 in
  let vm =
    Vm.create
      ~config:(Lp_core.Config.make ?force_state ())
      ?resurrection ~heap_bytes:heap ()
  in
  let head = Vm.statics vm ~class_name:"Head" ~n_fields:1 in
  let prev = ref head in
  for _ = 1 to n do
    let o = Vm.alloc vm ~class_name:"Node" ~scalar_bytes:16 ~n_fields:1 () in
    Mutator.write_obj vm !prev 0 o;
    prev := o
  done;
  vm

let words_per_gc ?(state = "OBSERVE") vm ~collections =
  for _ = 1 to 20 do
    Vm.run_gc vm
  done;
  Alcotest.(check string) "steady state" state
    (Lp_core.State_kind.to_string (Lp_core.Controller.state (Vm.controller vm)));
  let before = Gc.minor_words () in
  for _ = 1 to collections do
    Vm.run_gc vm
  done;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int collections

let constant_words_per_collection ?force_state ~state ~bound () =
  let small = chain_vm ?force_state 100
  and large = chain_vm ?force_state 3_000 in
  let ws = words_per_gc ~state small ~collections:200 in
  let wl = words_per_gc ~state large ~collections:200 in
  if Float.abs (ws -. wl) > 16. || ws > bound || wl > bound then
    Alcotest.failf
      "%s words per collection: %.1f with 100 live objects, %.1f with 3,000 \
       (must agree within 16 and stay <= %.0f)"
      state ws wl bound

let test_constant_words_per_collection () =
  constant_words_per_collection ~state:"OBSERVE" ~bound:256. ()

let test_constant_words_select () =
  constant_words_per_collection ~force_state:Lp_core.State_kind.Select
    ~state:"SELECT" ~bound:320. ()

let test_constant_words_prune () =
  constant_words_per_collection ~force_state:Lp_core.State_kind.Prune
    ~state:"PRUNE" ~bound:256. ()

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
  Store.set_field (Vm.store vm) pin.Heap_obj.id 0 (Word.poison (Word.of_id first));
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

(* A resurrection VM whose collections are PRUNEs. [poison ()] points
   a statics word at a fresh chain of [n] one-field objects, poisoned,
   so the next collection finds the chain dying behind a live poisoned
   word: it captures [n] images and retention keeps them. [unpoison ()]
   nulls the word, so the next collection captures nothing and
   retention drops the [n] images; the next chain then reuses the
   chain's identifiers with no image stored under them. *)
let capturing_vm n =
  let obj_bytes = Heap_obj.size_of ~n_fields:1 ~scalar_bytes:16 in
  let vm =
    Vm.create
      ~config:(Lp_core.Config.make ~force_state:Lp_core.State_kind.Prune ())
      ~resurrection:true
      ~heap_bytes:(4 * (n + 8) * obj_bytes)
      ()
  in
  let pin = Vm.statics vm ~class_name:"Pin" ~n_fields:1 in
  let class_id = Vm.register_class vm "Node" in
  let set w = Store.set_field (Vm.store vm) pin.Heap_obj.id 0 w in
  let poison () =
    if n > 0 then begin
      let head =
        ref (Vm.alloc_class vm ~class_id ~scalar_bytes:16 ~n_fields:1 ())
      in
      for _ = 2 to n do
        let o = Vm.alloc_class vm ~class_id ~scalar_bytes:16 ~n_fields:1 () in
        Mutator.write_obj vm o 0 !head;
        head := o
      done;
      set (Word.poison (Word.of_id !head.Heap_obj.id))
    end
  in
  (vm, poison, fun () -> set Word.null)

(* Mean OCaml words of a capturing collection and of a dropping one,
   after 20 rounds have grown every buffer. *)
let capture_and_drop_words n =
  let vm, poison, unpoison = capturing_vm n in
  let round () =
    poison ();
    let a = Gc.minor_words () in
    Vm.run_gc vm;
    let b = Gc.minor_words () in
    unpoison ();
    Vm.run_gc vm;
    (b -. a, Gc.minor_words () -. b)
  in
  for _ = 1 to 20 do
    ignore (round ())
  done;
  let rounds = 50 and capture = ref 0. and drop = ref 0. in
  let writes = Diskswap.image_writes (Vm.swap vm) in
  for _ = 1 to rounds do
    let c, d = round () in
    capture := !capture +. c;
    drop := !drop +. d
  done;
  Alcotest.(check string) "state" "PRUNE"
    (Lp_core.State_kind.to_string (Lp_core.Controller.state (Vm.controller vm)));
  Alcotest.(check int)
    (Printf.sprintf "images captured per collection (%d)" n)
    n
    ((Diskswap.image_writes (Vm.swap vm) - writes) / rounds);
  Alcotest.(check int) "every image dropped" 0
    (Diskswap.image_count (Vm.swap vm));
  (!capture /. float_of_int rounds, !drop /. float_of_int rounds)

(* A PRUNE allocates, per image it captures, the image's own storage
   and nothing else: its bytes (40 of them, 7 words), its memoised
   references (one, 2 words; the chain's last image has none) and its
   table entry (the bucket, 4 words; the memo's constructor, 3; the
   validation's [Ok], 2), 18 words. Beyond those, capturing 50 images
   and capturing 500 allocate the same few words, so neither the walk
   nor the writer allocates per object it visits. A collection that
   drops the images allocates as many words whatever their number. *)
let image_words = 18.

let test_capture_words_per_image () =
  let base, _ = capture_and_drop_words 0 in
  let excess n =
    let c, d = capture_and_drop_words n in
    (c -. base -. (image_words *. float_of_int n), d)
  in
  let few, drop_few = excess 50 and many, drop_many = excess 500 in
  if Float.abs (few -. many) > 16. || few > 64. || many > 64. then
    Alcotest.failf
      "words beyond %.0f per captured image: %.1f capturing 50, %.1f \
       capturing 500 (must agree within 16 and stay <= 64)"
      image_words few many;
  if Float.abs (drop_few -. drop_many) > 16. then
    Alcotest.failf
      "words per dropping collection: %.1f dropping 50 images, %.1f dropping \
       500 (must agree within 16)"
      drop_few drop_many

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
   takes the fast path: it allocates the object's handle (one field and
   a header word) and nothing else; the header, class, size, field
   count, field offset and the fields themselves go into the store's
   int arrays. Here each allocation reuses the identifier of a dead
   object of the same field count, which a collection freed, and with
   it that object's words. Neither the number of objects already live
   nor the field count changes the figure. *)
let test_alloc_fast_path_words () =
  let handle_words = 2. in
  List.iter
    (fun live ->
      List.iter
        (fun n_fields ->
          let vm = chain_vm live in
          Store.set_limit_bytes (Vm.store vm) (Vm.used_bytes vm + (1 lsl 20));
          let class_id = Vm.register_class vm "Fresh" in
          let alloc () =
            ignore (Vm.alloc_class vm ~class_id ~scalar_bytes:8 ~n_fields ())
          in
          for _ = 1 to 2_000 do
            alloc ()
          done;
          Vm.run_gc vm;
          let gcs = Vm.gc_count vm in
          let words = words_per_call ~n:2_000 alloc in
          if Float.abs (words -. handle_words) > 0.01 then
            Alcotest.failf
              "%d live objects, %d fields: %.3f words per allocation, \
               expected %.0f"
              live n_fields words handle_words;
          Alcotest.(check int) "no collection ran" gcs (Vm.gc_count vm))
        [ 0; 1; 2; 4; 5; 9 ])
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
      Alcotest.test_case "fast-path allocation: handle only" `Quick
        test_alloc_fast_path_words;
      Alcotest.test_case "collections force no OCaml minor collection" `Quick
        test_collections_force_no_minor_gc;
      Alcotest.test_case "unchanged collections: words independent of images"
        `Quick test_unchanged_collections_independent_of_images;
      Alcotest.test_case "INACTIVE collections: words independent of frees"
        `Quick test_inactive_words_independent_of_freed;
      Alcotest.test_case "constant words per SELECT collection" `Quick
        test_constant_words_select;
      Alcotest.test_case "constant words per PRUNE collection" `Quick
        test_constant_words_prune;
      Alcotest.test_case "PRUNE capture: only the images' own words"
        `Quick test_capture_words_per_image;
    ] )
