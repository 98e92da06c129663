(* Unit and property tests for the tagged reference words. *)

let test_null () =
  Alcotest.(check bool) "null is null" true (Lp_heap.Word.is_null Lp_heap.Word.null);
  Alcotest.(check bool) "null not poisoned" false (Lp_heap.Word.poisoned Lp_heap.Word.null)

let test_roundtrip () =
  let w = Lp_heap.Word.of_id 42 in
  Alcotest.(check int) "target" 42 (Lp_heap.Word.target w);
  Alcotest.(check bool) "fresh word untagged" false (Lp_heap.Word.untouched w);
  Alcotest.(check bool) "fresh word unpoisoned" false (Lp_heap.Word.poisoned w)

let test_untouched_bit () =
  let w = Lp_heap.Word.set_untouched (Lp_heap.Word.of_id 7) in
  Alcotest.(check bool) "set" true (Lp_heap.Word.untouched w);
  Alcotest.(check int) "target preserved" 7 (Lp_heap.Word.target w);
  let w = Lp_heap.Word.clear_untouched w in
  Alcotest.(check bool) "cleared" false (Lp_heap.Word.untouched w);
  Alcotest.(check int) "target still preserved" 7 (Lp_heap.Word.target w)

let test_poison () =
  let w = Lp_heap.Word.poison (Lp_heap.Word.of_id 9) in
  Alcotest.(check bool) "poisoned" true (Lp_heap.Word.poisoned w);
  Alcotest.(check bool) "poison sets the low bit too" true (Lp_heap.Word.untouched w);
  Alcotest.(check int) "target survives poisoning" 9 (Lp_heap.Word.target w)

let test_bad_id () =
  Alcotest.check_raises "id 0 rejected" (Invalid_argument "Word.of_id: object identifiers start at 1")
    (fun () -> ignore (Lp_heap.Word.of_id 0));
  let max = Lp_heap.Heap_obj.max_index in
  Alcotest.(check int) "the largest index round-trips" max
    (Lp_heap.Word.target (Lp_heap.Word.of_id max));
  (* a handle's packed bits, generation 1 over index 5, name no object *)
  List.iter
    (fun id ->
      Alcotest.check_raises
        (Printf.sprintf "%d rejected" id)
        (Invalid_argument "Word.of_id: not an identifier (above Heap_obj.max_index)")
        (fun () -> ignore (Lp_heap.Word.of_id id)))
    [ max + 1; (1 lsl 32) lor 5; max_int ]

let prop_tags_never_change_target =
  QCheck.Test.make ~name:"word: tag operations never change the target"
    ~count:500
    QCheck.(int_range 1 1_000_000)
    (fun id ->
      let w = Lp_heap.Word.of_id id in
      Lp_heap.Word.target (Lp_heap.Word.set_untouched w) = id
      && Lp_heap.Word.target (Lp_heap.Word.clear_untouched w) = id
      && Lp_heap.Word.target (Lp_heap.Word.poison w) = id
      && Lp_heap.Word.target (Lp_heap.Word.clear_untouched (Lp_heap.Word.poison w)) = id)

let prop_poison_sticky =
  QCheck.Test.make ~name:"word: clearing the untouched bit keeps poison"
    ~count:500
    QCheck.(int_range 1 1_000_000)
    (fun id ->
      let w = Lp_heap.Word.poison (Lp_heap.Word.of_id id) in
      Lp_heap.Word.poisoned (Lp_heap.Word.clear_untouched w))

let suite =
  ( "word",
    [
      Alcotest.test_case "null" `Quick test_null;
      Alcotest.test_case "roundtrip" `Quick test_roundtrip;
      Alcotest.test_case "untouched bit" `Quick test_untouched_bit;
      Alcotest.test_case "poison" `Quick test_poison;
      Alcotest.test_case "bad id" `Quick test_bad_id;
      QCheck_alcotest.to_alcotest prop_tags_never_change_target;
      QCheck_alcotest.to_alcotest prop_poison_sticky;
    ] )
