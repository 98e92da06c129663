(* Header bit layout tests. *)

open Lp_heap

let test_marks () =
  let h = Header.empty in
  Alcotest.(check bool) "empty unmarked" false (Header.marked h);
  let h = Header.set_marked h in
  Alcotest.(check bool) "marked" true (Header.marked h);
  let h = Header.set_stale_marked h in
  Alcotest.(check bool) "stale-marked" true (Header.stale_marked h);
  let h = Header.clear_gc_bits h in
  Alcotest.(check bool) "gc bits cleared: mark" false (Header.marked h);
  Alcotest.(check bool) "gc bits cleared: stale-mark" false (Header.stale_marked h)

let test_stale_counter () =
  let h = Header.empty in
  Alcotest.(check int) "initial" 0 (Header.stale_counter h);
  let h = Header.with_stale_counter h 5 in
  Alcotest.(check int) "set 5" 5 (Header.stale_counter h);
  let h = Header.with_stale_counter h 7 in
  Alcotest.(check int) "saturation value" 7 (Header.stale_counter h);
  Alcotest.check_raises "8 rejected" (Invalid_argument "Header.with_stale_counter")
    (fun () -> ignore (Header.with_stale_counter h 8))

let test_counter_independent_of_marks () =
  let h = Header.with_stale_counter (Header.set_marked Header.empty) 6 in
  Alcotest.(check bool) "mark preserved" true (Header.marked h);
  Alcotest.(check int) "counter preserved" 6 (Header.stale_counter h);
  let h = Header.clear_gc_bits h in
  Alcotest.(check int) "counter survives gc-bit clear" 6 (Header.stale_counter h)

let test_finalizer_bits () =
  let h = Header.set_finalizable Header.empty in
  Alcotest.(check bool) "finalizable" true (Header.finalizable h);
  Alcotest.(check bool) "not yet enqueued" false (Header.finalizer_enqueued h);
  let h = Header.set_finalizer_enqueued h in
  Alcotest.(check bool) "enqueued" true (Header.finalizer_enqueued h)

let test_statics_bit () =
  let h = Header.set_statics_container Header.empty in
  Alcotest.(check bool) "statics container" true (Header.statics_container h);
  Alcotest.(check bool) "independent of marks" false (Header.marked h)

let test_on_disk_bit () =
  let h = Header.with_stale_counter (Header.set_marked Header.empty) 4 in
  Alcotest.(check bool) "fresh header is in memory" false (Header.on_disk h);
  let h = Header.set_on_disk h in
  Alcotest.(check bool) "on disk" true (Header.on_disk h);
  Alcotest.(check bool) "mark preserved" true (Header.marked h);
  Alcotest.(check int) "counter preserved" 4 (Header.stale_counter h);
  Alcotest.(check bool) "survives gc-bit clear" true
    (Header.on_disk (Header.clear_gc_bits h));
  let h = Header.clear_on_disk h in
  Alcotest.(check bool) "back in memory" false (Header.on_disk h);
  Alcotest.(check int) "counter still preserved" 4 (Header.stale_counter h)

let prop_counter_roundtrip =
  QCheck.Test.make ~name:"header: stale counter roundtrips under other bits"
    ~count:200
    QCheck.(pair (int_range 0 7) bool)
    (fun (k, marked) ->
      let h = if marked then Header.set_marked Header.empty else Header.empty in
      let h = Header.set_statics_container h in
      let h = Header.with_stale_counter h k in
      Header.stale_counter h = k
      && Header.marked h = marked
      && Header.statics_container h)

let suite =
  ( "header",
    [
      Alcotest.test_case "marks" `Quick test_marks;
      Alcotest.test_case "stale counter" `Quick test_stale_counter;
      Alcotest.test_case "counter vs marks" `Quick test_counter_independent_of_marks;
      Alcotest.test_case "finalizer bits" `Quick test_finalizer_bits;
      Alcotest.test_case "statics bit" `Quick test_statics_bit;
      Alcotest.test_case "on-disk bit" `Quick test_on_disk_bit;
      QCheck_alcotest.to_alcotest prop_counter_roundtrip;
    ] )
