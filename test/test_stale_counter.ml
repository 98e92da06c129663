(* The logarithmic staleness rule of Section 4.1. *)

open Lp_heap

let test_counter_zero_always_ticks () =
  for gc = 1 to 16 do
    Alcotest.(check bool)
      (Printf.sprintf "gc %d ticks counter 0" gc)
      true
      (Stale_counter.should_increment ~gc_number:gc ~current:0)
  done

let test_counter_one_ticks_on_even () =
  Alcotest.(check bool) "gc 2" true (Stale_counter.should_increment ~gc_number:2 ~current:1);
  Alcotest.(check bool) "gc 3" false (Stale_counter.should_increment ~gc_number:3 ~current:1);
  Alcotest.(check bool) "gc 4" true (Stale_counter.should_increment ~gc_number:4 ~current:1)

let test_saturation () =
  Alcotest.(check bool) "counter 7 never ticks" false
    (Stale_counter.should_increment ~gc_number:128 ~current:7)

let test_logarithmic_growth () =
  (* An object untouched from collection 1 has counter ~log2(collections):
     after 2^k consecutive collections, counter is at least k and at most
     k + 1. *)
  let counter = ref 0 in
  for gc = 1 to 64 do
    if Stale_counter.should_increment ~gc_number:gc ~current:!counter then incr counter;
    let lower = int_of_float (floor (log (float_of_int gc) /. log 2.)) in
    if !counter < min 7 lower || !counter > lower + 1 then
      Alcotest.failf "after %d collections counter is %d, expected ~log2" gc !counter
  done

let prop_divisibility =
  QCheck.Test.make ~name:"staleness: increments iff 2^k divides gc number"
    ~count:1000
    QCheck.(pair (int_range 1 100_000) (int_range 0 7))
    (fun (gc, k) ->
      Stale_counter.should_increment ~gc_number:gc ~current:k
      = (k < Header.max_stale && gc mod (1 lsl k) = 0))

let prop_mask_is_mod =
  (* The rule is tested with a mask of the low [current] bits; it must
     agree with the division it replaced everywhere in range. *)
  QCheck.Test.make ~name:"staleness: mask test equals mod test" ~count:2000
    QCheck.(pair (int_range 0 (1 lsl 20)) (int_range 0 Header.max_stale))
    (fun (gc, k) ->
      Stale_counter.should_increment ~gc_number:gc ~current:k
      = (k < Header.max_stale && gc mod (1 lsl k) = 0))

let suite =
  ( "stale_counter",
    [
      Alcotest.test_case "counter 0 always ticks" `Quick test_counter_zero_always_ticks;
      Alcotest.test_case "counter 1 even collections" `Quick test_counter_one_ticks_on_even;
      Alcotest.test_case "saturation at 7" `Quick test_saturation;
      Alcotest.test_case "logarithmic growth" `Quick test_logarithmic_growth;
      QCheck_alcotest.to_alcotest prop_divisibility;
      QCheck_alcotest.to_alcotest prop_mask_is_mod;
    ] )
