(* The pause-SLO autopilot on synthetic pause samples: the floor, the
   direction of each retune, the adjustment count, the p99 rank and
   argument checks. One [Mark_slice] sample fixes the per-object cost;
   [Sweep_slice] samples then move the window's p99 without touching
   that cost, so each budget change comes from the p99 alone. *)

module A = Lp_slo.Autopilot

let sweep ns = (Lp_heap.Trace_engine.Sweep_slice, ns)

(* target 100 us, floor 4 objects, 1 000 ns per object after the first
   collection (one 256-object slice of 256 us) *)
let calibrated () =
  let ap = A.create ~target_p99_ns:100_000 ~floor:4 ~init_budget:256 in
  ignore
    (A.note_collection ap ~samples:[ (Lp_heap.Trace_engine.Mark_slice, 256_000) ]);
  ap

(* Feeds [n] collections of [samples] each and returns their budgets,
   checking that each decision's change flag and p99 are its own. *)
let feed ap n samples =
  List.init n (fun _ ->
      let before = A.budget ap in
      let d = A.note_collection ap ~samples in
      Alcotest.(check bool) "changed flag matches the budget" (d.A.d_budget <> before)
        d.A.d_budget_changed;
      Alcotest.(check int) "decision carries the window p99" (A.p99_ns ap) d.A.d_p99_ns;
      Alcotest.(check int) "decision is the budget in effect" (A.budget ap) d.A.d_budget;
      d.A.d_budget)

let rec pairs = function a :: (b :: _ as tl) -> (a, b) :: pairs tl | [ _ ] | [] -> []

let test_floor_and_direction () =
  let ap = calibrated () in
  let start = A.budget ap in
  (* p99 ten times the target: the budget shrinks down to the floor and
     stays there *)
  let over = feed ap 30 [ sweep 1_000_000 ] in
  List.iter
    (fun b -> Alcotest.(check bool) "never below the floor" true (b >= 4))
    over;
  List.iter
    (fun (a, b) -> Alcotest.(check bool) "over target: never grows" true (b <= a))
    (pairs (start :: over));
  Alcotest.(check int) "over target long enough: at the floor" 4 (A.budget ap);
  (* a full window of 1 us samples: p99 far under target, the budget
     grows *)
  let floor_budget = A.budget ap in
  let under = feed ap 10 (List.init 256 (fun _ -> sweep 1_000)) in
  List.iter
    (fun (a, b) -> Alcotest.(check bool) "under target: never shrinks" true (b >= a))
    (pairs (floor_budget :: under));
  Alcotest.(check bool) "under target: grew" true (A.budget ap > floor_budget)

let test_adjustments_count_changes () =
  let ap = calibrated () in
  let changes = ref (A.adjustments ap) in
  let count n samples =
    let before = ref (A.budget ap) in
    List.iter
      (fun b ->
        if b <> !before then incr changes;
        before := b)
      (feed ap n samples)
  in
  count 30 [ sweep 1_000_000 ];
  Alcotest.(check int) "one adjustment per change" !changes (A.adjustments ap);
  (* pinned at the floor: more over-target collections change nothing *)
  let pinned = A.adjustments ap in
  count 5 [ sweep 1_000_000 ];
  Alcotest.(check int) "no change, no adjustment" pinned (A.adjustments ap);
  count 10 (List.init 256 (fun _ -> sweep 1_000));
  Alcotest.(check int) "growth counted too" !changes (A.adjustments ap);
  Alcotest.(check bool) "growth adjusted" true (A.adjustments ap > pinned)

let test_p99_rank () =
  let ap = A.create ~target_p99_ns:1_000 ~floor:1 ~init_budget:1 in
  Alcotest.(check int) "no samples" 0 (A.p99_ns ap);
  ignore (A.note_collection ap ~samples:[ sweep 7 ]);
  Alcotest.(check int) "one sample" 7 (A.p99_ns ap);
  (* 1..100, shuffled: rank ceil (0.99 * 100) = 99 *)
  let ap = A.create ~target_p99_ns:1_000 ~floor:1 ~init_budget:1 in
  ignore
    (A.note_collection ap
       ~samples:(List.init 100 (fun i -> sweep (((i * 37) mod 100) + 1))));
  Alcotest.(check int) "p99 of 1..100" 99 (A.p99_ns ap);
  (* 300 samples 1..300: the window keeps the last 256 (45..300), rank
     ceil (0.99 * 256) = 254, so the 254th smallest is 298 *)
  let ap = A.create ~target_p99_ns:1_000 ~floor:1 ~init_budget:1 in
  ignore (A.note_collection ap ~samples:(List.init 300 (fun i -> sweep (i + 1))));
  Alcotest.(check int) "p99 over the last 256" 298 (A.p99_ns ap)

let test_create_rejects_non_positive () =
  let rejects msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  rejects "Autopilot.create: target_p99_ns < 1" (fun () ->
      A.create ~target_p99_ns:0 ~floor:1 ~init_budget:1);
  rejects "Autopilot.create: floor < 1" (fun () ->
      A.create ~target_p99_ns:1 ~floor:0 ~init_budget:1);
  rejects "Autopilot.create: init_budget < 1" (fun () ->
      A.create ~target_p99_ns:1 ~floor:1 ~init_budget:(-5))

let suite =
  ( "autopilot",
    [
      Alcotest.test_case "floor and direction" `Quick test_floor_and_direction;
      Alcotest.test_case "adjustments count changes" `Quick
        test_adjustments_count_changes;
      Alcotest.test_case "p99 rank" `Quick test_p99_rank;
      Alcotest.test_case "create rejects non-positive args" `Quick
        test_create_rejects_non_positive;
    ] )
