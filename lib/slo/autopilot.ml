(* The pause-SLO autopilot: a PID-style feedback controller that holds
   the 99th-percentile GC pause under a configured target by retuning
   the slice budget between collections.

   The budget is wall-clock-fed and therefore non-deterministic run to
   run. It is denominated in nanoseconds and converted to an object
   count through an EWMA estimate of per-object scan cost; a
   deterministic object-count floor (32 objects, [Vm.slo_min_slice_budget])
   bounds it from below so count-based invariants survive arbitrarily
   slow hosts. A wrong budget can only move slice boundaries — the engine's
   reclamation outcome is budget-independent by the determinism
   contract — so feeding wall time here is safe. *)

type t = {
  target_p99_ns : int;
  floor : int;
  window : int array; (* ring of recent pause samples, ns *)
  mutable window_len : int;
  mutable window_pos : int;
  mutable budget_ns : float;
  mutable ns_per_obj : float; (* EWMA; 0.0 until the first mark slice *)
  mutable budget : int; (* current object-count budget *)
  mutable integral : float;
  mutable last_err : float;
  mutable adjustments : int;
}

type decision = {
  d_budget : int;  (** slice budget for the next collection, objects *)
  d_p99_ns : int;  (** the window p99 that drove the budget *)
  d_budget_changed : bool;
}

let window_cap = 256

(* PID gains on the normalized error (p99 - target) / target. Modest
   proportional action with a slow integral keeps the loop stable under
   the heavy-tailed pause distributions sliced collections produce. *)
let kp = 0.5
let ki = 0.1
let kd = 0.2
let ewma_alpha = 0.3

let create ~target_p99_ns ~floor ~init_budget =
  if target_p99_ns < 1 then invalid_arg "Autopilot.create: target_p99_ns < 1";
  if floor < 1 then invalid_arg "Autopilot.create: floor < 1";
  if init_budget < 1 then invalid_arg "Autopilot.create: init_budget < 1";
  {
    target_p99_ns;
    floor;
    window = Array.make window_cap 0;
    window_len = 0;
    window_pos = 0;
    (* Aim for one slice per target pause until feedback arrives. *)
    budget_ns = float_of_int target_p99_ns;
    ns_per_obj = 0.0;
    budget = max floor init_budget;
    integral = 0.0;
    last_err = 0.0;
    adjustments = 0;
  }

let push_sample t ns =
  t.window.(t.window_pos) <- ns;
  t.window_pos <- (t.window_pos + 1) mod window_cap;
  if t.window_len < window_cap then t.window_len <- t.window_len + 1

let p99_ns t =
  if t.window_len = 0 then 0
  else begin
    let a = Array.sub t.window 0 t.window_len in
    Array.sort compare a;
    let rank = (99 * t.window_len + 99) / 100 in
    (* ceil (0.99 n) *)
    a.(max 0 (min (t.window_len - 1) (rank - 1)))
  end

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

(* One PID step on the ns-denominated budget, given the window's p99.
   Positive error (p99 over target) shrinks the budget multiplicatively;
   the per-step factor is clamped to [0.5, 2.0] so one outlier
   collection cannot slam the budget across its whole range. The budget
   stays within [1 µs, 100 × target]; below a 10 ns target the upper
   bound is the lower one too. *)
let retune t ~p99 =
  let p99 = float_of_int p99 in
  let target = float_of_int t.target_p99_ns in
  let err = (p99 -. target) /. target in
  t.integral <- clamp (-5.0) 5.0 (t.integral +. err);
  let control = (kp *. err) +. (ki *. t.integral) +. (kd *. (err -. t.last_err)) in
  t.last_err <- err;
  let factor = clamp 0.5 2.0 (exp (-.control)) in
  let max_ns = 100.0 *. target in
  let min_ns = Float.min 1_000.0 max_ns in
  t.budget_ns <- clamp min_ns max_ns (t.budget_ns *. factor)

let budget_objects t =
  if t.ns_per_obj <= 0.0 then max t.floor t.budget
  else max t.floor (int_of_float (t.budget_ns /. t.ns_per_obj))

let note_collection t ~samples =
  let budget_in_effect = max 1 t.budget in
  List.iter
    (fun (phase, ns) ->
      push_sample t ns;
      match phase with
      | Lp_heap.Trace_engine.Mark_slice when ns > 0 ->
        (* Per-object cost estimate: a mark slice scans at most
           [budget_in_effect] objects, so [ns / budget] is a (slightly
           conservative) per-object cost. The 1ns/object floor matters:
           when the budget overshoots the live heap, slices scan far
           fewer objects than budgeted, the quotient collapses, and an
           unfloored estimate would inflate the next budget further —
           a runaway loop the clamp on [budget_ns] alone cannot stop. *)
        let cost = float_of_int ns /. float_of_int budget_in_effect in
        t.ns_per_obj <-
          max 1.0
            (if t.ns_per_obj <= 0.0 then cost
             else (ewma_alpha *. cost) +. ((1.0 -. ewma_alpha) *. t.ns_per_obj))
      | _ -> ())
    samples;
  let p99 = p99_ns t in
  retune t ~p99;
  let new_budget = budget_objects t in
  let budget_changed = new_budget <> t.budget in
  if budget_changed then t.adjustments <- t.adjustments + 1;
  t.budget <- new_budget;
  {
    d_budget = new_budget;
    d_p99_ns = p99;
    d_budget_changed = budget_changed;
  }

let budget t = t.budget
let adjustments t = t.adjustments
let escalations (_ : t) = 0
