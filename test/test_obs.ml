(* Observability plane: ring buffer, metrics registry, event sink,
   exporters, and the end-to-end prune-audit invariant. *)

open Lp_obs

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_partial_fill () =
  let r = Ring.create ~capacity:4 in
  Alcotest.(check bool) "starts empty" true (Ring.is_empty r);
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check int) "nothing dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] (Ring.to_list r)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  Alcotest.(check int) "capacity" 4 (Ring.capacity r);
  Alcotest.(check int) "length capped" 4 (Ring.length r);
  Alcotest.(check int) "drop-oldest accounting" 6 (Ring.dropped r);
  Alcotest.(check (list int)) "newest window, oldest first" [ 7; 8; 9; 10 ]
    (Ring.to_list r);
  (* iter and fold agree with to_list *)
  let seen = ref [] in
  Ring.iter r (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "iter order" [ 7; 8; 9; 10 ] (List.rev !seen);
  Alcotest.(check int) "fold" (7 + 8 + 9 + 10)
    (Ring.fold r ~init:0 (fun acc x -> acc + x))

let test_ring_clear () =
  let r = Ring.create ~capacity:2 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Ring.clear r;
  Alcotest.(check bool) "empty" true (Ring.is_empty r);
  Alcotest.(check int) "dropped reset" 0 (Ring.dropped r);
  Ring.push r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Ring.to_list r)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_counters_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.count" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  (* handles are interned: a second fetch updates the same cell *)
  Metrics.incr (Metrics.counter m "a.count");
  Alcotest.(check int) "counter value" 6 (Metrics.counter_value c);
  Metrics.set_counter c 42;
  Alcotest.(check int) "set_counter overrides" 42 (Metrics.counter_value c);
  let g = Metrics.gauge m "b.gauge" in
  Metrics.set_gauge g 7;
  Metrics.set_gauge g 3;
  let snap = Metrics.snapshot m in
  Alcotest.(check (option int)) "snapshot counter" (Some 42)
    (Metrics.find_counter snap "a.count");
  Alcotest.(check (option int)) "snapshot gauge keeps last" (Some 3)
    (Metrics.find_gauge snap "b.gauge");
  Alcotest.(check (option int)) "absent name" None
    (Metrics.find_counter snap "no.such")

let test_metrics_bucket_of () =
  let cases =
    [ (-5, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4);
      (1023, 10); (1024, 11) ]
  in
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b
        (Metrics.bucket_of v))
    cases

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  List.iter (Metrics.observe h) [ 0; 1; 3; 3; 8 ];
  let snap = Metrics.snapshot m in
  match List.assoc_opt "h" snap.Metrics.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some v ->
    Alcotest.(check int) "observations" 5 v.Metrics.observations;
    Alcotest.(check int) "sum" 15 v.Metrics.sum;
    Alcotest.(check (list (pair int int))) "buckets, empty ones omitted"
      [ (0, 1); (1, 1); (2, 2); (4, 1) ]
      v.Metrics.buckets

let test_series_retention () =
  let m = Metrics.create () in
  let s = Metrics.series m ~retain:3 "stale.hist" in
  let sample = [| 1; 2; 3 |] in
  Metrics.record s sample;
  (* recorded snapshots are copies: later mutation must not leak in *)
  sample.(0) <- 99;
  for i = 2 to 5 do
    Metrics.record s [| i; i; i |]
  done;
  let snap = Metrics.snapshot m in
  match Metrics.find_series snap "stale.hist" with
  | None -> Alcotest.fail "series missing from snapshot"
  | Some entries ->
    Alcotest.(check int) "only the last 3 retained" 3 (List.length entries);
    Alcotest.(check (list (array int)))
      "newest window, oldest first"
      [ [| 3; 3; 3 |]; [| 4; 4; 4 |]; [| 5; 5; 5 |] ]
      entries

(* ------------------------------------------------------------------ *)
(* Sink *)

let test_sink_stamping_and_drops () =
  let now = ref 100 in
  let s = Sink.create ~capacity:3 ~clock:(fun () -> !now) () in
  Sink.emit s (Event.Minor_begin { n = 1 });
  now := 250;
  Sink.emit s (Event.Minor_end { n = 1; promoted = 2; freed = 64 });
  Sink.emit s (Event.Gc_begin { gc = 1; state = "OBSERVE" });
  Sink.emit s (Event.Gc_end { gc = 1; state = "OBSERVE"; live_bytes = 10; reclaimed_bytes = 0 });
  Alcotest.(check int) "capacity bounds retention" 3 (Sink.length s);
  Alcotest.(check int) "dropped" 1 (Sink.dropped s);
  Alcotest.(check int) "emitted = length + dropped" 4 (Sink.emitted s);
  match Sink.events s with
  | [ a; b; c ] ->
    Alcotest.(check (list int)) "sequence numbers survive the drop"
      [ 1; 2; 3 ]
      [ a.Event.seq; b.Event.seq; c.Event.seq ];
    Alcotest.(check int) "logical timestamps, not wall time" 250 a.Event.at
  | evs -> Alcotest.fail (Printf.sprintf "expected 3 events, got %d" (List.length evs))

(* ------------------------------------------------------------------ *)
(* Exporters *)

let stamped_trace () =
  let now = ref 0 in
  let s = Sink.create ~clock:(fun () -> !now) () in
  let tick ev =
    now := !now + 10;
    Sink.emit s ev
  in
  tick (Event.Gc_begin { gc = 1; state = "PRUNE" });
  tick (Event.Phase_begin { gc = 1; phase = "mark" });
  tick (Event.Phase_end { gc = 1; phase = "mark"; work = 12 });
  tick (Event.Prune_decision
          { src_class = 3; tgt_class = 4; refs_poisoned = 2; bytes_reclaimed = 96 });
  tick (Event.Gc_end { gc = 1; state = "PRUNE"; live_bytes = 40; reclaimed_bytes = 96 });
  Sink.events s

let test_jsonl_roundtrip () =
  let events = stamped_trace () in
  let jsonl = Export.to_jsonl ~class_name:(Printf.sprintf "K%d") events in
  (match Json.validate_jsonl jsonl with
  | Ok n -> Alcotest.(check int) "one object line per event" 5 n
  | Error e -> Alcotest.fail e);
  let first = List.hd (String.split_on_char '\n' jsonl) in
  match Json.parse first with
  | Error e -> Alcotest.fail e
  | Ok v ->
    Alcotest.(check (option string)) "type tag" (Some "gc_begin")
      (Option.bind (Json.member "type" v) Json.to_string);
    Alcotest.(check (option int)) "logical timestamp" (Some 10)
      (Option.bind (Json.member "at" v) Json.to_int)

let test_chrome_trace_nesting () =
  let events = stamped_trace () in
  (match Export.check_spans events with
  | Ok tolerated -> Alcotest.(check int) "well nested" 0 tolerated
  | Error e -> Alcotest.fail e);
  let trace = Export.to_chrome_trace ~dropped:0 events in
  match Json.parse trace with
  | Error e -> Alcotest.fail e
  | Ok v -> (
    match Option.bind (Json.member "traceEvents" v) Json.to_list with
    | None -> Alcotest.fail "traceEvents missing"
    | Some items ->
      let ph e = Option.bind (Json.member "ph" e) Json.to_string in
      let begins = List.filter (fun e -> ph e = Some "B") items in
      let ends = List.filter (fun e -> ph e = Some "E") items in
      Alcotest.(check int) "two spans open (gc, mark)" 2 (List.length begins);
      Alcotest.(check int) "two spans close" 2 (List.length ends))

let test_check_spans_rejects_misnesting () =
  let mk seq ev = { Event.seq; at = seq; ev } in
  let overlapping =
    [
      mk 0 (Event.Gc_begin { gc = 1; state = "OBSERVE" });
      mk 1 (Event.Phase_begin { gc = 1; phase = "mark" });
      mk 2 (Event.Gc_end { gc = 1; state = "OBSERVE"; live_bytes = 0; reclaimed_bytes = 0 });
      mk 3 (Event.Phase_end { gc = 1; phase = "mark"; work = 0 });
    ]
  in
  (match Export.check_spans overlapping with
  | Ok _ -> Alcotest.fail "overlapping spans must not validate"
  | Error _ -> ());
  (* a ring that dropped its oldest events starts mid-span: the orphan
     closers are tolerated only when explicitly allowed *)
  let truncated =
    [
      mk 7 (Event.Phase_end { gc = 2; phase = "sweep"; work = 5 });
      mk 8 (Event.Gc_end { gc = 2; state = "PRUNE"; live_bytes = 1; reclaimed_bytes = 2 });
    ]
  in
  (match Export.check_spans truncated with
  | Ok _ -> Alcotest.fail "orphan closers must fail by default"
  | Error _ -> ());
  match Export.check_spans ~allow_truncated_head:true truncated with
  | Ok tolerated -> Alcotest.(check int) "head orphans tolerated" 2 tolerated
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* VM integration: staleness series, prune audit, chaos traces *)

let test_vm_staleness_series_retention () =
  let vm = Lp_runtime.Vm.create ~heap_bytes:100_000 () in
  let statics = Lp_runtime.Vm.statics vm ~class_name:"Obs" ~n_fields:1 in
  let obj = Lp_runtime.Vm.alloc vm ~class_name:"Obs$Node" ~n_fields:1 () in
  Lp_runtime.Mutator.write_obj vm statics 0 obj;
  for _ = 1 to 20 do
    Lp_runtime.Vm.run_gc vm
  done;
  let snap = Lp_runtime.Vm.metrics_snapshot vm in
  match Lp_obs.Metrics.find_series snap "gc.staleness_histogram" with
  | None -> Alcotest.fail "staleness series missing"
  | Some entries ->
    Alcotest.(check int) "last 16 collections retained" 16
      (List.length entries);
    List.iter
      (fun h ->
        Alcotest.(check int) "one bucket per staleness level"
          (Lp_heap.Header.max_stale + 1)
          (Array.length h);
        Alcotest.(check bool) "histogram counts the live objects" true
          (Array.fold_left ( + ) 0 h >= 2))
      entries

let test_prune_audit_matches_metrics () =
  (* The acceptance invariant: on ListLeak, the reclaimed-bytes carried
     by prune-decision events must sum to the prune.bytes_reclaimed
     counter exactly. *)
  let captured = ref None in
  let result =
    Lp_harness.Driver.run ~max_iterations:3_000
      ~prepare_vm:(fun vm ->
        ignore (Lp_runtime.Vm.enable_trace ~capacity:262_144 vm);
        captured := Some vm)
      Lp_workloads.List_leak.workload
  in
  let vm = Option.get !captured in
  let sink = Option.get (Lp_runtime.Vm.sink vm) in
  Alcotest.(check int) "complete trace (no drops)" 0 (Lp_obs.Sink.dropped sink);
  let events = Lp_runtime.Vm.trace_events vm in
  Alcotest.(check bool) "trace is non-trivial" true (List.length events > 100);
  (match Export.check_spans events with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("trace spans: " ^ e));
  let decisions, event_bytes =
    List.fold_left
      (fun (n, bytes) st ->
        match st.Event.ev with
        | Event.Prune_decision { bytes_reclaimed; _ } ->
          (n + 1, bytes + bytes_reclaimed)
        | _ -> (n, bytes))
      (0, 0) events
  in
  Alcotest.(check bool) "the leak was pruned" true (decisions > 0);
  let snap = Lp_runtime.Vm.metrics_snapshot vm in
  Alcotest.(check (option int)) "audit: event bytes = counter"
    (Some event_bytes)
    (Lp_obs.Metrics.find_counter snap "prune.bytes_reclaimed");
  Alcotest.(check (option int)) "decision count matches too"
    (Some decisions)
    (Lp_obs.Metrics.find_counter snap "prune.decisions");
  Alcotest.(check bool) "driver saw reclamation as well" true
    (result.Lp_harness.Driver.bytes_reclaimed > 0)

let test_chaos_trace_roundtrip () =
  let report = Lp_harness.Chaos.run_one ~trace_capacity:65_536 ~seed:7 () in
  Alcotest.(check bool) "trace captured" true (report.Lp_harness.Chaos.trace <> []);
  let dropped = report.Lp_harness.Chaos.trace_dropped in
  (match
     Export.check_spans ~allow_truncated_head:(dropped > 0)
       report.Lp_harness.Chaos.trace
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("chaos spans: " ^ e));
  let trace =
    Export.to_chrome_trace ~dropped report.Lp_harness.Chaos.trace
  in
  match Json.parse trace with
  | Error e -> Alcotest.fail ("chrome trace: " ^ e)
  | Ok v -> (
    match Option.bind (Json.member "traceEvents" v) Json.to_list with
    | None -> Alcotest.fail "traceEvents missing"
    | Some items ->
      let ph tag e = Option.bind (Json.member "ph" e) Json.to_string = Some tag in
      Alcotest.(check bool) "has duration spans" true
        (List.exists (ph "B") items && List.exists (ph "E") items))

let test_chaos_tracing_is_transparent () =
  (* Attaching a sink must observe the run, never steer it. *)
  let plain = Lp_harness.Chaos.run_one ~seed:11 () in
  let traced = Lp_harness.Chaos.run_one ~trace_capacity:65_536 ~seed:11 () in
  let strip r = { r with Lp_harness.Chaos.trace = []; trace_dropped = 0 } in
  Alcotest.(check bool) "same run, observed or not" true
    (strip traced = strip plain);
  (* and the observation itself is deterministic *)
  let again = Lp_harness.Chaos.run_one ~trace_capacity:65_536 ~seed:11 () in
  Alcotest.(check bool) "identical trace on replay" true (again = traced)

let test_aggregate_percentile () =
  Alcotest.(check int) "empty" 0 (Lp_obs.Aggregate.percentile [] ~p:99.);
  Alcotest.(check int) "singleton" 7 (Lp_obs.Aggregate.percentile [ 7 ] ~p:50.);
  let samples = [ 50; 10; 40; 20; 30 ] in
  Alcotest.(check int) "median" 30 (Lp_obs.Aggregate.percentile samples ~p:50.);
  Alcotest.(check int) "max at p100" 50
    (Lp_obs.Aggregate.percentile samples ~p:100.);
  Alcotest.(check int) "p99 of 5 samples is the max" 50
    (Lp_obs.Aggregate.percentile samples ~p:99.);
  Alcotest.(check int) "p20 nearest rank" 10
    (Lp_obs.Aggregate.percentile samples ~p:20.);
  (* rank clamps to the first sample: p0 is the minimum, never index -1 *)
  Alcotest.(check int) "p0 clamps to the minimum" 10
    (Lp_obs.Aggregate.percentile samples ~p:0.);
  (* a singleton answers every percentile with its only sample *)
  Alcotest.(check int) "singleton p99" 7
    (Lp_obs.Aggregate.percentile [ 7 ] ~p:99.);
  Alcotest.(check int) "singleton p0" 7 (Lp_obs.Aggregate.percentile [ 7 ] ~p:0.);
  (* even sample count: nearest-rank p50 is the lower middle *)
  Alcotest.(check int) "even-count median" 20
    (Lp_obs.Aggregate.percentile [ 40; 20; 30; 10 ] ~p:50.);
  (* p99 under and at 100 samples: ceil(0.99 n) only drops below the
     maximum once a 100th sample exists *)
  let ascending n = List.init n (fun i -> i + 1) in
  Alcotest.(check int) "p99 of 99 samples is still the max" 99
    (Lp_obs.Aggregate.percentile (ascending 99) ~p:99.);
  Alcotest.(check int) "p99 of 100 samples is the 99th" 99
    (Lp_obs.Aggregate.percentile (ascending 100) ~p:99.)

let suite =
  ( "obs",
    [
      Alcotest.test_case "ring: partial fill" `Quick test_ring_partial_fill;
      Alcotest.test_case "ring: wraparound drops oldest" `Quick
        test_ring_wraparound;
      Alcotest.test_case "ring: clear" `Quick test_ring_clear;
      Alcotest.test_case "metrics: counters and gauges" `Quick
        test_metrics_counters_gauges;
      Alcotest.test_case "metrics: log2 bucketing" `Quick test_metrics_bucket_of;
      Alcotest.test_case "metrics: histogram view" `Quick test_metrics_histogram;
      Alcotest.test_case "metrics: series retention" `Quick
        test_series_retention;
      Alcotest.test_case "sink: stamping and drop accounting" `Quick
        test_sink_stamping_and_drops;
      Alcotest.test_case "export: jsonl round-trip" `Quick test_jsonl_roundtrip;
      Alcotest.test_case "export: chrome trace nesting" `Quick
        test_chrome_trace_nesting;
      Alcotest.test_case "export: misnesting rejected" `Quick
        test_check_spans_rejects_misnesting;
      Alcotest.test_case "vm: staleness series retained" `Quick
        test_vm_staleness_series_retention;
      Alcotest.test_case "audit: prune events match metrics" `Quick
        test_prune_audit_matches_metrics;
      Alcotest.test_case "chaos: chrome trace round-trip" `Quick
        test_chaos_trace_roundtrip;
      Alcotest.test_case "chaos: tracing is transparent" `Quick
        test_chaos_tracing_is_transparent;
      Alcotest.test_case "aggregate: nearest-rank percentile" `Quick
        test_aggregate_percentile;
    ] )
