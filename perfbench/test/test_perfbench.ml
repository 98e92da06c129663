(* Tests of the benchmark itself: its generators are deterministic for a
   seed, its timing wrappers are transparent, and the metric names it
   prints are the ones BENCHMARK.json declares. *)

open Perfbench
open Lp_runtime

(* Runs [n] iterations of a generated program on a fresh VM and returns
   everything a heap outcome is made of. *)
let outcome ?(resurrection = false) ?disk (w : Lp_workloads.Workload.t) n =
  let vm =
    Vm.create ~resurrection ?disk ~heap_bytes:w.Lp_workloads.Workload.default_heap_bytes ()
  in
  let iterate = w.Lp_workloads.Workload.prepare vm in
  for _ = 1 to n do
    iterate ()
  done;
  let st = Vm.stats vm in
  let o =
    ( Vm.gc_count vm,
      st.Lp_heap.Gc_stats.bytes_reclaimed,
      st.Lp_heap.Gc_stats.references_poisoned,
      st.Lp_heap.Gc_stats.resurrections,
      Vm.used_bytes vm,
      Vm.cycles vm )
  in
  Vm.shutdown vm;
  o

let programs =
  [
    ("leak", (fun seed -> Gen.leak ~seed), 3_000, false);
    ("pool", (fun seed -> Gen.pool ~seed), 200, false);
    ("reread", (fun seed -> Gen.reread ~seed), 200, true);
  ]

let run_program (_, make, n, resurrection) seed =
  let w = make seed in
  let disk =
    if resurrection then
      Some (Diskswap.default_config ~disk_limit_bytes:w.Lp_workloads.Workload.default_heap_bytes)
    else None
  in
  outcome ~resurrection ?disk w n

let test_generators_deterministic () =
  List.iter
    (fun ((name, _, _, _) as p) ->
      Alcotest.(check bool)
        (name ^ ": same seed, same heap outcome")
        true
        (run_program p 7 = run_program p 7);
      Alcotest.(check bool)
        (name ^ ": another seed, another outcome")
        true
        (run_program p 7 <> run_program p 8))
    programs

let test_streams () =
  let draw seed tag =
    let r = Gen.stream ~seed ~tag in
    List.init 16 (fun _ -> Lp_workloads.Rand.next r)
  in
  Alcotest.(check (list int)) "same (seed, tag)" (draw 1 1) (draw 1 1);
  Alcotest.(check bool) "adjacent seeds differ" true (draw 1 1 <> draw 2 1);
  Alcotest.(check bool) "tags differ" true (draw 1 1 <> draw 1 2)

let test_reread_resurrects () =
  let _, _, poisoned, resurrections, _, _ = run_program (List.nth programs 2) 1 in
  Alcotest.(check bool) "pruned something" true (poisoned > 0);
  Alcotest.(check bool) "read pruned data again" true (resurrections > 0)

(* A traced run's third unit is traced and its first two are not; the
   run is correct only if all three fingerprints agree. *)
let test_wrappers_transparent () =
  List.iter
    (fun workload ->
      let fingerprint () =
        let o = Runs.run ~workload ~seed:3 ~units:3 ~trace:true in
        Alcotest.(check bool) (workload ^ ": traced = untraced") true o.Runs.correct;
        List.assoc "fingerprint" o.Runs.info
      in
      Alcotest.(check string) (workload ^ ": repeatable") (fingerprint ()) (fingerprint ()))
    Runs.workloads

let test_tail () =
  let a n = Array.init n (fun i -> i + 1) in
  Alcotest.(check (pair (float 0.) int)) "20 samples: median" (50., 10) (Stats.tail (a 20));
  Alcotest.(check (pair (float 0.) int)) "200 samples: p90" (90., 180) (Stats.tail (a 200));
  Alcotest.(check (pair (float 0.) int)) "5000 samples: p99" (99., 4950) (Stats.tail (a 5000));
  Alcotest.(check (pair (float 0.) int)) "20000 samples: p99.9" (99.9, 19980) (Stats.tail (a 20000));
  Alcotest.(check (float 1e-9)) "central mean: ranks 45..55" 50. (Stats.central_mean (a 100))

let test_json_string () =
  let s = "fp \"x\" \\ tab\t end" in
  match Lp_obs.Json.parse (Runs.json_string s) with
  | Ok (Lp_obs.Json.String back) -> Alcotest.(check string) "round trip" s back
  | _ -> Alcotest.fail "not a JSON string"

let names key =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Lp_obs.Json.parse text with
  | Error e -> Alcotest.fail e
  | Ok v -> (
    match Option.bind (Lp_obs.Json.member key v) Lp_obs.Json.to_list with
    | None -> Alcotest.fail ("no list " ^ key)
    | Some l ->
      List.map
        (fun m ->
          Option.get (Option.bind (Lp_obs.Json.member "name" m) Lp_obs.Json.to_string))
        l)

let test_declared_names () =
  Alcotest.(check (list string)) "workloads" Runs.workloads (names "workloads");
  Alcotest.(check (list string)) "end_to_end" Runs.end_to_end_names (names "end_to_end");
  Alcotest.(check (list string)) "per_layer" Runs.per_layer_names (names "per_layer")

let test_outputs_named () =
  let check trace expected =
    let o = Runs.run ~workload:"leak-steady" ~seed:1 ~units:3 ~trace in
    Alcotest.(check bool) "correct" true o.Runs.correct;
    Alcotest.(check (list string))
      "metric names"
      expected
      (List.map (fun (m : Runs.metric) -> m.Runs.name) o.Runs.metrics);
    List.iter
      (fun (m : Runs.metric) ->
        Alcotest.(check bool) (m.Runs.name ^ " finite") true (Float.is_finite m.Runs.value))
      o.Runs.metrics
  in
  check false Runs.end_to_end_names;
  check true Runs.per_layer_names

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_generators_deterministic;
          Alcotest.test_case "seed streams" `Quick test_streams;
          Alcotest.test_case "reread resurrects" `Quick test_reread_resurrects;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "wrappers are transparent" `Slow test_wrappers_transparent;
          Alcotest.test_case "metrics match BENCHMARK.json" `Quick test_declared_names;
          Alcotest.test_case "outputs carry every metric" `Slow test_outputs_named;
        ] );
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "JSON strings" `Quick test_json_string;
        ] );
    ]
