(* Static liveness oracle: analysis verdicts, fixpoint determinism,
   SELECT prior composition, and dynamic conformance (DESIGN.md §14). *)

open Lp_liveness

let verdict_t =
  Alcotest.testable
    (fun ppf v -> Liveness.pp_verdict ppf v)
    (fun a b -> a = b)

let analyze_workload (w : Lp_workloads.Workload.t) =
  match w.Lp_workloads.Workload.bytecode with
  | Some methods -> Liveness.analyze methods
  | None -> Alcotest.failf "%s publishes no bytecode" w.Lp_workloads.Workload.name

let check_verdicts w expected =
  let oracle = analyze_workload w in
  List.iter
    (fun (class_name, field, want) ->
      Alcotest.check verdict_t
        (Printf.sprintf "%s.%s" class_name field)
        want
        (Liveness.verdict oracle ~class_name ~field))
    expected

(* ListLeak is the paper's pure leak: node payloads and links are
   written, never loaded, so the whole chain is dead the moment it is
   appended; only the static head is read (one deref to re-find the
   tail). *)
let test_list_leak_verdicts () =
  check_verdicts Lp_workloads.List_leak.workload
    [
      ("ListLeak$Node", "0", Liveness.Dead_beyond 0);
      ("ListLeak$Node", "1", Liveness.Dead_beyond 0);
      ("ListLeak$Statics", "0", Liveness.Dead_beyond 1);
      (* never mentioned by the program: the oracle stays silent *)
      ("ListLeak$Node", "7", Liveness.Unanalyzed);
      ("NoSuchClass", "0", Liveness.Unanalyzed);
    ]

let test_swap_leak_verdicts () =
  check_verdicts Lp_workloads.Swap_leak.workload
    [
      ("SwapLeak$Session", "0", Liveness.Dead_beyond 0);
      ("SwapLeak$Session", "1", Liveness.Dead_beyond 0);
      ("SwapLeak$Statics", "0", Liveness.Dead_beyond 1);
      ("SwapLeak$Statics", "1", Liveness.Dead_beyond 1);
    ]

(* PhasedCache is the workload the oracle must NOT boost: the cache is
   genuinely revisited (bounded traversal chains through table ->
   entry -> key), so everything reachable from the statics carries a
   positive deref bound and must be vetoed even when stale. Only the
   leak chain is proven dead. *)
let test_phased_cache_verdicts () =
  check_verdicts Lp_workloads.Phased_cache.workload
    [
      ("PhasedCache$Entry", "0", Liveness.Dead_beyond 2);
      ("PhasedCache$Table", "[]", Liveness.Dead_beyond 3);
      ("PhasedCache$Statics", "0", Liveness.Dead_beyond 4);
      ("PhasedCache$Statics", "1", Liveness.Dead_beyond 1);
      ("java.lang.String", "0", Liveness.Dead_beyond 1);
      ("PhasedCache$LeakNode", "0", Liveness.Dead_beyond 0);
      ("PhasedCache$LeakNode", "1", Liveness.Dead_beyond 0);
    ]

(* AdaptonHull's memo entries form a value-flow cycle (memo.next joins
   back into the traversal), so the analysis must give up with
   Maybe_live there while still proving the trace log dead. *)
let test_adapton_hull_verdicts () =
  check_verdicts Lp_workloads.Adapton_hull.workload
    [
      ("AdaptonHull$Memo", "0", Liveness.Maybe_live);
      ("AdaptonHull$Memo", "1", Liveness.Dead_beyond 1);
      ("AdaptonHull$Statics", "0", Liveness.Maybe_live);
      ("AdaptonHull$Statics", "1", Liveness.Dead_beyond 1);
      ("AdaptonHull$Trace", "0", Liveness.Dead_beyond 0);
      ("AdaptonHull$Trace", "1", Liveness.Dead_beyond 0);
    ]

(* The least fixpoint cannot depend on worklist processing order:
   permuting the worklist with every seed must reproduce the exact
   verdict list. *)
let test_fixpoint_determinism () =
  List.iter
    (fun (w : Lp_workloads.Workload.t) ->
      match w.Lp_workloads.Workload.bytecode with
      | None -> ()
      | Some methods ->
        let baseline = Liveness.verdicts (Liveness.analyze methods) in
        for seed = 1 to 7 do
          let permuted =
            Liveness.verdicts (Liveness.analyze ~worklist_seed:seed methods)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: seed %d reaches the same fixpoint"
               w.Lp_workloads.Workload.name seed)
            true
            (permuted = baseline)
        done)
    [
      Lp_workloads.List_leak.workload;
      Lp_workloads.Swap_leak.workload;
      Lp_workloads.Phased_cache.workload;
      Lp_workloads.Adapton_hull.workload;
    ]

let test_config_validation () =
  let ok boost =
    match
      Lp_core.Config.validate
        { Lp_core.Config.default with liveness_boost = boost }
    with
    | Ok _ -> true
    | Error _ -> false
  in
  Alcotest.(check bool) "boost 0 valid" true (ok 0);
  Alcotest.(check bool) "boost 6 valid" true (ok 6);
  Alcotest.(check bool) "boost -1 rejected" false (ok (-1));
  Alcotest.(check bool) "boost 7 rejected" false (ok 7)

(* SELECT prior composition, at the Selection layer (same harness as
   test_selection.ml). Default config: min_candidate_stale = 2,
   stale_slack = 2, liveness_boost = 1. *)

let store = Lp_heap.Store.create ~limit_bytes:1_000_000

let obj ~class_id ~stale () =
  let o =
    Lp_heap.Store.alloc store ~class_id ~n_fields:1 ~scalar_bytes:0
      ~finalizable:false
  in
  Lp_heap.Store.set_stale store o.Lp_heap.Heap_obj.id stale;
  o

let edge src (tgt : Lp_heap.Heap_obj.t) =
  { Lp_heap.Collector.src; field = 0; tgt = tgt.Lp_heap.Heap_obj.id }
let config = Lp_core.Config.default

let verdict =
  Alcotest.of_pp (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | Lp_core.Selection.Qualifies -> "Qualifies"
        | Lp_core.Selection.Rejected -> "Rejected"
        | Lp_core.Selection.Vetoed -> "Vetoed"
        | Lp_core.Selection.Boosted -> "Boosted"))

let test_prior_veto () =
  let table = Lp_core.Edge_table.create () in
  let e = edge (obj ~class_id:0 ~stale:0 ()) (obj ~class_id:1 ~stale:7 ()) in
  let veto _ _ = Lp_core.Selection.Veto in
  Alcotest.check verdict "qualifies without a prior" Lp_core.Selection.Qualifies
    (Lp_core.Selection.judge store config table e);
  Alcotest.check verdict "Veto blocks even very stale references"
    Lp_core.Selection.Vetoed
    (Lp_core.Selection.judge ~prior:veto store config table e);
  (* the SELECT filter traces a vetoed edge and hands the veto to its
     audit once *)
  let audited = ref [] in
  let action =
    Lp_core.Selection.select_filter_default ~prior:veto
      ~audit:(fun _ v -> audited := v :: !audited)
      store config table e
  in
  Alcotest.(check bool) "vetoed edge traced" true
    (action = Lp_heap.Collector.Trace);
  Alcotest.(check (list verdict)) "veto audited once"
    [ Lp_core.Selection.Vetoed ] !audited

let test_prior_boost () =
  let table = Lp_core.Edge_table.create () in
  (* the boost floor is max 1 (min_candidate_stale - liveness_boost);
     under the default config the maxstaleuse-plus-slack guard (0 + 2
     for a never-used edge type) already sits at the neutral floor, so
     observe the boost under a stricter candidate threshold *)
  let strict =
    Lp_core.Config.make ~min_candidate_stale:4 ~liveness_boost:2 ()
  in
  let boost _ _ = Lp_core.Selection.Boost in
  let e = edge (obj ~class_id:0 ~stale:0 ()) (obj ~class_id:1 ~stale:2 ()) in
  Alcotest.check verdict "stale 2 below the neutral threshold of 4"
    Lp_core.Selection.Rejected
    (Lp_core.Selection.judge store strict table e);
  Alcotest.check verdict
    "Boost lowers the floor to max 1 (min_candidate_stale - boost)"
    Lp_core.Selection.Boosted
    (Lp_core.Selection.judge ~prior:boost store strict table e);
  (* dynamic protection wins over any static boost: a recorded stale
     use keeps maxstaleuse + slack in force under Boost *)
  Lp_core.Edge_table.record_stale_use table ~src:0 ~tgt:1 ~stale:3;
  let guarded =
    edge (obj ~class_id:0 ~stale:0 ()) (obj ~class_id:1 ~stale:4 ())
  in
  Alcotest.check verdict "Boost cannot override maxstaleuse + slack"
    Lp_core.Selection.Rejected
    (Lp_core.Selection.judge ~prior:boost store config table guarded)

let test_prior_neutral () =
  let table = Lp_core.Edge_table.create () in
  let probe stale =
    let e =
      edge (obj ~class_id:0 ~stale:0 ()) (obj ~class_id:1 ~stale ())
    in
    Alcotest.check verdict
      (Printf.sprintf "Neutral matches no-prior at stale %d" stale)
      (Lp_core.Selection.judge store config table e)
      (Lp_core.Selection.judge
         ~prior:(fun _ _ -> Lp_core.Selection.Neutral)
         store config table e)
  in
  List.iter probe [ 0; 1; 2; 5 ]

(* The prior is judged once per edge: across every collection of a
   boosted guided ListLeak run (SELECT and PRUNE collections, vetoes
   and boosts), the collection's calls to the installed prior never
   exceed the fields it scanned. Calls from the read barrier's
   dead-read probe come between collections and are not counted: a
   call counts when the collection counter has moved past the last
   collection the listener saw. *)
let test_prior_once_per_scanned_field () =
  let w = Lp_workloads.List_leak.workload in
  let vm =
    Lp_runtime.Vm.create
      ~config:(Lp_core.Config.make ~min_candidate_stale:3 ~liveness_boost:2 ())
      ~resurrection:true ~heap_bytes:w.Lp_workloads.Workload.default_heap_bytes
      ()
  in
  let prior =
    Lp_runtime.Liveness_oracle.prior vm
      ~bytecode:(Option.get w.Lp_workloads.Workload.bytecode)
      ~field_map:w.Lp_workloads.Workload.field_map
  in
  let stats = Lp_runtime.Vm.stats vm in
  let listened = ref 0 and calls = ref 0 and total = ref 0 in
  let controller = Lp_runtime.Vm.controller vm in
  Lp_core.Controller.set_liveness_prior controller (fun class_id field ->
      if stats.Lp_heap.Gc_stats.collections > !listened then begin
        incr calls;
        incr total
      end;
      prior class_id field);
  let fields = ref stats.Lp_heap.Gc_stats.fields_scanned in
  let over = ref [] in
  Lp_runtime.Vm.set_gc_listener vm
    (Some
       (fun r ->
         let scanned = stats.Lp_heap.Gc_stats.fields_scanned - !fields in
         if !calls > scanned then
           over := (r.Lp_runtime.Vm.gc_number, !calls, scanned) :: !over;
         listened := stats.Lp_heap.Gc_stats.collections;
         calls := 0;
         fields := stats.Lp_heap.Gc_stats.fields_scanned));
  let iterate = w.Lp_workloads.Workload.prepare vm in
  for _ = 1 to 2_000 do
    iterate ()
  done;
  Alcotest.(check (list (triple int int int)))
    "(collection, prior calls, fields scanned) over the bound" [] !over;
  Alcotest.(check bool) "the prior was asked" true (!total > 0);
  Alcotest.(check bool) "boosts counted" true
    (Lp_core.Controller.liveness_boosts controller > 0)

(* Positive control for the conformance probe: a program that writes a
   slot the oracle proved Dead_beyond 0 and then reads it back must be
   caught by Controller.liveness_dead_reads via the cold read
   barrier. *)
let test_dead_read_probe () =
  let bytecode =
    let open Lp_jit.Bytecode in
    [
      {
        name = "Probe.main";
        n_locals = 1;
        code =
          [|
            New_object "Probe$T";
            Store_local 0;
            Load_local 0;
            New_object "Probe$U";
            Put_field "0";
            Return;
          |];
      };
    ]
  in
  let vm =
    (* a low observe threshold pushes the controller out of Inactive,
       since only Observe-and-later collections set untouched bits *)
    Lp_runtime.Vm.create
      ~config:(Lp_core.Config.make ~observe_threshold:0.01 ())
      ~heap_bytes:(64 * 1024) ()
  in
  Lp_runtime.Liveness_oracle.install Lp_core.Config.Liveness_guide vm
    ~bytecode:(Some bytecode) ~field_map:[ ("Probe$T", "0", [ 0 ]) ];
  let src = Lp_runtime.Vm.alloc vm ~class_name:"Probe$T" ~n_fields:1 () in
  let tgt = Lp_runtime.Vm.alloc vm ~class_name:"Probe$U" ~n_fields:1 () in
  let filler =
    Lp_runtime.Vm.alloc vm ~class_name:"Probe$Filler" ~scalar_bytes:4096
      ~n_fields:0 ()
  in
  Lp_runtime.Vm.with_frame vm ~n_slots:3 (fun frame ->
      Lp_heap.Roots.set_slot frame 0 src.Lp_heap.Heap_obj.id;
      Lp_heap.Roots.set_slot frame 1 tgt.Lp_heap.Heap_obj.id;
      Lp_heap.Roots.set_slot frame 2 filler.Lp_heap.Heap_obj.id;
      Lp_runtime.Mutator.write_obj vm src 0 tgt;
      (* first collection moves Inactive -> Observe; the second runs in
         Observe and sets the untouched bit, arming the cold read path *)
      Lp_runtime.Vm.run_gc vm;
      Lp_runtime.Vm.run_gc vm;
      ignore (Lp_runtime.Mutator.read vm src 0);
      let controller = Lp_runtime.Vm.controller vm in
      Alcotest.(check int) "contradicting read counted" 1
        (Lp_core.Controller.liveness_dead_reads controller);
      (* second read is warm (untouched bit cleared): no double count *)
      ignore (Lp_runtime.Mutator.read vm src 0);
      Alcotest.(check int) "warm reads not counted" 1
        (Lp_core.Controller.liveness_dead_reads controller))

(* Veto-path integration: with resurrection on, unguided PhasedCache /
   AdaptonHull mispredict (prune entries the next phase revisits);
   the guided runs must veto those selections and mispredict zero
   times, deterministically. *)
let result_key (r : Lp_harness.Driver.result) =
  ( r.Lp_harness.Driver.iterations,
    r.Lp_harness.Driver.gc_count,
    r.Lp_harness.Driver.mispredictions,
    r.Lp_harness.Driver.references_poisoned,
    r.Lp_harness.Driver.bytes_reclaimed,
    r.Lp_harness.Driver.liveness_vetoes,
    r.Lp_harness.Driver.liveness_boosts )

let run_mode mode w =
  Lp_harness.Driver.run ~liveness:mode ~resurrection:true ~max_iterations:200 w

let check_veto_path w =
  let name = w.Lp_workloads.Workload.name in
  let off = run_mode Lp_core.Config.Liveness_off w in
  let guide = run_mode Lp_core.Config.Liveness_guide w in
  Alcotest.(check bool)
    (name ^ ": unguided run mispredicts")
    true
    (off.Lp_harness.Driver.mispredictions > 0);
  Alcotest.(check int) (name ^ ": guided run never mispredicts") 0
    guide.Lp_harness.Driver.mispredictions;
  Alcotest.(check bool)
    (name ^ ": the veto path actually fired")
    true
    (guide.Lp_harness.Driver.liveness_vetoes > 0);
  let again = run_mode Lp_core.Config.Liveness_guide w in
  Alcotest.(check bool) (name ^ ": guided run deterministic") true
    (result_key guide = result_key again)

let test_veto_path_phased_cache () =
  check_veto_path Lp_workloads.Phased_cache.workload

let test_veto_path_adapton_hull () =
  check_veto_path Lp_workloads.Adapton_hull.workload

(* On a pure leak the prior only confirms what staleness already
   found: the guided run must behave exactly like the unguided one. *)
let test_boost_is_benign_on_list_leak () =
  let off = run_mode Lp_core.Config.Liveness_off Lp_workloads.List_leak.workload in
  let guide =
    run_mode Lp_core.Config.Liveness_guide Lp_workloads.List_leak.workload
  in
  Alcotest.(check int) "same iterations" off.Lp_harness.Driver.iterations
    guide.Lp_harness.Driver.iterations;
  Alcotest.(check int) "no mispredictions either way" 0
    (off.Lp_harness.Driver.mispredictions
    + guide.Lp_harness.Driver.mispredictions)

(* Conformance sweep: across 25 guided chaos seeds (fault injection,
   resurrection, deliberate pruned-reference pokes) the oracle's
   Dead_beyond 0 slots must never be dynamically read, and guiding
   must not break the chaos contract. Off mode must stay
   byte-identical to a build without the oracle, and guided runs must
   reproduce exactly. *)
let test_chaos_conformance () =
  let reports =
    Lp_harness.Chaos.run_seeds ~liveness:Lp_core.Config.Liveness_guide
      ~seeds:25 ()
  in
  Alcotest.(check int) "25 seeds ran" 25 (List.length reports);
  List.iter
    (fun (r : Lp_harness.Chaos.report) ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: no violation or crash" r.Lp_harness.Chaos.seed)
        false
        (Lp_harness.Chaos.failed r);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no dead-verdict reads" r.Lp_harness.Chaos.seed)
        0 r.Lp_harness.Chaos.liveness_dead_reads)
    reports

let test_chaos_off_identical_and_guide_deterministic () =
  List.iter
    (fun seed ->
      let plain = Lp_harness.Chaos.run_one ~seed () in
      let off =
        Lp_harness.Chaos.run_one ~liveness:Lp_core.Config.Liveness_off ~seed ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: off mode is byte-identical" seed)
        true (plain = off);
      let g1 =
        Lp_harness.Chaos.run_one ~liveness:Lp_core.Config.Liveness_guide ~seed
          ()
      in
      let g2 =
        Lp_harness.Chaos.run_one ~liveness:Lp_core.Config.Liveness_guide ~seed
          ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: guided run reproduces" seed)
        true (g1 = g2))
    [ 1; 7; 13 ]

let suite =
  ( "liveness",
    [
      Alcotest.test_case "list-leak verdicts" `Quick test_list_leak_verdicts;
      Alcotest.test_case "swap-leak verdicts" `Quick test_swap_leak_verdicts;
      Alcotest.test_case "phased-cache verdicts" `Quick
        test_phased_cache_verdicts;
      Alcotest.test_case "adapton-hull verdicts" `Quick
        test_adapton_hull_verdicts;
      Alcotest.test_case "fixpoint determinism" `Quick
        test_fixpoint_determinism;
      Alcotest.test_case "config validation" `Quick test_config_validation;
      Alcotest.test_case "prior: veto" `Quick test_prior_veto;
      Alcotest.test_case "prior: boost" `Quick test_prior_boost;
      Alcotest.test_case "prior: neutral" `Quick test_prior_neutral;
      Alcotest.test_case "dead-read probe" `Quick test_dead_read_probe;
      Alcotest.test_case "prior: once per scanned field" `Quick
        test_prior_once_per_scanned_field;
      Alcotest.test_case "veto path: PhasedCache" `Quick
        test_veto_path_phased_cache;
      Alcotest.test_case "veto path: AdaptonHull" `Quick
        test_veto_path_adapton_hull;
      Alcotest.test_case "boost benign on ListLeak" `Quick
        test_boost_is_benign_on_list_leak;
      Alcotest.test_case "chaos conformance (25 guided seeds)" `Slow
        test_chaos_conformance;
      Alcotest.test_case "chaos off identical / guide deterministic" `Slow
        test_chaos_off_identical_and_guide_deterministic;
    ] )
