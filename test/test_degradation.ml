(* Graceful degradation in the VM slow paths: bounded retries, the
   structured-error taxonomy, and the averted-error cause chain. *)

open Lp_runtime

let leak_one vm statics =
  Vm.with_frame vm ~n_slots:1 (fun frame ->
      let node = Vm.alloc vm ~class_name:"Node" ~scalar_bytes:40 ~n_fields:1 () in
      Lp_heap.Roots.set_slot frame 0 node.Lp_heap.Heap_obj.id;
      (match Mutator.read vm statics 0 with
      | Some head -> Mutator.write_obj vm node 0 head
      | None -> ());
      Mutator.write_obj vm statics 0 node)

let test_slow_path_exhaustion_bound () =
  (* a forced SELECT state can never prune, so collections free nothing:
     the slow path must give up after its configured bound rather than
     collect forever *)
  let config =
    Lp_core.Config.make ~policy:Lp_core.Policy.Default
      ~force_state:Lp_core.State_kind.Select ~max_slow_path_attempts:3 ()
  in
  let vm = Vm.create ~config ~heap_bytes:2_000 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  (* fill the heap with a rooted chain until the first OOM *)
  (try
     for _i = 1 to 1_000 do
       leak_one vm statics
     done;
     Alcotest.fail "heap never filled"
   with Lp_core.Errors.Out_of_memory _ -> ());
  let gc_before = Vm.gc_count vm in
  (* bigger than any residual headroom, smaller than the heap (so the
     oversized fast-fail path cannot short-circuit the retries) *)
  (match Vm.alloc vm ~class_name:"X" ~scalar_bytes:200 ~n_fields:1 () with
  | _ -> Alcotest.fail "expected Out_of_memory"
  | exception Lp_core.Errors.Out_of_memory _ -> ());
  Alcotest.(check bool) "collections bounded by max_slow_path_attempts" true
    (Vm.gc_count vm - gc_before <= 3 + 1)

let test_forced_prune_throws_averted () =
  (* a forced PRUNE state with nothing selected never poisons and never
     frees; after max_unproductive_cycles such collections the deferred
     error surfaces — and the exception thrown must be the very
     exception the controller recorded when pruning engaged *)
  let config =
    Lp_core.Config.make ~policy:Lp_core.Policy.Default
      ~force_state:Lp_core.State_kind.Prune ~max_unproductive_cycles:2 ()
  in
  let vm = Vm.create ~config ~heap_bytes:2_000 () in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  match
    for _i = 1 to 10_000 do
      leak_one vm statics
    done
  with
  | () -> Alcotest.fail "expected Out_of_memory"
  | exception (Lp_core.Errors.Out_of_memory _ as e) -> (
    match Lp_core.Controller.averted_error (Vm.controller vm) with
    | Some averted ->
      Alcotest.(check bool) "thrown error is the recorded averted error" true
        (averted == e)
    | None -> Alcotest.fail "pruning engaged but no averted error recorded")

let test_pruned_access_cause_chain () =
  (* under normal pruning, the InternalError thrown on a poisoned access
     must carry the recorded averted error as its cause *)
  let vm =
    Vm.create
      ~config:(Lp_core.Config.make ~policy:Lp_core.Policy.Default ())
      ~heap_bytes:2_400 ()
  in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  (* walk a prefix of the chain each iteration: the prefix stays fresh,
     the tail goes stale and gets pruned, and shortly after a prune the
     walk reaches the poisoned boundary edge *)
  let walk_prefix () =
    let rec walk node d =
      if d < 10 then
        match Mutator.read vm node 0 with
        | Some next -> walk next (d + 1)
        | None -> ()
    in
    match Mutator.read vm statics 0 with
    | Some head -> walk head 1
    | None -> ()
  in
  match
    for _i = 1 to 10_000 do
      leak_one vm statics;
      walk_prefix ()
    done
  with
  | () -> Alcotest.fail "expected a structured error"
  | exception Lp_core.Errors.Internal_error { cause; _ } -> (
    match Lp_core.Controller.averted_error (Vm.controller vm) with
    | Some averted ->
      Alcotest.(check bool) "cause is the recorded averted error" true
        (averted == cause)
    | None -> Alcotest.fail "no averted error recorded")
  | exception (Lp_core.Errors.Out_of_memory _ as e) -> (
    match Lp_core.Controller.averted_error (Vm.controller vm) with
    | Some averted ->
      Alcotest.(check bool) "thrown error is the recorded averted error" true
        (averted == e)
    | None -> ())

let test_oversized_request_fast_fail () =
  let vm =
    Vm.create
      ~config:(Lp_core.Config.make ~policy:Lp_core.Policy.Default ())
      ~heap_bytes:2_000 ()
  in
  match Vm.alloc vm ~class_name:"Huge" ~scalar_bytes:4_000 ~n_fields:0 () with
  | _ -> Alcotest.fail "expected Out_of_memory"
  | exception Lp_core.Errors.Out_of_memory { limit_bytes; _ } ->
    Alcotest.(check int) "limit carried in the error" 2_000 limit_bytes;
    (* larger than the whole heap: no point burning retry collections *)
    Alcotest.(check bool) "failed fast (at most one collection)" true
      (Vm.gc_count vm <= 1)

let test_config_validation () =
  (match Lp_core.Config.validate (Lp_core.Config.make ~max_slow_path_attempts:0 ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "max_slow_path_attempts = 0 must be rejected");
  (match Lp_core.Config.validate (Lp_core.Config.make ~disk_retry_attempts:(-1) ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative disk_retry_attempts must be rejected");
  (* the collector's two numbers and the packet size: the range
     messages every subcommand reports *)
  List.iter
    (fun (config, expected) ->
      Alcotest.(check (result unit string))
        expected (Error expected)
        (Result.map ignore (Lp_core.Config.validate config)))
    [
      (Lp_core.Config.make ~gc_domains:0 (), "gc_domains must be in [1, 64]");
      (Lp_core.Config.make ~gc_domains:65 (), "gc_domains must be in [1, 64]");
      (Lp_core.Config.make ~gc_slice_budget:0 (), "gc_slice_budget must be >= 1");
      (Lp_core.Config.make ~gc_packet_size:0 (), "gc_packet_size must be >= 1");
    ];
  (* every combination of the two numbers is valid, with or without a
     pause SLO *)
  List.iter
    (fun (gc_domains, gc_slice_budget) ->
      List.iter
        (fun pause_slo_p99_ns ->
          match
            Lp_core.Config.validate
              (Lp_core.Config.make ~gc_domains ?gc_slice_budget
                 ?pause_slo_p99_ns ())
          with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "valid engine choice rejected: %s" msg)
        [ None; Some 100_000 ])
    [ (1, None); (64, None); (1, Some 1); (2, Some 32) ];
  Alcotest.check_raises "Vm.create rejects 65 domains before spawning any"
    (Invalid_argument "Vm.create: gc_domains must be in [1, 64]") (fun () ->
      ignore
        (Vm.create ~config:(Lp_core.Config.make ~gc_domains:65 ())
           ~heap_bytes:1_000 ()));
  Alcotest.(check int) "no domain spawned" 0
    (Lp_par.Domain_pool.active_count ());
  try
    ignore
      (Vm.create
         ~config:(Lp_core.Config.make ~max_slow_path_attempts:0 ())
         ~heap_bytes:1_000 ());
    Alcotest.fail "Vm.create accepted an invalid config"
  with Invalid_argument _ -> ()

let disk_vm plan =
  Vm.create
    ~config:
      (Lp_core.Config.make ~policy:Lp_core.Policy.Default
         ~force_state:Lp_core.State_kind.Observe ())
    ~disk:(Diskswap.default_config ~disk_limit_bytes:100_000)
    ~fault:plan ~heap_bytes:4_000 ()

let test_disk_transient_retry () =
  let plan =
    Lp_fault.Fault_plan.make
      [
        {
          Lp_fault.Fault_plan.site = Lp_fault.Fault_plan.Disk;
          fault = Lp_fault.Fault_plan.Disk_failure;
          at = 1;
          repeat = false;
        };
      ]
  in
  let vm = disk_vm plan in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  leak_one vm statics;
  (* the first post-collection disk operation fails; the bounded retry
     re-collects and succeeds in degraded mode *)
  Vm.run_gc vm;
  Alcotest.(check int) "the transient fault fired once" 1
    (Lp_fault.Fault_plan.fired_count plan);
  Alcotest.(check bool) "a degraded retry collection ran" true
    (Vm.gc_count vm >= 2)

let test_disk_permanent_failure () =
  let plan =
    Lp_fault.Fault_plan.make
      [
        {
          Lp_fault.Fault_plan.site = Lp_fault.Fault_plan.Disk;
          fault = Lp_fault.Fault_plan.Disk_failure;
          at = 1;
          repeat = true;
        };
      ]
  in
  let vm = disk_vm plan in
  let statics = Vm.statics vm ~class_name:"S" ~n_fields:1 in
  leak_one vm statics;
  match Vm.run_gc vm with
  | () -> Alcotest.fail "expected Disk_exhausted"
  | exception Lp_core.Errors.Disk_exhausted { retries; _ } ->
    Alcotest.(check int) "gave up after the configured retry budget"
      (Lp_core.Controller.config (Vm.controller vm)).Lp_core.Config.disk_retry_attempts
      retries

let suite =
  ( "degradation",
    [
      Alcotest.test_case "slow-path exhaustion is bounded" `Quick
        test_slow_path_exhaustion_bound;
      Alcotest.test_case "forced prune throws the averted error" `Quick
        test_forced_prune_throws_averted;
      Alcotest.test_case "pruned-access cause chain" `Quick
        test_pruned_access_cause_chain;
      Alcotest.test_case "oversized request fails fast" `Quick
        test_oversized_request_fast_fail;
      Alcotest.test_case "config validation" `Quick test_config_validation;
      Alcotest.test_case "transient disk failure is retried" `Quick
        test_disk_transient_retry;
      Alcotest.test_case "permanent disk failure surfaces" `Quick
        test_disk_permanent_failure;
    ] )
