(* Fleet mode: multi-tenant scheduling, per-tenant fault isolation,
   admission control, and guaranteed teardown. *)

open Lp_fleet

let spec ?(force_safe = false) ~id () =
  {
    Tenant.id;
    name = Printf.sprintf "t%d" id;
    workload = Lp_workloads.List_leak.workload;
    heap_bytes = 20_000;
    quota_bytes = 20_000;
    rate_per_mille = 2_000;
    policy = Lp_core.Policy.Default;
    force_safe;
    resurrection = true;
    liveness = Lp_core.Config.Liveness_off;
    pause_slo_p99_ns = None;
    gc_packet_size = None;
  }

let find_tenant report id =
  List.find (fun (t : Fleet.tenant_report) -> t.Fleet.tenant = id)
    report.Fleet.tenant_reports

(* Same seed, same specs, same schedule: the deterministic view must be
   bit-identical — including with fleet chaos on, whose plan is a pure
   function of the seed. *)
let test_determinism () =
  let opts =
    { (Fleet.default_options ~seed:7 ~rounds:40 ()) with
      Fleet.chaos = true
    }
  in
  let specs () = [ spec ~id:0 (); spec ~id:1 (); spec ~id:2 () ] in
  let a = Fleet.run opts (specs ()) in
  let b = Fleet.run opts (specs ()) in
  Alcotest.(check string)
    "identical deterministic views"
    (Fleet.deterministic_view a) (Fleet.deterministic_view b)

(* The ISSUE's isolation property: with one tenant pinned in SAFE mode
   and one tenant killed/restarted by scripted faults, the healthy
   tenants' reports are bit-identical to a run where the faulty tenants
   never existed — across 25 fixed seeds. *)
let test_isolation_oracle () =
  for seed = 1 to 25 do
    let base = Fleet.default_options ~seed ~rounds:40 () in
    let with_faulty =
      Fleet.run
        { base with Fleet.kills = [ (5, 2); (18, 2) ] }
        [ spec ~id:0 (); spec ~force_safe:true ~id:1 (); spec ~id:2 ();
          spec ~id:3 () ]
    in
    let healthy_only = Fleet.run base [ spec ~id:0 (); spec ~id:3 () ] in
    List.iter
      (fun id ->
        let a = find_tenant with_faulty id in
        let b = find_tenant healthy_only id in
        if a <> b then
          Alcotest.failf
            "seed %d tenant %d diverged with faulty neighbours:\n%s\nvs\n%s"
            seed id
            (Fleet.deterministic_view with_faulty)
            (Fleet.deterministic_view healthy_only))
      [ 0; 3 ];
    (* the scripted kills really happened *)
    let killed = find_tenant with_faulty 2 in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: tenant 2 killed twice" seed)
      2 killed.Fleet.kills
  done

(* One tenant in permanent SAFE mode (pruning moratorium) must not stop
   the others from reclaiming; its own failures stay typed (restarts),
   never verifier failures or crashes. *)
let test_safe_tenant_contained () =
  let report =
    Fleet.run
      (Fleet.default_options ~seed:3 ~rounds:60 ())
      [ spec ~id:0 (); spec ~force_safe:true ~id:1 (); spec ~id:2 ();
        spec ~id:3 () ]
  in
  Alcotest.(check bool) "fleet healthy" false (Fleet.failed report);
  let safe = find_tenant report 1 in
  Alcotest.(check int) "SAFE tenant never prunes" 0
    safe.Fleet.references_poisoned;
  List.iter
    (fun id ->
      let t = find_tenant report id in
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d reclaims despite the SAFE neighbour" id)
        true
        (t.Fleet.bytes_reclaimed > 0))
    [ 0; 2; 3 ];
  (* the SAFE tenant leaks until OOM and is restarted, typed *)
  Alcotest.(check bool) "SAFE tenant was restarted" true
    (safe.Fleet.restarts > 0);
  Alcotest.(check int) "no crashes anywhere" 0
    (List.fold_left
       (fun acc (t : Fleet.tenant_report) -> acc + t.Fleet.crashes)
       0 report.Fleet.tenant_reports)

(* Kill/restart faults leave the shared backend's byte accounting
   closed: what the backend believes is used equals the sum of the
   tenants' final footprints. *)
let test_backend_accounting_closes () =
  let report =
    Fleet.run
      { (Fleet.default_options ~seed:11 ~rounds:50 ()) with
        Fleet.chaos = true;
        chaos_events = 5
      }
      [ spec ~id:0 (); spec ~id:1 (); spec ~id:2 () ]
  in
  let sum =
    List.fold_left
      (fun acc (t : Fleet.tenant_report) -> acc + t.Fleet.disk_bytes_final)
      0 report.Fleet.tenant_reports
  in
  Alcotest.(check int) "backend used = sum of tenant footprints" sum
    report.Fleet.backend_used_bytes;
  Alcotest.(check bool) "fleet survived chaos" false (Fleet.failed report)

(* Every admission denial is counted once: the per-tenant counts sum to
   the backend's, across warm and cold restarts. The run is the CLI's
   fleet-settings run at retry cap 1 (a 2,000-byte backend, scripted
   kills, one warm restart per supervisor window). *)
let test_denials_sum_to_backend () =
  let kills =
    [ (4, 0); (11, 0); (18, 0); (25, 0); (32, 0); (40, 1); (45, 2); (9, 3);
      (12, 3); (15, 3); (18, 3); (21, 3); (24, 3); (26, 3); (27, 3) ]
  in
  let report =
    Fleet.run
      { (Fleet.default_options ~seed:3 ~rounds:80 ()) with
        Fleet.requests_per_round = 4;
        capacity_bytes = 2_000;
        kills;
        admission_retry_cap = 1;
        admission_backoff_base = 1;
        admission_backoff_ceiling = 2;
        offload_deadline = 20;
        warm_limit = 1;
        storm_trip_permille = 300
      }
      (List.init 4 (fun id ->
           { (spec ~id ()) with Tenant.rate_per_mille = 4_000 }))
  in
  let sum f =
    List.fold_left
      (fun acc (t : Fleet.tenant_report) -> acc + f t)
      0 report.Fleet.tenant_reports
  in
  Alcotest.(check bool) "some restart was warm" true
    (sum (fun t -> t.Fleet.warm_restarts) > 0);
  Alcotest.(check bool) "some restart was cold" true
    (sum (fun t -> t.Fleet.cold_restarts) > 0);
  Alcotest.(check bool) "admission was denied" true
    (report.Fleet.backend_denials > 0);
  Alcotest.(check int) "tenant denials sum to the backend's"
    report.Fleet.backend_denials
    (sum (fun t -> t.Fleet.admission_denials))

(* Tenant restart events carry the typed reason and cumulative count. *)
let test_restart_events () =
  let killed =
    Fleet.run
      { (Fleet.default_options ~seed:5 ~rounds:30 ()) with
        Fleet.kills = [ (4, 1) ]
      }
      [ spec ~id:0 (); spec ~id:1 () ]
  in
  let restarts =
    List.filter_map
      (fun (e : Lp_obs.Event.stamped) ->
        match e.Lp_obs.Event.ev with
        | Lp_obs.Event.Tenant_restarted { tenant; reason; _ } ->
          Some (tenant, reason)
        | _ -> None)
      killed.Fleet.events
  in
  Alcotest.(check bool) "a kill restart was recorded" true
    (List.mem (1, "kill") restarts)

(* A VM driven into a typed error the harness does not anticipate
   (Heap_corruption out of the workload) ends the run with that error:
   Driver.run maps only the outcomes it knows and lets the rest
   escape. The VM holds nothing that needs tearing down on the way. *)
let test_teardown_on_unanticipated_error () =
  (* a leaking workload that dies with Heap_corruption once the
     collector has run a couple of times — an error outside Driver's
     anticipated outcome set, escaping mid-run *)
  let corrupting =
    {
      Lp_workloads.List_leak.workload with
      Lp_workloads.Workload.name = "Corrupting";
      prepare =
        (fun vm ->
          let inner =
            Lp_workloads.List_leak.workload.Lp_workloads.Workload.prepare vm
          in
          fun () ->
            if Lp_runtime.Vm.gc_count vm >= 2 then
              raise
                (Lp_core.Errors.heap_corruption ~src_class:"T" ~field:0
                   ~target:1 ~gc_count:Lp_runtime.Vm.(gc_count vm));
            inner ());
    }
  in
  let raised = ref false in
  (try
     ignore
       (Lp_harness.Driver.run ~heap_bytes:20_000 ~max_iterations:2_000
          corrupting)
   with Lp_core.Errors.Heap_corruption _ -> raised := true);
  Alcotest.(check bool) "the error escaped Driver.run" true !raised

(* Admission settings are validated with the fleet's options, and
   [Fleet.run] refuses options that fail [Fleet.validate]. *)
let test_admission_config_validation () =
  let bad =
    { (Fleet.default_options ~seed:1 ~rounds:1 ()) with
      Fleet.admission_backoff_base = 4;
      admission_backoff_ceiling = 2
    }
  in
  (match Fleet.validate bad with
  | Ok _ -> Alcotest.fail "ceiling < base must not validate"
  | Error _ -> ());
  Alcotest.check_raises "Fleet.run rejects invalid admission config"
    (Invalid_argument
       "Fleet.run: admission_backoff_ceiling must be >= admission_backoff_base")
    (fun () -> ignore (Fleet.run bad [ spec ~id:0 () ]))

(* [Tenant.spec.gc_packet_size] tuned the retired parallel collector
   and is kept only so existing callers still build; a spec that sets
   it is rejected up front rather than silently ignored. *)
let test_packet_size_rejected () =
  Alcotest.check_raises "Fleet.run rejects gc_packet_size = Some _"
    (Invalid_argument "Fleet.run: gc_packet_size must be None") (fun () ->
      ignore
        (Fleet.run
           (Fleet.default_options ~seed:1 ~rounds:1 ())
           [
             spec ~id:0 ();
             { (spec ~id:1 ()) with Tenant.gc_packet_size = Some 8 };
           ]))

let suite =
  ( "fleet",
    [
      Alcotest.test_case "same seed, same fleet report" `Quick test_determinism;
      Alcotest.test_case "isolation oracle over 25 seeds" `Slow
        test_isolation_oracle;
      Alcotest.test_case "SAFE tenant contained" `Quick
        test_safe_tenant_contained;
      Alcotest.test_case "backend accounting closes under chaos" `Quick
        test_backend_accounting_closes;
      Alcotest.test_case "denials sum to the backend's across restarts"
        `Quick test_denials_sum_to_backend;
      Alcotest.test_case "restart events carry typed reasons" `Quick
        test_restart_events;
      Alcotest.test_case "teardown on unanticipated error" `Quick
        test_teardown_on_unanticipated_error;
      Alcotest.test_case "admission config validation" `Quick
        test_admission_config_validation;
      Alcotest.test_case "a tenant spec may not set gc_packet_size" `Quick
        test_packet_size_rejected;
    ] )
