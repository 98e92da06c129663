(* Supervision: checkpoint framing, the restart-escalation ladder, the
   crash-storm breaker, the restart-reason taxonomy the supervisor acts
   on, and the fleet-level warm-restart behaviour end to end. *)

open Lp_super

let snapshot =
  {
    Lp_core.State_machine.snap_state = Lp_core.State_kind.Observe;
    snap_pruned_once = true;
    snap_gc_seen = 9;
    snap_safe_remaining = 0;
    snap_safe_entries = 2;
    snap_safe_exits_forced = 1;
  }

let brain =
  {
    Lp_core.Controller.brain_classes =
      [ "java.lang.String"; "char[]"; "Cache$Table"; "Cache$Entry" ];
    brain_gc_count = 41;
    brain_mispredictions = 3;
    brain_epoch_mispredictions = 1;
    brain_unproductive_cycles = 0;
    brain_machine = snapshot;
    brain_edges =
      [ ("Cache$Table", "Cache$Entry", 5); ("java.lang.String", "char[]", 9) ];
    brain_pruned_types = [ ("java.lang.String", "char[]") ];
  }

let error_to_str = function
  | Ok _ -> "ok"
  | Error e -> Checkpoint.error_to_string e

(* -------------------------- checkpoint codec ---------------------- *)

let test_checkpoint_roundtrip () =
  let frame = Checkpoint.encode ~round:42 brain in
  match Checkpoint.decode frame with
  | Ok (round, decoded) ->
    Alcotest.(check int) "round survives" 42 round;
    Alcotest.(check bool) "brain survives byte-identically" true
      (decoded = brain)
  | Error e -> Alcotest.failf "decode failed: %s" (Checkpoint.error_to_string e)

let test_checkpoint_torn () =
  let frame = Checkpoint.encode ~round:7 brain in
  (* every possible tear point: a torn write is Torn (or, below the
     header, indistinguishable from garbage but still typed) *)
  for keep = 0 to Bytes.length frame - 1 do
    match Checkpoint.decode (Checkpoint.tear frame ~keep) with
    | Error (Checkpoint.Torn _) -> ()
    | Error e ->
      Alcotest.failf "tear at %d: expected Torn, got %s" keep
        (Checkpoint.error_to_string e)
    | Ok _ -> Alcotest.failf "tear at %d decoded successfully" keep
  done

let test_checkpoint_corrupt () =
  let frame = Checkpoint.encode ~round:7 brain in
  (* flip one bit in every payload byte: the CRC must catch each one *)
  for pos = 12 to Bytes.length frame - 1 do
    match Checkpoint.decode (Checkpoint.corrupt frame ~pos) with
    | Error Checkpoint.Crc_mismatch -> ()
    | Error e ->
      Alcotest.failf "corrupt at %d: expected Crc_mismatch, got %s" pos
        (Checkpoint.error_to_string e)
    | Ok _ -> Alcotest.failf "corrupt at %d decoded successfully" pos
  done;
  (* damaged magic: no trustworthy checksum at all *)
  (match Checkpoint.decode (Checkpoint.corrupt frame ~pos:0) with
  | Error Checkpoint.Crc_mismatch -> ()
  | other -> Alcotest.failf "bad magic: %s" (error_to_str other))

let test_checkpoint_version () =
  let frame = Checkpoint.encode ~round:7 brain in
  let future = Bytes.copy frame in
  Bytes.set future 2 (Char.chr 9);
  match Checkpoint.decode future with
  | Error (Checkpoint.Version_unsupported 9) -> ()
  | other -> Alcotest.failf "expected Version_unsupported 9, got %s"
               (error_to_str other)

let test_checkpoint_malformed () =
  (* a frame whose CRC is valid but whose payload lies: patch the state
     tag to an undefined value and re-seal the checksum *)
  let frame = Checkpoint.encode ~round:7 brain in
  let evil = Bytes.copy frame in
  (* state tag is the 6th int32 of the payload *)
  Bytes.set_int32_le evil (12 + (5 * 4)) 9l;
  let payload_len = Bytes.length evil - 12 in
  Bytes.set_int32_le evil 8
    (Int32.of_int (Lp_runtime.Swap_image.crc32 evil ~pos:12 ~len:payload_len));
  match Checkpoint.decode evil with
  | Error (Checkpoint.Malformed _) -> ()
  | other -> Alcotest.failf "expected Malformed, got %s" (error_to_str other)

(* ------------------------- escalation ladder ---------------------- *)

let ladder_config =
  { Supervisor.window_rounds = 16; warm_limit = 2; cold_limit = 4;
    retire_limit = 6 }

let test_ladder_climbs () =
  let s = Supervisor.create ladder_config in
  let actions = List.init 7 (fun _ -> Supervisor.on_restart s ~round:10) in
  Alcotest.(check bool) "warm, warm, cold, cold, ext, ext, retire" true
    (actions
    = [ Supervisor.Warm; Warm; Cold; Cold; Cold_extended; Cold_extended;
        Retire ]);
  Alcotest.(check bool) "retired permanently" true (Supervisor.retired s);
  Alcotest.(check int) "all restarts counted" 7 (Supervisor.total_restarts s)

let test_ladder_window_slides () =
  let s = Supervisor.create { ladder_config with Supervisor.window_rounds = 4 } in
  (* restarts spaced wider than the window never escalate *)
  List.iter
    (fun round ->
      Alcotest.(check string) "isolated restarts stay warm" "warm"
        (Supervisor.action_to_string (Supervisor.on_restart s ~round)))
    [ 0; 10; 20; 30 ];
  Alcotest.(check int) "only the last restart is in window" 1
    (Supervisor.restarts_in_window s ~round:30);
  Alcotest.(check int) "but all are remembered" 4 (Supervisor.total_restarts s)

let test_latest_checkpoint_wins () =
  let s = Supervisor.create ladder_config in
  Alcotest.(check bool) "no frame at boot" true (Supervisor.checkpoint s = None);
  Supervisor.store_checkpoint s ~round:8 (Bytes.of_string "old");
  Supervisor.store_checkpoint s ~round:16 (Bytes.of_string "new");
  match Supervisor.checkpoint s with
  | Some (16, frame) ->
    Alcotest.(check string) "latest frame" "new" (Bytes.to_string frame)
  | other ->
    Alcotest.failf "expected round-16 frame, got %s"
      (match other with
      | None -> "none"
      | Some (r, _) -> Printf.sprintf "round %d" r)

(* ----------------------------- breaker ---------------------------- *)

let breaker_config =
  { Breaker.window_rounds = 8; trip_permille = 500; cooldown_rounds = 4 }

let test_breaker_strict_inequality () =
  let b = Breaker.create breaker_config ~tenants:4 in
  Breaker.note_restart b ~round:1 ~tenant:0;
  Breaker.note_restart b ~round:1 ~tenant:1;
  (* a tenant restarting twice is still one distinct tenant *)
  Breaker.note_restart b ~round:2 ~tenant:1;
  Alcotest.(check int) "distinct count" 2 (Breaker.distinct_restarted b ~round:2);
  Alcotest.(check bool) "2/4 = exactly 500 permille does not trip" false
    (Breaker.should_trip b ~round:2);
  Breaker.note_restart b ~round:2 ~tenant:2;
  Alcotest.(check bool) "3/4 strictly exceeds 500 permille" true
    (Breaker.should_trip b ~round:2)

let test_breaker_trip_cooldown_reset () =
  let b = Breaker.create breaker_config ~tenants:4 in
  List.iter (fun tenant -> Breaker.note_restart b ~round:3 ~tenant) [ 0; 1; 2 ];
  Breaker.trip b ~round:3;
  Alcotest.(check bool) "open after trip" true (Breaker.is_open b);
  Alcotest.(check bool) "no re-trip while open" false
    (Breaker.should_trip b ~round:3);
  Alcotest.(check bool) "cooldown still running" false
    (Breaker.cooldown_over b ~round:5);
  Alcotest.(check bool) "cooldown served" true (Breaker.cooldown_over b ~round:7);
  Breaker.extend b ~round:7;
  Alcotest.(check bool) "extended pause" false (Breaker.cooldown_over b ~round:8);
  Breaker.reset b;
  Alcotest.(check bool) "closed after reset" false (Breaker.is_open b);
  (* reset also clears the window: the same restarts cannot re-trip *)
  Alcotest.(check int) "window cleared" 0 (Breaker.distinct_restarted b ~round:7);
  Alcotest.(check bool) "no trip from stale restarts" false
    (Breaker.should_trip b ~round:7);
  Alcotest.(check int) "the trip was counted" 1 (Breaker.trips b)

let test_breaker_window_slides () =
  let b = Breaker.create breaker_config ~tenants:4 in
  List.iter (fun tenant -> Breaker.note_restart b ~round:1 ~tenant) [ 0; 1; 2 ];
  Alcotest.(check bool) "trips inside the window" true
    (Breaker.should_trip b ~round:2);
  Alcotest.(check int) "old restarts age out" 0
    (Breaker.distinct_restarted b ~round:20);
  Alcotest.(check bool) "no trip once the window slid" false
    (Breaker.should_trip b ~round:20)

(* ------------------------ config validation ----------------------- *)

let test_supervision_config_validation () =
  let base = Lp_fleet.Fleet.default_options ~seed:1 ~rounds:1 () in
  let ladder = Supervisor.default and breaker = Breaker.default in
  let rejects label opts =
    match Lp_fleet.Fleet.validate opts with
    | Ok _ -> Alcotest.failf "%s must not validate" label
    | Error _ -> ()
  in
  rejects "quarantine_rounds 0" { base with quarantine_rounds = 0 };
  rejects "extended quarantine below quarantine"
    { base with quarantine_rounds = 3; extended_quarantine_rounds = 2 };
  rejects "checkpoint_rounds 0" { base with checkpoint_rounds = 0 };
  let with_ladder supervisor = { base with Lp_fleet.Fleet.supervisor } in
  rejects "negative warm limit" (with_ladder { ladder with warm_limit = -1 });
  rejects "cold limit below warm limit"
    (with_ladder { ladder with warm_limit = 3; cold_limit = 2 });
  rejects "retire limit below cold limit"
    (with_ladder { ladder with cold_limit = 4; retire_limit = 3 });
  let with_breaker breaker = { base with Lp_fleet.Fleet.breaker } in
  rejects "storm window 0" (with_breaker { breaker with window_rounds = 0 });
  rejects "storm trip 0 permille"
    (with_breaker { breaker with trip_permille = 0 });
  rejects "storm trip over 1000 permille"
    (with_breaker { breaker with trip_permille = 1001 });
  rejects "storm cooldown 0" (with_breaker { breaker with cooldown_rounds = 0 });
  match Lp_fleet.Fleet.validate base with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "default options rejected: %s" msg

(* --------------------- restart-reason taxonomy -------------------- *)

let test_restart_reasons () =
  let open Lp_core.Errors in
  let oom = out_of_memory ~gc_count:3 ~used_bytes:100 ~limit_bytes:100 in
  let resurrection =
    resurrection_failed ~target:7 ~reason:Image_missing ~gc_count:3
  in
  let check label expected e =
    Alcotest.(check (option string)) label expected (tenant_restart_reason e)
  in
  check "oom" (Some "oom") oom;
  check "pruned access" (Some "pruned-access")
    (internal_error ~cause:oom ~src_class:"A" ~tgt_class:"B");
  check "failed resurrection inside a pruned access" (Some "resurrection")
    (internal_error ~cause:resurrection ~src_class:"A" ~tgt_class:"B");
  check "bare resurrection failure" (Some "resurrection") resurrection;
  check "disk exhausted" (Some "disk-exhausted")
    (disk_exhausted ~resident_bytes:9 ~limit_bytes:8 ~retries:2 ~gc_count:1);
  check "heap corruption" (Some "heap-corruption")
    (heap_corruption ~src_class:"A" ~field:0 ~target:3 ~gc_count:1);
  check "out of disk" (Some "out-of-disk")
    (out_of_disk ~resident_bytes:9 ~limit_bytes:8);
  (* outside the taxonomy: the fleet restarts these as "crash" *)
  check "Not_found is not restartable" None Not_found;
  check "Failure is not restartable" None (Failure "boom")

(* ------------------- fleet warm restart end to end ---------------- *)

let spec ~id () =
  {
    Lp_fleet.Tenant.id;
    name = Printf.sprintf "t%d" id;
    workload = Lp_workloads.Phased_cache.workload;
    heap_bytes = 14_000;
    quota_bytes = 14_000;
    rate_per_mille = 2_200;
    policy = Lp_core.Policy.Default;
    force_safe = false;
    resurrection = true;
    liveness = Lp_core.Config.Liveness_off;
    pause_slo_p99_ns = None;
    gc_packet_size = None;
  }

(* single-tenant runs: trip bar 1000 permille keeps the (strict) breaker
   out of the picture *)
let run_solo ?(rounds = 60) ?(warm_limit = 2) ~kills seed =
  Lp_fleet.Fleet.run
    { (Lp_fleet.Fleet.default_options ~seed ~rounds ()) with
      Lp_fleet.Fleet.requests_per_round = 2;
      supervisor = { Supervisor.default with warm_limit };
      breaker = { Breaker.default with trip_permille = 1000 };
      kills
    }
    [ spec ~id:0 () ]

let tenant0 (report : Lp_fleet.Fleet.report) =
  List.hd report.Lp_fleet.Fleet.tenant_reports

let has_event p (report : Lp_fleet.Fleet.report) =
  List.exists
    (fun (s : Lp_obs.Event.stamped) -> p s.Lp_obs.Event.ev)
    report.Lp_fleet.Fleet.events

let test_warm_beats_cold () =
  let warm = run_solo ~kills:[ (30, 0) ] 3 in
  let cold = run_solo ~warm_limit:0 ~kills:[ (30, 0) ] 3 in
  Alcotest.(check bool) "warm run clean" false (Lp_fleet.Fleet.failed warm);
  Alcotest.(check bool) "cold run clean" false (Lp_fleet.Fleet.failed cold);
  let w = tenant0 warm and c = tenant0 cold in
  Alcotest.(check int) "the restart took the warm path" 1
    w.Lp_fleet.Fleet.warm_restarts;
  Alcotest.(check int) "no fallback" 0 w.Lp_fleet.Fleet.checkpoint_fallbacks;
  Alcotest.(check int) "the baseline went cold" 1 c.Lp_fleet.Fleet.cold_restarts;
  Alcotest.(check bool) "restore was recorded" true
    (has_event
       (function Lp_obs.Event.Checkpoint_restored _ -> true | _ -> false)
       warm);
  Alcotest.(check bool) "warm tenant reached readiness" true
    (has_event
       (function
         | Lp_obs.Event.Tenant_ready { round; _ } -> round > 30
         | _ -> false)
       warm);
  Alcotest.(check bool)
    (Printf.sprintf "warm mispredictions %d strictly below cold %d"
       w.Lp_fleet.Fleet.mispredictions c.Lp_fleet.Fleet.mispredictions)
    true
    (w.Lp_fleet.Fleet.mispredictions < c.Lp_fleet.Fleet.mispredictions)

let test_no_checkpoint_falls_back_cold () =
  (* killed before the first checkpoint cadence: nothing to restore *)
  let report = run_solo ~kills:[ (4, 0) ] 5 in
  Alcotest.(check bool) "run clean" false (Lp_fleet.Fleet.failed report);
  let t = tenant0 report in
  Alcotest.(check int) "no warm restart" 0 t.Lp_fleet.Fleet.warm_restarts;
  Alcotest.(check int) "cold boot instead" 1 t.Lp_fleet.Fleet.cold_restarts;
  Alcotest.(check int) "counted as a fallback" 1
    t.Lp_fleet.Fleet.checkpoint_fallbacks;
  Alcotest.(check bool) "typed fallback event" true
    (has_event
       (function
         | Lp_obs.Event.Checkpoint_fallback { reason; _ } ->
           reason = "no-checkpoint"
         | _ -> false)
       report)

let test_damaged_checkpoint_falls_back_cold () =
  (* a storm plan tears/corrupts checkpoint writes before killing
     tenants: every warm attempt that hits a damaged frame must degrade
     to a typed Checkpoint_fallback and a cold boot — never a crash.
     Seed 2's plan is known to produce such fallbacks. *)
  let specs = List.init 4 (fun id -> spec ~id ()) in
  let options =
    { (Lp_fleet.Fleet.default_options ~seed:2 ~rounds:48 ()) with
      Lp_fleet.Fleet.requests_per_round = 2;
      storm = true
    }
  in
  let report = Lp_fleet.Fleet.run options specs in
  Alcotest.(check bool) "fleet survived" false (Lp_fleet.Fleet.failed report);
  let fallback_reasons =
    List.filter_map
      (fun (s : Lp_obs.Event.stamped) ->
        match s.Lp_obs.Event.ev with
        | Lp_obs.Event.Checkpoint_fallback { reason; _ } -> Some reason
        | _ -> None)
      report.Lp_fleet.Fleet.events
  in
  Alcotest.(check bool) "damaged frames fell back" true (fallback_reasons <> []);
  List.iter
    (fun reason ->
      if
        not
          (reason = "no-checkpoint"
          || String.length reason >= 4
             && (String.sub reason 0 4 = "torn" || reason = "crc-mismatch"))
      then Alcotest.failf "unexpected fallback reason %S" reason)
    fallback_reasons;
  Alcotest.(check int) "no crashes anywhere" 0
    (List.fold_left
       (fun acc (t : Lp_fleet.Fleet.tenant_report) -> acc + t.Lp_fleet.Fleet.crashes)
       0 report.Lp_fleet.Fleet.tenant_reports)

let test_retire_after_repeated_kills () =
  let kills = List.init 8 (fun i -> (2 + (2 * i), 0)) in
  let report = run_solo ~rounds:40 ~kills 2 in
  Alcotest.(check bool) "run clean" false (Lp_fleet.Fleet.failed report);
  let t = tenant0 report in
  Alcotest.(check bool) "tenant retired" true t.Lp_fleet.Fleet.retired;
  Alcotest.(check bool) "retirement event" true
    (has_event
       (function Lp_obs.Event.Tenant_retired _ -> true | _ -> false)
       report);
  Alcotest.(check bool) "arrivals shed after retirement" true
    (t.Lp_fleet.Fleet.shed_retired > 0);
  Alcotest.(check bool) "ladder passed through extended quarantine" true
    (has_event
       (function
         | Lp_obs.Event.Restart_escalated { level; _ } ->
           level = "cold-extended"
         | _ -> false)
       report)

let test_storm_trips_breaker_and_recovers () =
  let specs = List.init 4 (fun id -> spec ~id ()) in
  let options =
    { (Lp_fleet.Fleet.default_options ~seed:1 ~rounds:48 ()) with
      Lp_fleet.Fleet.requests_per_round = 2;
      storm = true
    }
  in
  let report = Lp_fleet.Fleet.run options specs in
  Alcotest.(check bool) "fleet survived the storm" false
    (Lp_fleet.Fleet.failed report);
  Alcotest.(check bool) "breaker tripped" true
    (report.Lp_fleet.Fleet.breaker_trips > 0);
  Alcotest.(check bool) "breaker recovered" true
    (has_event
       (function Lp_obs.Event.Breaker_reset _ -> true | _ -> false)
       report);
  (* determinism holds with storms and torn checkpoints in play *)
  let again = Lp_fleet.Fleet.run options specs in
  Alcotest.(check string) "storm runs reproduce bit-identically"
    (Lp_fleet.Fleet.deterministic_view report)
    (Lp_fleet.Fleet.deterministic_view again)

let suite =
  ( "super",
    [
      Alcotest.test_case "checkpoint round-trips" `Quick
        test_checkpoint_roundtrip;
      Alcotest.test_case "torn checkpoints are typed" `Quick
        test_checkpoint_torn;
      Alcotest.test_case "corrupt checkpoints are typed" `Quick
        test_checkpoint_corrupt;
      Alcotest.test_case "future versions are typed" `Quick
        test_checkpoint_version;
      Alcotest.test_case "malformed payloads are typed" `Quick
        test_checkpoint_malformed;
      Alcotest.test_case "ladder climbs warm to retire" `Quick
        test_ladder_climbs;
      Alcotest.test_case "ladder window slides" `Quick test_ladder_window_slides;
      Alcotest.test_case "latest checkpoint wins" `Quick
        test_latest_checkpoint_wins;
      Alcotest.test_case "breaker trips on strict majority share" `Quick
        test_breaker_strict_inequality;
      Alcotest.test_case "breaker trip, cooldown, reset" `Quick
        test_breaker_trip_cooldown_reset;
      Alcotest.test_case "breaker window slides" `Quick
        test_breaker_window_slides;
      Alcotest.test_case "supervision config validation" `Quick
        test_supervision_config_validation;
      Alcotest.test_case "restart-reason taxonomy" `Quick test_restart_reasons;
      Alcotest.test_case "warm restart beats cold" `Quick test_warm_beats_cold;
      Alcotest.test_case "missing checkpoint falls back cold" `Quick
        test_no_checkpoint_falls_back_cold;
      Alcotest.test_case "damaged checkpoint falls back cold" `Quick
        test_damaged_checkpoint_falls_back_cold;
      Alcotest.test_case "repeated kills retire the tenant" `Quick
        test_retire_after_repeated_kills;
      Alcotest.test_case "storms trip and recover the breaker" `Quick
        test_storm_trips_breaker_and_recovers;
    ] )
