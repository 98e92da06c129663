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
    Lp_core.Controller.brain_gc_count = 41;
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
  let frame = Checkpoint.encode brain in
  match Checkpoint.decode frame with
  | Ok decoded ->
    Alcotest.(check bool) "brain survives byte-identically" true
      (decoded = brain)
  | Error e -> Alcotest.failf "decode failed: %s" (Checkpoint.error_to_string e)

(* Swap images and checkpoints are both [Lp_runtime.Frame]s, so each
   answers a damaged frame the same way, in its own error type, and the
   same two sweeps run over both. A tear at every length is torn. A bit
   flipped at every offset is a checksum error in the magic (bytes 0-1)
   and the reserved byte (3), a version error in byte 2, torn in the
   length (4-7), and a checksum error in the CRC (8-11) and anywhere in
   the payload. *)
type frame_outcome = Torn | Checksum | Version | Other of string

let show_outcome = function
  | Torn -> "torn"
  | Checksum -> "checksum"
  | Version -> "version"
  | Other what -> what

let check_intact name frame decode =
  Alcotest.(check string) (name ^ " intact") "intact"
    (show_outcome (decode frame))

let sweep_tears name frame ~tear decode =
  check_intact name frame decode;
  let len = Bytes.length frame in
  for keep = 0 to len - 1 do
    let got = decode (tear frame ~keep) in
    if got <> Torn then
      Alcotest.failf "%s torn at %d of %d bytes: %s" name keep len
        (show_outcome got)
  done

let sweep_flips name frame decode =
  check_intact name frame decode;
  for pos = 0 to Bytes.length frame - 1 do
    let expected =
      if pos = 2 then Version else if pos >= 4 && pos <= 7 then Torn
      else Checksum
    in
    for bit = 0 to 7 do
      let flipped = Bytes.copy frame in
      Bytes.set flipped pos
        (Char.chr (Char.code (Bytes.get frame pos) lxor (1 lsl bit)));
      let got = decode flipped in
      if got <> expected then
        Alcotest.failf "%s, bit %d of byte %d flipped: %s, expected %s" name
          bit pos (show_outcome got) (show_outcome expected)
    done
  done

let decode_checkpoint b =
  match Checkpoint.decode b with
  | Ok _ -> Other "intact"
  | Error (Checkpoint.Torn _) -> Torn
  | Error Checkpoint.Crc_mismatch -> Checksum
  | Error (Checkpoint.Version_unsupported _) -> Version
  | Error (Checkpoint.Malformed _ as e) -> Other (Checkpoint.error_to_string e)

let test_checkpoint_torn () =
  sweep_tears "checkpoint" (Checkpoint.encode brain) ~tear:Checkpoint.tear
    decode_checkpoint

let test_checkpoint_corrupt () =
  sweep_flips "checkpoint" (Checkpoint.encode brain) decode_checkpoint

let test_swap_image_every_offset () =
  let image =
    Lp_runtime.Swap_image.encode
      {
        Lp_runtime.Swap_image.object_id = 7;
        class_id = 3;
        stale = 2;
        scalar_bytes = 16;
        fields =
          [|
            { word = Lp_heap.Word.of_id 9; referent_class = 3 };
            { word = Lp_heap.Word.null; referent_class = -1 };
          |];
      }
  in
  let decode b =
    match Lp_runtime.Swap_image.validate b with
    | Ok _ -> Other "intact"
    | Error (Lp_core.Errors.Image_torn _) -> Torn
    | Error Lp_core.Errors.Image_crc_mismatch -> Checksum
    | Error (Lp_core.Errors.Image_version_unsupported _) -> Version
    | Error e -> Other (Lp_core.Errors.resurrection_failure_to_string e)
  in
  sweep_tears "swap image" image ~tear:Lp_runtime.Swap_image.tear decode;
  sweep_flips "swap image" image decode

let test_checkpoint_version () =
  let frame = Checkpoint.encode brain in
  let future = Bytes.copy frame in
  Bytes.set future 2 (Char.chr 9);
  match Checkpoint.decode future with
  | Error (Checkpoint.Version_unsupported 9) -> ()
  | other -> Alcotest.failf "expected Version_unsupported 9, got %s"
               (error_to_str other)

let test_checkpoint_malformed () =
  (* a frame whose CRC is valid but whose payload lies: patch the state
     tag to an undefined value and re-seal the checksum *)
  let frame = Checkpoint.encode brain in
  let evil = Bytes.copy frame in
  (* state tag is the 5th int32 of the payload *)
  Bytes.set_int32_le evil (12 + (4 * 4)) 9l;
  let payload_len = Bytes.length evil - 12 in
  Bytes.set_int32_le evil 8
    (Int32.of_int (Lp_runtime.Crc32.of_bytes evil ~pos:12 ~len:payload_len));
  match Checkpoint.decode evil with
  | Error (Checkpoint.Malformed _) -> ()
  | other -> Alcotest.failf "expected Malformed, got %s" (error_to_str other)

(* ------------------------ brain import by name -------------------- *)

(* A brain learned on one VM imports into a VM that registered the same
   classes in another order: every edge's maxstaleuse and every pruned
   type resolves by name, and the registry gains only the brain's
   names. *)
let test_import_resolves_by_name () =
  let config () = Lp_core.Config.make ~policy:Lp_core.Policy.Default () in
  let new_vm () =
    Lp_runtime.Vm.create ~config:(config ()) ~resurrection:true
      ~heap_bytes:14_000 ()
  in
  let names vm =
    let reg = Lp_runtime.Vm.registry vm in
    List.init (Lp_heap.Class_registry.count reg)
      (Lp_heap.Class_registry.name reg)
  in
  let first = new_vm () in
  let iterate = Lp_workloads.Phased_cache.workload.Lp_workloads.Workload.prepare first in
  for _ = 1 to 120 do
    try iterate () with e when Lp_core.Errors.is_recoverable e -> ()
  done;
  let learned = Lp_core.Controller.export_brain (Lp_runtime.Vm.controller first) in
  let brain_names =
    List.sort_uniq compare
      (List.concat_map (fun (s, t, _) -> [ s; t ]) learned.brain_edges
      @ List.concat_map (fun (s, t) -> [ s; t ]) learned.brain_pruned_types)
  in
  Alcotest.(check bool) "the first VM learned protected edges" true
    (learned.brain_edges <> []);
  Alcotest.(check bool) "the first VM pruned" true
    (learned.brain_pruned_types <> []);
  (* the second VM registers every other class of the first, in
     reverse order, so some brain names land on other ids and some are
     not registered at all *)
  let second = new_vm () in
  let preregistered =
    List.filteri (fun i _ -> i mod 2 = 0) (List.rev (names first))
  in
  List.iter
    (fun name -> ignore (Lp_runtime.Vm.register_class second name : int))
    preregistered;
  let before = names second in
  Alcotest.(check bool) "some brain class is missing before the import" true
    (List.exists (fun n -> not (List.mem n before)) brain_names);
  Alcotest.(check bool) "some brain class moved to another id" true
    (List.exists
       (fun n ->
         Lp_heap.Class_registry.find (Lp_runtime.Vm.registry second) n
         |> Option.fold ~none:false ~some:(fun id ->
                Some id
                <> Lp_heap.Class_registry.find (Lp_runtime.Vm.registry first) n))
       brain_names);
  let ctl = Lp_runtime.Vm.controller second in
  Lp_core.Controller.import_brain ctl learned;
  let after = names second in
  Alcotest.(check (list string)) "the registry gained only brain names"
    (List.sort compare
       (before @ List.filter (fun n -> not (List.mem n before)) brain_names))
    (List.sort compare after);
  let reg = Lp_runtime.Vm.registry second in
  let id n = Option.get (Lp_heap.Class_registry.find reg n) in
  List.iter
    (fun (src, tgt, msu) ->
      Alcotest.(check int)
        (Printf.sprintf "maxstaleuse of %s -> %s" src tgt)
        msu
        (Lp_core.Edge_table.max_stale_use
           (Lp_core.Controller.edge_table ctl)
           ~src:(id src) ~tgt:(id tgt)))
    learned.brain_edges;
  Alcotest.(check (list (pair string string))) "pruned types by name"
    learned.brain_pruned_types
    (List.map
       (fun (s, t) ->
         (Lp_heap.Class_registry.name reg s, Lp_heap.Class_registry.name reg t))
       (Lp_core.Controller.pruned_edge_types ctl));
  Alcotest.(check bool) "the imported brain exports unchanged" true
    (Lp_core.Controller.export_brain ctl = learned)

(* ------------------------- escalation ladder ---------------------- *)

(* The ladder's constants: a 16-round window, warm up to 2 restarts (the
   fleet default), cold up to 4, extended quarantine up to 6, retirement
   beyond. *)
let test_ladder_climbs () =
  let s = Supervisor.create ~warm_limit:2 in
  let actions = List.init 7 (fun _ -> Supervisor.on_restart s ~round:10) in
  Alcotest.(check bool) "warm, warm, cold, cold, ext, ext, retire" true
    (actions
    = [ Supervisor.Warm; Warm; Cold; Cold; Cold_extended; Cold_extended;
        Retire ]);
  Alcotest.(check string) "retired for good" "retire"
    (Supervisor.action_to_string (Supervisor.on_restart s ~round:10))

let test_ladder_window_slides () =
  let s = Supervisor.create ~warm_limit:1 in
  (* restarts spaced wider than the 16-round window never escalate *)
  List.iter
    (fun round ->
      Alcotest.(check string) "isolated restarts stay warm" "warm"
        (Supervisor.action_to_string (Supervisor.on_restart s ~round)))
    [ 0; 16; 32; 48 ];
  Alcotest.(check string) "a restart 15 rounds on is the window's second"
    "cold"
    (Supervisor.action_to_string (Supervisor.on_restart s ~round:63))

let test_latest_checkpoint_wins () =
  let s = Supervisor.create ~warm_limit:2 in
  Alcotest.(check bool) "no frame at boot" true (Supervisor.checkpoint s = None);
  Supervisor.store_checkpoint s (Bytes.of_string "old");
  Supervisor.store_checkpoint s (Bytes.of_string "new");
  Alcotest.(check (option string)) "latest frame" (Some "new")
    (Option.map Bytes.to_string (Supervisor.checkpoint s))

(* ----------------------------- breaker ---------------------------- *)

(* The breaker's constants: an 8-round window and a 4-round cooldown;
   the trip bar is the fleet default, 500 permille. *)
let breaker () = Breaker.create ~trip_permille:500 ~tenants:4

let test_breaker_strict_inequality () =
  let b = breaker () in
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
  let b = breaker () in
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
  let b = breaker () in
  List.iter (fun tenant -> Breaker.note_restart b ~round:1 ~tenant) [ 0; 1; 2 ];
  Alcotest.(check bool) "trips inside the window" true
    (Breaker.should_trip b ~round:2);
  Alcotest.(check int) "still in the window at round 8" 3
    (Breaker.distinct_restarted b ~round:8);
  Alcotest.(check int) "aged out of the 8-round window at round 9" 0
    (Breaker.distinct_restarted b ~round:9);
  Alcotest.(check bool) "no trip once the window slid" false
    (Breaker.should_trip b ~round:20)

(* ------------------------ config validation ----------------------- *)

let test_supervision_config_validation () =
  let base = Lp_fleet.Fleet.default_options ~seed:1 ~rounds:1 () in
  let rejects label opts =
    match Lp_fleet.Fleet.validate opts with
    | Ok _ -> Alcotest.failf "%s must not validate" label
    | Error _ -> ()
  and accepts label opts =
    match Lp_fleet.Fleet.validate opts with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "%s rejected: %s" label msg
  in
  rejects "negative warm limit" { base with warm_limit = -1 };
  rejects "warm limit above the cold limit" { base with warm_limit = 5 };
  accepts "warm limit at the cold limit" { base with warm_limit = 4 };
  rejects "storm trip 0 permille" { base with storm_trip_permille = 0 };
  rejects "storm trip over 1000 permille"
    { base with storm_trip_permille = 1001 };
  accepts "default options" base

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
    (Out_of_disk { resident_bytes = 9; limit_bytes = 8 });
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
      warm_limit;
      storm_trip_permille = 1000;
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
      Alcotest.test_case "torn and flipped swap images, every offset" `Quick
        test_swap_image_every_offset;
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
      Alcotest.test_case "brain import resolves classes by name" `Quick
        test_import_resolves_by_name;
    ] )
