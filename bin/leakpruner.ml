(* leakpruner: run any bundled workload under any leak-pruning
   configuration and report what happened.

     leakpruner list
     leakpruner run ListLeak --policy default --cap 5000 --trace
     leakpruner run EclipseDiff --policy most-stale --heap 800000
     leakpruner experiment table1 *)

open Cmdliner

let workloads =
  Lp_workloads.
    [
      Eclipse_diff.workload;
      Eclipse_diff.fixed;
      List_leak.workload;
      Swap_leak.workload;
      Eclipse_cp.workload;
      Mysql_leak.workload;
      Spec_jbb.workload;
      Jbb_mod.workload;
      Mckoi.workload;
      Dual_leak.workload;
      Delaunay.workload;
      Phased_cache.workload;
      Adapton_hull.workload;
    ]
  @ List.map Lp_workloads.Dacapo.workload_of_spec Lp_workloads.Dacapo.suite

(* Every subcommand that takes a workload exits on an unknown name. *)
let find_workload name =
  (* Tolerant matching: "ListLeak", "list_leak" and "list-leak" all
     denote the same workload. *)
  let normalize s =
    String.lowercase_ascii
      (String.concat "" (String.split_on_char '-'
         (String.concat "" (String.split_on_char '_' s))))
  in
  let found =
    match List.find_opt (fun w -> w.Lp_workloads.Workload.name = name) workloads with
    | Some _ as found -> found
    | None ->
      List.find_opt
        (fun w -> normalize w.Lp_workloads.Workload.name = normalize name)
        workloads
  in
  match found with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S; see `leakpruner list`\n" name;
    exit 1

let list_cmd =
  let doc = "List the bundled workloads (the paper's ten leaks and the non-leaking suite)." in
  let run () =
    List.iter
      (fun w ->
        Printf.printf "%-18s %-14s heap %8dB  %s\n" w.Lp_workloads.Workload.name
          (Format.asprintf "%a" Lp_workloads.Workload.pp_category
             w.Lp_workloads.Workload.category)
          w.Lp_workloads.Workload.default_heap_bytes
          w.Lp_workloads.Workload.description)
      workloads
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* The flag table. Every flag is defined once, here or, when a single
   subcommand reads it, in that subcommand. *)

(* Integer flags take their range from one of two conversions, so a bad
   value fails while the command line is parsed, with a message that
   names the flag. *)
let int_at_least lo expected =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive = int_at_least 1 "a positive integer"

let non_negative = int_at_least 0 "a non-negative integer"

let policy_conv =
  let parse s =
    match Lp_core.Policy.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S (default, most-stale, indiv-refs, none)" s))
  in
  Arg.conv (parse, Lp_core.Policy.pp)

(* Pause targets read like durations: 100us, 2ms, 1s, 500ns, or a bare
   nanosecond count. *)
let duration_conv =
  let parse s =
    let num, mult =
      let n = String.length s in
      let suffix k = if n > k then String.sub s (n - k) k else "" in
      if suffix 2 = "ns" then (String.sub s 0 (n - 2), 1)
      else if suffix 2 = "us" then (String.sub s 0 (n - 2), 1_000)
      else if suffix 2 = "ms" then (String.sub s 0 (n - 2), 1_000_000)
      else if suffix 1 = "s" then (String.sub s 0 (n - 1), 1_000_000_000)
      else (s, 1)
    in
    match int_of_string_opt num with
    | Some v when v > 0 -> Ok (v * mult)
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "bad duration %S (want a positive count with an optional ns, \
               us, ms or s suffix, e.g. 100us)"
              s))
  in
  Arg.conv (parse, fun ppf ns -> Format.fprintf ppf "%dns" ns)

(* Shared by run and trace. *)
let policy_arg =
  Arg.(value & opt policy_conv Lp_core.Policy.Default
       & info [ "policy"; "p" ] ~docv:"POLICY" ~doc:"Prediction policy: default, most-stale, indiv-refs, or none (Base).")

let heap_arg =
  Arg.(value & opt (some positive) None
       & info [ "heap" ] ~docv:"BYTES" ~doc:"Heap size in simulated bytes (default: the workload's, about twice its non-leaking live size).")

(* Shared by run, trace, chaos and serve: the pause-SLO autopilot. *)
let pause_slo_arg =
  Arg.(value & opt (some duration_conv) None
       & info [ "pause-slo-p99" ] ~docv:"DURATION"
           ~doc:"Arm the pause-SLO autopilot with this p99 pause target \
                 (e.g. $(b,100us)): collections run in slices of at most \
                 256 objects at first, and the slice budget is retuned \
                 from wall-clock pause feedback between collections, never \
                 below 32 objects. Without it each collection is one \
                 pause. Outcome-neutral: reclamation stays bit-identical \
                 run to run.")

(* Shared by run, trace, chaos and serve: whether the static liveness
   oracle (access-graph analysis over the workload's bytecode model)
   feeds SELECT as a prior. Off is the exact pre-oracle behaviour. *)
let liveness_arg =
  Arg.(value
       & opt (enum [ ("off", Lp_core.Config.Liveness_off);
                     ("guide", Lp_core.Config.Liveness_guide) ])
           Lp_core.Config.Liveness_off
       & info [ "liveness" ] ~docv:"MODE"
           ~doc:"Static liveness oracle: $(b,off) (dynamic staleness only; \
                 the default, byte-identical to builds without the oracle) \
                 or $(b,guide) (compose the access-graph analysis of the \
                 workload's bytecode model with staleness: proven-dead \
                 fields get a lower selection bar, provably-read fields \
                 are vetoed however stale they get). Workloads without a \
                 bytecode model run unguided even under $(b,guide).")

(* A setting that parses but fails its module's [validate] (an ordering
   between two flags, say) is rejected with that module's own message. *)
let validated validate x =
  match validate x with
  | Ok x -> x
  | Error msg ->
    Printf.eprintf "leakpruner: %s\n" msg;
    exit 2

(* The VM configuration run and trace share, validated. *)
let vm_config =
  let make policy pause_slo =
    validated Lp_core.Config.validate
      (Lp_core.Config.make ~policy ?pause_slo_p99_ns:pause_slo ())
  in
  Term.(const make $ policy_arg $ pause_slo_arg)

(* Shared by serve's fleet options and its tenant specs. *)
let rate_arg =
  Arg.(value & opt non_negative 2_000
       & info [ "rate" ] ~docv:"PER_MILLE"
           ~doc:"Arrival rate per tenant, requests per 1000 rounds \
                 (2000 = 2 requests/round).")

(* serve's fleet options: the run's seed, length, arrival rate, backend
   and fault schedule, then the admission settings, the warm-restart
   limit and the crash-storm trip bar of [Fleet.options]. Each setting
   defaults to its field's default; the whole is checked by
   [Fleet.validate]. *)
let fleet_options =
  let d = Lp_fleet.Fleet.default_options ~seed:1 ~rounds:60 () in
  let setting c default name docv doc =
    Arg.(value & opt c default & info [ name ] ~docv ~doc)
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Traffic and chaos seed (single-run mode).")
  in
  let rounds_arg =
    Arg.(value & opt positive 60
         & info [ "rounds" ] ~docv:"N"
             ~doc:"Scheduler rounds — the fleet's logical time unit.")
  in
  let capacity_arg =
    Arg.(value & opt (some non_negative) None
         & info [ "disk-capacity" ] ~docv:"BYTES"
             ~doc:"Shared backend capacity. Default is effectively unbounded \
                   — tenants are then coupled only by faults, never by the \
                   backend conjunct, which is what the isolation oracle \
                   assumes.")
  in
  let chaos_arg =
    Arg.(value & flag
         & info [ "chaos" ]
             ~doc:"Schedule a seeded fleet fault plan (tenant kills and \
                   shared-disk pressure windows) on top of the run.")
  in
  let storm_arg =
    Arg.(value & flag
         & info [ "storm" ]
             ~doc:"Schedule a seeded crash-storm fault plan (correlated \
                   tenant kill storms and torn checkpoint writes) on top of \
                   the run; composes with --chaos.")
  in
  let kill_conv =
    let parse s =
      match List.map int_of_string_opt (String.split_on_char ':' s) with
      | [ Some r; Some t ] when r >= 1 && t >= 0 -> Ok (r, t)
      | [ Some _; Some _ ] ->
        Error
          (`Msg
             (Printf.sprintf "bad kill %S (ROUND must be >= 1, TENANT >= 0)"
                s))
      | _ -> Error (`Msg (Printf.sprintf "bad kill %S (want ROUND:TENANT)" s))
    in
    Arg.conv (parse, fun ppf (r, t) -> Format.fprintf ppf "%d:%d" r t)
  in
  let kill_arg =
    Arg.(value & opt_all kill_conv []
         & info [ "kill" ] ~docv:"ROUND:TENANT"
             ~doc:"Kill (and restart) tenant TENANT at round ROUND; \
                   repeatable. Applied on top of any chaos plan.")
  in
  let make seed rounds rate capacity chaos storm kills admission_retry_cap
      admission_backoff_base admission_backoff_ceiling offload_deadline
      warm_limit storm_trip_permille =
    validated Lp_fleet.Fleet.validate
      {
        d with
        Lp_fleet.Fleet.seed;
        rounds;
        requests_per_round = max 1 (rate / 1000);
        capacity_bytes = Option.value capacity ~default:d.capacity_bytes;
        chaos;
        storm;
        kills;
        admission_retry_cap;
        admission_backoff_base;
        admission_backoff_ceiling;
        offload_deadline;
        warm_limit;
        storm_trip_permille;
      }
  in
  Term.(
    const make $ seed_arg $ rounds_arg $ rate_arg $ capacity_arg
    $ chaos_arg $ storm_arg $ kill_arg
    $ setting non_negative d.admission_retry_cap "admission-retry-cap" "N"
        "How many times one queued request may be refused offload \
         admission before its backlog is shed."
    $ setting positive d.admission_backoff_base "backoff-base" "ROUNDS"
        "First admission backoff, in scheduler rounds; doubles per \
         consecutive denial."
    $ setting positive d.admission_backoff_ceiling "backoff-ceiling" "ROUNDS"
        "Exponential backoff saturates here."
    $ setting positive d.offload_deadline "offload-deadline" "ROUNDS"
        "Queued requests older than this many rounds time out and are \
         shed."
    $ setting non_negative d.warm_limit "warm-limit" "N"
        "Restarts within the 16-round supervisor window that still take \
         the warm (checkpoint-restoring) path, at most 4; 0 disables warm \
         restarts."
    $ setting positive d.storm_trip_permille "storm-trip-permille" "PERMILLE"
        "The breaker trips when the share of distinct restarted tenants \
         within its 8-round window strictly exceeds this, in per-mille of \
         the fleet.")

(* ------------------------------------------------------------------ *)
(* Subcommands *)

let run_cmd =
  let doc = "Run a workload under a leak-pruning configuration." in
  let workload_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let cap_arg =
    Arg.(value & opt non_negative 50_000
         & info [ "cap" ] ~docv:"N" ~doc:"Iteration cap standing in for the paper's 24-hour limit.")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print state transitions and prune reports as they happen.")
  in
  let exhaustion_arg =
    Arg.(value & flag
         & info [ "prune-at-exhaustion" ]
             ~doc:"Use the paper's option (1): wait until the heap is 100% full before the first prune (Figure 11). Default is option (2), pruning right after a SELECT collection.")
  in
  let run name config liveness heap cap trace exhaustion =
    let w = find_workload name in
    let config =
      {
        config with
        Lp_core.Config.prune_trigger =
          (if exhaustion then Lp_core.Config.On_exhaustion
           else Lp_core.Config.On_select_gc);
        report =
          (if trace then Some (fun m -> Printf.printf "[vm] %s\n%!" m) else None);
      }
    in
    let r =
      Lp_harness.Driver.run ~config ~liveness ?heap_bytes:heap
        ~max_iterations:cap w
    in
    Printf.printf "workload:     %s\n" r.Lp_harness.Driver.workload;
    Printf.printf "policy:       %s\n"
      (Lp_core.Policy.to_string config.Lp_core.Config.policy);
    Printf.printf "heap:         %d bytes\n" r.Lp_harness.Driver.heap_bytes;
    Printf.printf "iterations:   %d\n" r.Lp_harness.Driver.iterations;
    Printf.printf "outcome:      %s\n"
      (Lp_harness.Driver.outcome_to_string r.Lp_harness.Driver.outcome);
    Printf.printf "collections:  %d\n" r.Lp_harness.Driver.gc_count;
    Printf.printf "cycles:       %d (%d in the collector)\n"
      r.Lp_harness.Driver.total_cycles r.Lp_harness.Driver.gc_cycles;
    Printf.printf "poisoned:     %d references\n" r.Lp_harness.Driver.references_poisoned;
    Printf.printf "edge types:   %d in the table\n" r.Lp_harness.Driver.edge_table_entries;
    if liveness = Lp_core.Config.Liveness_guide then
      Printf.printf "liveness:     %d veto(es), %d boost(s), %d misprediction(s)\n"
        r.Lp_harness.Driver.liveness_vetoes r.Lp_harness.Driver.liveness_boosts
        r.Lp_harness.Driver.mispredictions;
    if r.Lp_harness.Driver.pruned_edge_types <> [] then begin
      Printf.printf "pruned reference types:\n";
      List.iter
        (fun (s, t) -> Printf.printf "  %s -> %s\n" s t)
        r.Lp_harness.Driver.pruned_edge_types
    end
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ workload_arg $ vm_config $ liveness_arg $ heap_arg
          $ cap_arg $ trace_arg $ exhaustion_arg)

let trace_cmd =
  let doc =
    "Run a workload with the event sink attached and export the trace \
     (JSONL, Chrome trace_event, or a metrics dump). The output is \
     self-validated before it is written: the JSON must parse, spans must \
     nest, and the reclaimed-bytes total of the prune-decision events must \
     equal the metrics registry's prune.bytes_reclaimed counter."
  in
  let workload_arg =
    Arg.(required & opt (some string) None
         & info [ "workload"; "w" ] ~docv:"WORKLOAD"
             ~doc:"Workload to run (see `leakpruner list`; name matching is \
                   case- and separator-insensitive).")
  in
  let cap_arg =
    Arg.(value & opt non_negative 3_000
         & info [ "cap" ] ~docv:"N" ~doc:"Iteration cap (traces are dense; the default keeps them small).")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome); ("metrics", `Metrics) ]) `Jsonl
         & info [ "format"; "f" ] ~docv:"FORMAT"
             ~doc:"Output format: jsonl (one event per line), chrome \
                   (trace_event JSON for chrome://tracing / Perfetto), or \
                   metrics (text dump of the registry snapshot).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let buffer_arg =
    Arg.(value & opt positive 262_144
         & info [ "buffer" ] ~docv:"N"
             ~doc:"Event ring capacity. The default is large enough that \
                   bundled workloads under their default caps drop nothing, \
                   which the prune audit cross-check relies on.")
  in
  let run name config liveness heap cap format out buffer =
    let w = find_workload name in
    let captured = ref None in
    let r =
      Lp_harness.Driver.run ~config ~liveness ?heap_bytes:heap
        ~max_iterations:cap
        ~prepare_vm:(fun vm ->
          ignore (Lp_runtime.Vm.enable_trace ~capacity:buffer vm);
          captured := Some vm)
        w
    in
    let vm = match !captured with Some vm -> vm | None -> assert false in
    let sink =
      match Lp_runtime.Vm.sink vm with Some s -> s | None -> assert false
    in
    let events = Lp_obs.Sink.events sink in
    let dropped = Lp_obs.Sink.dropped sink in
    let registry = Lp_runtime.Vm.registry vm in
    let class_name id =
      if id < 0 then "<none>"
      else
        try Lp_heap.Class_registry.name registry id
        with _ -> Printf.sprintf "class#%d" id
    in
    let snap = Lp_runtime.Vm.metrics_snapshot vm in
    (* Audit cross-check: the trace and the registry must tell the
       same story. Only sound when the ring dropped nothing. *)
    let audit_errors = ref [] in
    let audit msg ok = if not ok then audit_errors := msg :: !audit_errors in
    (if dropped = 0 then begin
       let sum =
         List.fold_left
           (fun acc (st : Lp_obs.Event.stamped) ->
             match st.Lp_obs.Event.ev with
             | Lp_obs.Event.Prune_decision { bytes_reclaimed; _ } ->
               acc + bytes_reclaimed
             | _ -> acc)
           0 events
       in
       let counter =
         match Lp_obs.Metrics.find_counter snap "prune.bytes_reclaimed" with
         | Some v -> v
         | None -> 0
       in
       audit
         (Printf.sprintf
            "prune-decision events sum to %d bytes but prune.bytes_reclaimed \
             is %d"
            sum counter)
         (sum = counter);
       (* liveness prune audit: the trace's veto/boost events and the
          controller's counters must tell the same story *)
       if liveness = Lp_core.Config.Liveness_guide then begin
         let verdicts = ref 0 and vetoes = ref 0 and boosts = ref 0 in
         List.iter
           (fun (st : Lp_obs.Event.stamped) ->
             match st.Lp_obs.Event.ev with
             | Lp_obs.Event.Liveness_verdict _ -> incr verdicts
             | Lp_obs.Event.Liveness_veto _ -> incr vetoes
             | Lp_obs.Event.Liveness_boost _ -> incr boosts
             | _ -> ())
           events;
         let ctl = Lp_runtime.Vm.controller vm in
         audit
           (Printf.sprintf
              "trace has %d liveness veto(es) but the controller counted %d"
              !vetoes
              (Lp_core.Controller.liveness_vetoes ctl))
           (!vetoes = Lp_core.Controller.liveness_vetoes ctl);
         audit
           (Printf.sprintf
              "trace has %d liveness boost(s) but the controller counted %d"
              !boosts
              (Lp_core.Controller.liveness_boosts ctl))
           (!boosts = Lp_core.Controller.liveness_boosts ctl);
         Printf.eprintf
           "leakpruner: trace: prune audit: %d liveness verdict(s), %d \
            veto(es), %d boost(s), %d dead-read(s)\n"
           !verdicts !vetoes !boosts
           (Lp_core.Controller.liveness_dead_reads ctl)
       end
     end
     else
       Printf.eprintf
         "leakpruner: trace: ring dropped %d event(s); audit cross-check \
          skipped (raise --buffer)\n"
         dropped);
    let output =
      match format with
      | `Jsonl ->
        let s = Lp_obs.Export.to_jsonl ~class_name events in
        (match Lp_obs.Json.validate_jsonl s with
        | Ok _ -> ()
        | Error e -> audit (Printf.sprintf "JSONL self-check failed: %s" e) false);
        s
      | `Chrome ->
        let s = Lp_obs.Export.to_chrome_trace ~class_name ~dropped events in
        (match Lp_obs.Json.parse s with
        | Ok _ -> ()
        | Error e -> audit (Printf.sprintf "Chrome trace is not valid JSON: %s" e) false);
        (match
           Lp_obs.Export.check_spans ~allow_truncated_head:(dropped > 0) events
         with
        | Ok _ -> ()
        | Error e -> audit (Printf.sprintf "span nesting check failed: %s" e) false);
        s
      | `Metrics -> Lp_obs.Metrics.to_text snap
    in
    (match out with
    | None -> print_string output
    | Some file ->
      let oc = open_out file in
      output_string oc output;
      close_out oc);
    Printf.eprintf
      "leakpruner: trace: %s ran %d iteration(s) (%s); %d event(s) retained, \
       %d dropped\n"
      r.Lp_harness.Driver.workload r.Lp_harness.Driver.iterations
      (Lp_harness.Driver.outcome_to_string r.Lp_harness.Driver.outcome)
      (List.length events) dropped;
    match !audit_errors with
    | [] -> ()
    | errors ->
      List.iter (Printf.eprintf "leakpruner: trace: AUDIT FAILED: %s\n") errors;
      exit 1
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ workload_arg $ vm_config $ liveness_arg $ heap_arg
          $ cap_arg $ format_arg $ out_arg $ buffer_arg)

let chaos_cmd =
  let doc =
    "Chaos-test the runtime: seeded random workloads under fault injection, \
     with a strict heap verification after every collection."
  in
  let seeds_arg =
    Arg.(value & opt non_negative 100
         & info [ "seeds" ] ~docv:"N" ~doc:"How many seeds to sweep (1..N).")
  in
  let steps_arg =
    Arg.(value & opt non_negative 300
         & info [ "steps" ] ~docv:"N" ~doc:"Workload steps per seed.")
  in
  let no_faults_arg =
    Arg.(value & flag
         & info [ "no-faults" ]
             ~doc:"Run the workloads fault-free (pure invariant sweep).")
  in
  let seed_arg =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Run (and report in detail) this single seed instead of a sweep.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print failures and the summary.")
  in
  let trace_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-dir" ] ~docv:"DIR"
             ~doc:"For every failing seed, re-run its minimal reproduction \
                   with the event sink attached and write a Chrome trace_event \
                   file (chrome://tracing / Perfetto) into DIR.")
  in
  (* The shrink artifact for a failing seed: the minimal reproduction,
     re-run traced, exported as a Chrome trace. Reruns are exact (the
     run is a deterministic function of seed and cap, and tracing never
     changes behaviour), so the trace shows the actual failure. *)
  let write_failure_trace ~faults ~pause_slo ~liveness ~steps ~seed dir =
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let r =
      Lp_harness.Chaos.run_one ~faults ?pause_slo_p99_ns:pause_slo ~liveness
        ~steps ~trace_capacity:65_536 ~seed ()
    in
    let file = Filename.concat dir (Printf.sprintf "chaos_seed_%d.trace.json" seed) in
    let oc = open_out file in
    output_string oc
      (Lp_obs.Export.to_chrome_trace
         ~dropped:r.Lp_harness.Chaos.trace_dropped r.Lp_harness.Chaos.trace);
    close_out oc;
    Printf.printf "seed %d trace written to %s (%d event(s), %d dropped)\n"
      seed file
      (List.length r.Lp_harness.Chaos.trace)
      r.Lp_harness.Chaos.trace_dropped
  in
  let print_report (r : Lp_harness.Chaos.report) =
    Printf.printf
      "seed %4d: %-10s %4d steps, %3d collections, %2d faults fired, %d \
       recovered, %d pruned, %d resurrected, %d safe%s\n"
      r.Lp_harness.Chaos.seed
      (match r.Lp_harness.Chaos.outcome with
      | Lp_harness.Chaos.Survived -> "pass"
      | Lp_harness.Chaos.Clean_stop _ -> "clean-stop"
      | Lp_harness.Chaos.Violation _ -> "VIOLATION"
      | Lp_harness.Chaos.Crash _ -> "CRASH")
      r.Lp_harness.Chaos.steps_run r.Lp_harness.Chaos.gc_count
      r.Lp_harness.Chaos.faults_fired r.Lp_harness.Chaos.recovered
      r.Lp_harness.Chaos.poisoned r.Lp_harness.Chaos.resurrections
      r.Lp_harness.Chaos.safe_entries
      ((if r.Lp_harness.Chaos.liveness_dead_reads > 0 then
          Printf.sprintf "  %d DEAD-READ(S)"
            r.Lp_harness.Chaos.liveness_dead_reads
        else "")
      ^
      match r.Lp_harness.Chaos.outcome with
      | Lp_harness.Chaos.Survived -> ""
      | o -> "  (" ^ Lp_harness.Chaos.outcome_to_string o ^ ")")
  in
  let run seeds steps no_faults seed quiet trace_dir pause_slo liveness =
    let faults = not no_faults in
    match seed with
    | Some seed ->
      let r =
        Lp_harness.Chaos.run_one ~faults ?pause_slo_p99_ns:pause_slo ~liveness
          ~steps ~seed ()
      in
      print_report r;
      (* the reproduce oracle compares untimed state only: with the
         autopilot armed, a traced run would carry wall-clock Slo_adjust
         budgets, but these runs are untraced and every scalar field is
         deterministic by the outcome-neutrality of budgets *)
      (match
         Lp_harness.Chaos.run_one ~faults ?pause_slo_p99_ns:pause_slo
           ~liveness ~steps ~seed ()
       with
      | r' when r' = r -> ()
      | _ -> Printf.printf "WARNING: seed %d did not reproduce identically\n" seed);
      if faults then
        print_endline
          (Lp_fault.Fault_plan.describe (Lp_fault.Fault_plan.random ~seed ()));
      if Lp_harness.Chaos.failed r then begin
        let shrunk =
          Lp_harness.Chaos.shrink ~faults ?pause_slo_p99_ns:pause_slo ~liveness
            ~steps ~seed ()
        in
        (match shrunk with
        | Some n -> Printf.printf "minimal reproduction: %d step(s)\n" n
        | None -> ());
        (match trace_dir with
        | Some dir ->
          write_failure_trace ~faults ~pause_slo ~liveness
            ~steps:(match shrunk with Some n -> n | None -> steps)
            ~seed dir
        | None -> ());
        exit 1
      end;
      (* a guided run that read a Dead_beyond-0 slot falsified the
         oracle: report it as a failure even though the heap is fine *)
      if r.Lp_harness.Chaos.liveness_dead_reads > 0 then exit 1
    | None ->
      let failures = ref 0 in
      let reports =
        Lp_harness.Chaos.run_seeds ~faults ?pause_slo_p99_ns:pause_slo
          ~liveness ~steps ~seeds
          ~progress:(fun r ->
            let bad =
              Lp_harness.Chaos.failed r
              || r.Lp_harness.Chaos.liveness_dead_reads > 0
            in
            if bad then incr failures;
            if (not quiet) || bad then print_report r)
          ()
      in
      let count p = List.length (List.filter p reports) in
      Printf.printf
        "%d seed(s): %d passed, %d clean stops, %d failure(s)%s\n"
        seeds
        (count (fun r -> r.Lp_harness.Chaos.outcome = Lp_harness.Chaos.Survived))
        (count (fun r ->
             match r.Lp_harness.Chaos.outcome with
             | Lp_harness.Chaos.Clean_stop _ -> true
             | _ -> false))
        !failures
        (if no_faults then " (fault-free)" else "");
      List.iter
        (fun r ->
          if Lp_harness.Chaos.failed r then begin
            let seed = r.Lp_harness.Chaos.seed in
            let shrunk =
              Lp_harness.Chaos.shrink ~faults ?pause_slo_p99_ns:pause_slo
                ~liveness ~steps ~seed ()
            in
            (match shrunk with
            | Some n ->
              Printf.printf "seed %d minimal reproduction: %d step(s)\n" seed n
            | None -> ());
            match trace_dir with
            | Some dir ->
              write_failure_trace ~faults ~pause_slo ~liveness
                ~steps:(match shrunk with Some n -> n | None -> steps)
                ~seed dir
            | None -> ()
          end)
        reports;
      if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ seeds_arg $ steps_arg $ no_faults_arg $ seed_arg $ quiet_arg
          $ trace_dir_arg $ pause_slo_arg $ liveness_arg)

let serve_cmd =
  let doc =
    "Run a multi-tenant fleet: N tenant VMs over one shared swap backend, \
     round-robin scheduled with open-loop arrivals, admission control with \
     bounded retry/backoff, per-tenant SAFE isolation and restart-on-fault \
     containment. With --seeds, sweep a fleet-chaos plan over seeds 1..N \
     and write a Chrome trace for every failing seed."
  in
  let tenants_arg =
    Arg.(value & opt positive 4
         & info [ "tenants"; "n" ] ~docv:"N" ~doc:"Fleet size (tenant ids 0..N-1).")
  in
  let workload_arg =
    Arg.(value & opt string "ListLeak"
         & info [ "workload"; "w" ] ~docv:"WORKLOAD"
             ~doc:"Workload every tenant runs (see `leakpruner list`).")
  in
  let heap_arg =
    Arg.(value & opt positive 20_000
         & info [ "heap" ] ~docv:"BYTES" ~doc:"Per-tenant heap size.")
  in
  let quota_arg =
    Arg.(value & opt non_negative 20_000
         & info [ "quota" ] ~docv:"BYTES"
             ~doc:"Per-tenant shared-disk quota (offload admission bound).")
  in
  let force_safe_arg =
    Arg.(value & opt (list non_negative) []
         & info [ "force-safe" ] ~docv:"IDS"
             ~doc:"Comma-separated tenant ids pinned in SAFE state (pruning \
                   moratorium) for their whole life.")
  in
  let sweep_arg =
    Arg.(value & opt (some non_negative) None
         & info [ "seeds" ] ~docv:"N"
             ~doc:"Sweep mode: run the fleet once per seed in 1..N and \
                   report pass/fail per seed (--seed is ignored).")
  in
  let trace_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-dir" ] ~docv:"DIR"
             ~doc:"For every failing run, write the fleet event log as a \
                   Chrome trace_event file (chrome://tracing / Perfetto) \
                   into DIR.")
  in
  let write_fleet_trace dir seed (report : Lp_fleet.Fleet.report) =
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let file =
      Filename.concat dir (Printf.sprintf "fleet_seed_%d.trace.json" seed)
    in
    let oc = open_out file in
    output_string oc
      (Lp_obs.Export.to_chrome_trace
         ~dropped:report.Lp_fleet.Fleet.events_dropped
         report.Lp_fleet.Fleet.events);
    close_out oc;
    Printf.printf "seed %d fleet trace written to %s (%d event(s), %d dropped)\n"
      seed file
      (List.length report.Lp_fleet.Fleet.events)
      report.Lp_fleet.Fleet.events_dropped
  in
  let run options tenants workload heap quota rate force_safe sweep trace_dir
      liveness pause_slo =
    (* a kill or SAFE pin that names no tenant of the fleet, or a kill
       past the last round, would never fire *)
    let reject fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "leakpruner: serve: %s\n" msg;
          exit 2)
        fmt
    in
    let rounds = options.Lp_fleet.Fleet.rounds in
    List.iter
      (fun (r, t) ->
        if t >= tenants then
          reject "--kill %d:%d names tenant %d, but tenant ids are 0..%d" r t t
            (tenants - 1)
        else if r > rounds then
          reject "--kill %d:%d comes after the last round, %d" r t rounds)
      options.Lp_fleet.Fleet.kills;
    List.iter
      (fun id ->
        if id >= tenants then
          reject "--force-safe %d names tenant %d, but tenant ids are 0..%d" id
            id (tenants - 1))
      force_safe;
    let w = find_workload workload in
    let specs =
      List.init tenants (fun id ->
          {
            Lp_fleet.Tenant.id;
            name = Printf.sprintf "tenant-%d" id;
            workload = w;
            heap_bytes = heap;
            quota_bytes = quota;
            rate_per_mille = rate;
            policy = Lp_core.Policy.Default;
            force_safe = List.mem id force_safe;
            resurrection = true;
            liveness;
            pause_slo_p99_ns = pause_slo;
            gc_packet_size = None;
          })
    in
    match sweep with
    | None ->
      let report = Lp_fleet.Fleet.run options specs in
      print_string (Lp_fleet.Fleet.render report);
      if Lp_fleet.Fleet.failed report then begin
        (match trace_dir with
        | Some dir -> write_fleet_trace dir options.Lp_fleet.Fleet.seed report
        | None -> ());
        Printf.eprintf "leakpruner: serve: fleet FAILED (verifier failure or crash)\n";
        exit 1
      end
    | Some n ->
      let failures = ref 0 in
      for seed = 1 to n do
        let options = { options with Lp_fleet.Fleet.seed } in
        let report = Lp_fleet.Fleet.run options specs in
        let failed = Lp_fleet.Fleet.failed report in
        (* the sweep's second oracle: a re-run must reproduce exactly *)
        let reproduced =
          Lp_fleet.Fleet.deterministic_view report
          = Lp_fleet.Fleet.deterministic_view (Lp_fleet.Fleet.run options specs)
        in
        let restarts =
          List.fold_left
            (fun acc (t : Lp_fleet.Fleet.tenant_report) ->
              acc + t.Lp_fleet.Fleet.restarts)
            0 report.Lp_fleet.Fleet.tenant_reports
        in
        Printf.printf "seed %4d: %-14s %2d fault(s), %2d restart(s), %d denial(s)%s\n"
          seed
          (if failed then "FAILED"
           else if not reproduced then "NONDETERMINISTIC"
           else "pass")
          report.Lp_fleet.Fleet.faults_fired restarts
          report.Lp_fleet.Fleet.backend_denials
          (if failed || not reproduced then "  <-- " else "");
        if failed || not reproduced then begin
          incr failures;
          match trace_dir with
          | Some dir -> write_fleet_trace dir seed report
          | None -> ()
        end
      done;
      Printf.printf "%d seed(s): %d failure(s)\n" n !failures;
      if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ fleet_options $ tenants_arg $ workload_arg $ heap_arg
          $ quota_arg $ rate_arg $ force_safe_arg $ sweep_arg $ trace_dir_arg
          $ liveness_arg $ pause_slo_arg)

let experiment_cmd =
  let doc = "Regenerate one of the paper's tables or figures (see bench/main.exe --list)." in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let experiments = Lp_harness.Experiments.all @ Lp_harness.Ablations.all in
  let run id =
    match List.find_opt (fun (eid, _, _) -> eid = id) experiments with
    | Some (_, _, f) -> f ()
    | None ->
      Printf.eprintf "unknown experiment %S; ids:\n" id;
      List.iter
        (fun (eid, title, _) -> Printf.eprintf "  %-12s %s\n" eid title)
        experiments;
      exit 1
  in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(const run $ id_arg)

let () =
  let doc = "Leak pruning (Bond & McKinley, ASPLOS 2009) on a simulated managed runtime" in
  let info = Cmd.info "leakpruner" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; trace_cmd; chaos_cmd; serve_cmd;
            experiment_cmd ]))
