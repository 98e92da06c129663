(* Exact outcomes for every arm of Controller.collect. Each of the four
   policies runs under both prune triggers on ListLeak and SwapLeak at a
   small cap, plus one Liveness_guide run on PhasedCache (whose veto
   path fires) and four boosted guided runs (a raised
   [min_candidate_stale] floor that a boost lowers, so boosts change
   which references qualify), and the deterministic result
   is compared with a pinned line: iterations, outcome, collections,
   bytes reclaimed, references poisoned, pruned edge types and
   simulated cycles. A change to the collector or the controller that
   moves any of them fails here, whatever the loose shape checks of
   test_workloads still accept. *)

open Lp_workloads

let cap = 2_000

let fingerprint (r : Lp_harness.Driver.result) =
  Printf.sprintf "iters=%d outcome=%s gc=%d reclaimed=%d poisoned=%d pruned=[%s] cycles=%d mispredicted=%d vetoes=%d boosts=%d"
    r.Lp_harness.Driver.iterations
    (Lp_harness.Driver.outcome_to_string r.Lp_harness.Driver.outcome)
    r.Lp_harness.Driver.gc_count r.Lp_harness.Driver.bytes_reclaimed
    r.Lp_harness.Driver.references_poisoned
    (String.concat ";"
       (List.map
          (fun (s, t) -> s ^ "->" ^ t)
          r.Lp_harness.Driver.pruned_edge_types))
    r.Lp_harness.Driver.total_cycles r.Lp_harness.Driver.mispredictions
    r.Lp_harness.Driver.liveness_vetoes
    r.Lp_harness.Driver.liveness_boosts

(* How a row uses the static liveness oracle. [Guide] installs the
   workload's oracle and turns resurrection on, so a veto shows up as a
   misprediction it prevented. [Boost] is [Guide] with the candidate
   floor raised to 3 and a boost of 2: at the default floor of 2 the
   [maxstaleuse]-plus-slack guard already demands more staleness than a
   boosted floor, so a boost never changes a result there. *)
type liveness = Off | Guide | Boost

let run liveness policy trigger (w : Workload.t) =
  let guide = liveness <> Off in
  let config =
    match liveness with
    | Boost ->
      Lp_core.Config.make ~policy ~prune_trigger:trigger ~min_candidate_stale:3
        ~liveness_boost:2 ()
    | Off | Guide -> Lp_core.Config.make ~policy ~prune_trigger:trigger ()
  in
  fingerprint
    (Lp_harness.Driver.run ~config
       ~liveness:
         (if guide then Lp_core.Config.Liveness_guide
          else Lp_core.Config.Liveness_off)
       ~resurrection:guide ~max_iterations:cap w)

let trigger_name = function
  | Lp_core.Config.On_select_gc -> "select-gc"
  | Lp_core.Config.On_exhaustion -> "exhaustion"

(* (workload, policy, trigger, liveness, pinned fingerprint) *)
let pinned =
  [
    (List_leak.workload, Lp_core.Policy.Default, Lp_core.Config.On_select_gc, Off,
      "iters=2000 outcome=reached cap gc=52 reclaimed=1197840 poisoned=18 pruned=[ListLeak$Node->ListLeak$Node;ListLeak$Node->ListLeak$Payload] cycles=3161658 mispredicted=0 vetoes=0 boosts=0");
    (List_leak.workload, Lp_core.Policy.Default, Lp_core.Config.On_exhaustion, Off,
      "iters=2000 outcome=reached cap gc=52 reclaimed=1197840 poisoned=18 pruned=[ListLeak$Node->ListLeak$Node;ListLeak$Node->ListLeak$Payload] cycles=3161658 mispredicted=0 vetoes=0 boosts=0");
    (List_leak.workload, Lp_core.Policy.Most_stale, Lp_core.Config.On_select_gc, Off,
      "iters=2000 outcome=reached cap gc=50 reclaimed=1199312 poisoned=24 pruned=[] cycles=3030794 mispredicted=0 vetoes=0 boosts=0");
    (List_leak.workload, Lp_core.Policy.Most_stale, Lp_core.Config.On_exhaustion, Off,
      "iters=2000 outcome=reached cap gc=50 reclaimed=1199312 poisoned=24 pruned=[] cycles=3030794 mispredicted=0 vetoes=0 boosts=0");
    (List_leak.workload, Lp_core.Policy.Individual_refs, Lp_core.Config.On_select_gc, Off,
      "iters=2000 outcome=reached cap gc=73 reclaimed=1186416 poisoned=9683 pruned=[ListLeak$Node->ListLeak$Payload;ListLeak$Node->ListLeak$Node] cycles=4245187 mispredicted=0 vetoes=0 boosts=0");
    (List_leak.workload, Lp_core.Policy.Individual_refs, Lp_core.Config.On_exhaustion, Off,
      "iters=2000 outcome=reached cap gc=73 reclaimed=1186416 poisoned=9683 pruned=[ListLeak$Node->ListLeak$Payload;ListLeak$Node->ListLeak$Node] cycles=4245187 mispredicted=0 vetoes=0 boosts=0");
    (List_leak.workload, Lp_core.Policy.None_, Lp_core.Config.On_select_gc, Off,
      "iters=161 outcome=out of memory gc=1 reclaimed=0 poisoned=0 pruned=[] cycles=170076 mispredicted=0 vetoes=0 boosts=0");
    (List_leak.workload, Lp_core.Policy.None_, Lp_core.Config.On_exhaustion, Off,
      "iters=161 outcome=out of memory gc=1 reclaimed=0 poisoned=0 pruned=[] cycles=170076 mispredicted=0 vetoes=0 boosts=0");
    (Swap_leak.workload, Lp_core.Policy.Default, Lp_core.Config.On_select_gc, Off,
      "iters=2000 outcome=reached cap gc=85 reclaimed=2679680 poisoned=24 pruned=[SwapLeak$Session->SwapLeak$Session] cycles=3594175 mispredicted=0 vetoes=0 boosts=0");
    (Swap_leak.workload, Lp_core.Policy.Default, Lp_core.Config.On_exhaustion, Off,
      "iters=2000 outcome=reached cap gc=90 reclaimed=2702600 poisoned=24 pruned=[SwapLeak$Session->SwapLeak$Session] cycles=3770379 mispredicted=0 vetoes=0 boosts=0");
    (Swap_leak.workload, Lp_core.Policy.Most_stale, Lp_core.Config.On_select_gc, Off,
      "iters=2000 outcome=reached cap gc=111 reclaimed=2680232 poisoned=80 pruned=[] cycles=4215241 mispredicted=0 vetoes=0 boosts=0");
    (Swap_leak.workload, Lp_core.Policy.Most_stale, Lp_core.Config.On_exhaustion, Off,
      "iters=2000 outcome=reached cap gc=111 reclaimed=2685768 poisoned=80 pruned=[] cycles=4224110 mispredicted=0 vetoes=0 boosts=0");
    (Swap_leak.workload, Lp_core.Policy.Individual_refs, Lp_core.Config.On_select_gc, Off,
      "iters=2000 outcome=reached cap gc=101 reclaimed=2698800 poisoned=7051 pruned=[SwapLeak$Session->SwapLeak$Buffer;SwapLeak$Session->SwapLeak$Session] cycles=6228220 mispredicted=0 vetoes=0 boosts=0");
    (Swap_leak.workload, Lp_core.Policy.Individual_refs, Lp_core.Config.On_exhaustion, Off,
      "iters=2000 outcome=reached cap gc=105 reclaimed=2683544 poisoned=7001 pruned=[SwapLeak$Session->SwapLeak$Buffer;SwapLeak$Session->SwapLeak$Session] cycles=6315770 mispredicted=0 vetoes=0 boosts=0");
    (Swap_leak.workload, Lp_core.Policy.None_, Lp_core.Config.On_select_gc, Off,
      "iters=173 outcome=out of memory gc=11 reclaimed=139784 poisoned=0 pruned=[] cycles=403300 mispredicted=0 vetoes=0 boosts=0");
    (Swap_leak.workload, Lp_core.Policy.None_, Lp_core.Config.On_exhaustion, Off,
      "iters=173 outcome=out of memory gc=11 reclaimed=139784 poisoned=0 pruned=[] cycles=403300 mispredicted=0 vetoes=0 boosts=0");
    (Phased_cache.workload, Lp_core.Policy.Default, Lp_core.Config.On_select_gc, Guide,
      "iters=2000 outcome=reached cap gc=3416 reclaimed=8818314 poisoned=142 pruned=[PhasedCache$LeakNode->PhasedCache$LeakNode] cycles=8994188 mispredicted=0 vetoes=48 boosts=0");
    (List_leak.workload, Lp_core.Policy.Default, Lp_core.Config.On_select_gc, Boost,
      "iters=2000 outcome=reached cap gc=52 reclaimed=1197840 poisoned=18 pruned=[ListLeak$Node->ListLeak$Node;ListLeak$Node->ListLeak$Payload] cycles=3161658 mispredicted=0 vetoes=0 boosts=1659");
    (Swap_leak.workload, Lp_core.Policy.Default, Lp_core.Config.On_select_gc, Boost,
      "iters=2000 outcome=reached cap gc=85 reclaimed=2679680 poisoned=24 pruned=[SwapLeak$Session->SwapLeak$Session] cycles=3594175 mispredicted=0 vetoes=0 boosts=96");
    (Phased_cache.workload, Lp_core.Policy.Default, Lp_core.Config.On_select_gc, Boost,
      "iters=2000 outcome=reached cap gc=3416 reclaimed=8818314 poisoned=142 pruned=[PhasedCache$LeakNode->PhasedCache$LeakNode] cycles=8994188 mispredicted=0 vetoes=48 boosts=568");
    (Adapton_hull.workload, Lp_core.Policy.Default, Lp_core.Config.On_select_gc, Boost,
      "iters=2000 outcome=reached cap gc=3148 reclaimed=8975434 poisoned=140 pruned=[AdaptonHull$Trace->AdaptonHull$Trace] cycles=8050188 mispredicted=0 vetoes=30 boosts=320")
  ]

let case (w, policy, trigger, liveness, expected) =
  let name =
    Printf.sprintf "%s %s %s%s" w.Workload.name
      (Lp_core.Policy.to_string policy) (trigger_name trigger)
      (match liveness with Off -> "" | Guide -> " guide" | Boost -> " boost")
  in
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (run liveness policy trigger w))

let suite = ("collect_arms", List.map case pinned)
