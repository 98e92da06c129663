open Lp_runtime
module Config = Lp_core.Config
module Fleet = Lp_fleet.Fleet
module Tenant = Lp_fleet.Tenant
module Workload = Lp_workloads.Workload

type metric = { name : string; unit_ : string; value : float }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  info : (string * string) list;
}

let workloads = [ "leak-steady"; "pool-overhead"; "fleet-serve" ]

let end_to_end_names =
  [ "setup_s"; "iters_per_s"; "gc_pause_p50_ms"; "gc_pause_tail_ms"; "peak_heap_mb"; "ok_share" ]

let states = Lp_core.State_kind.[ Inactive; Observe; Select; Prune; Safe ]

let per_layer_names =
  [
    "mutator.read_fast_calls"; "mutator.read_fast_ns"; "mutator.read_cold_calls";
    "mutator.read_cold_ns"; "mutator.read_resurrect_calls"; "mutator.read_resurrect_ns";
    "mutator.write_calls"; "mutator.write_ns"; "vm.alloc_fast_calls"; "vm.alloc_fast_ns";
    "vm.alloc_gc_calls"; "vm.alloc_gc_ns"; "collector.gc_count"; "collector.gc_ns";
    "collector.mark_ns"; "collector.sweep_rest_ns"; "collector.gc_share";
    "collector.mark_slice_count"; "collector.sweep_slice_count";
  ]
  @ List.concat_map
      (fun s ->
        let s = String.lowercase_ascii (Lp_core.State_kind.to_string s) in
        [ Printf.sprintf "controller.gc_%s_count" s; Printf.sprintf "controller.gc_%s_ns" s ])
      states
  @ [
      "controller.unsplit_collections"; "controller.refs_poisoned";
      "controller.bytes_reclaimed"; "controller.edge_table_entries";
      "controller.mispredictions"; "autopilot.adjustments"; "autopilot.escalations";
      "diskswap.swap_outs"; "diskswap.swap_ins"; "diskswap.images";
      "diskswap.admission_denials"; "fleet.request_p50_ns"; "fleet.request_p99_ns";
      "fleet.served"; "fleet.shed"; "fleet.restarts_warm"; "fleet.restarts_cold";
      "fleet.overhead_ns"; "ledger.wall_ns"; "ledger.residual_ns"; "ledger.residual_share";
      "trace.overhead"; "cost.sim_gc_share"; "cost.share_ratio"; "cost.share_flag";
    ]

(* ------------------------------------------------------------------ *)
(* Workload shapes. Units per second are calibrated so one run of
   [seconds] takes about that long on a 2-core x86-64 host. *)

type shape = {
  warm : int;  (** untimed iterations at the start of each block *)
  iters : int;  (** timed iterations per block *)
  units_per_s : float;
  elasticity : float;  (** host-speed exponent, see [nominal_ref_ns] *)
}

let leak_shape = { warm = 1_500; iters = 50_000; units_per_s = 3.0; elasticity = 1.5 }
let pool_shape = { warm = 100; iters = 10_000; units_per_s = 0.9; elasticity = 1.5 }
let fleet_rounds = 640
let fleet_units_per_s = 2.5
let fleet_elasticity = 2.0

let units_for ~workload ~seconds =
  let rate =
    match workload with
    | "leak-steady" -> leak_shape.units_per_s
    | "pool-overhead" -> pool_shape.units_per_s
    | "fleet-serve" -> fleet_units_per_s
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  max 3 (int_of_float (Float.round (rate *. float_of_int seconds)))

(* ------------------------------------------------------------------ *)
(* Per-layer accounting over the VMs of traced units. A window is the
   part of one VM's life that was measured: everything after its
   [*_lo] marks. *)

type window = {
  vm : Vm.t;
  gc_lo : int;
  samples_lo : int;
  cycles_lo : int;
  gc_cycles_lo : int;
  poisoned_lo : int;
  reclaimed_lo : int;
}

let open_window vm =
  let st = Vm.stats vm in
  {
    vm;
    gc_lo = List.length (Vm.gc_history vm);
    samples_lo = List.length (Vm.pause_samples vm);
    cycles_lo = Vm.cycles vm;
    gc_cycles_lo = Vm.gc_cycles vm;
    poisoned_lo = st.Lp_heap.Gc_stats.references_poisoned;
    reclaimed_lo = st.Lp_heap.Gc_stats.bytes_reclaimed;
  }

let whole_life vm =
  { vm; gc_lo = 0; samples_lo = 0; cycles_lo = 0; gc_cycles_lo = 0; poisoned_lo = 0; reclaimed_lo = 0 }

type acc = {
  state_count : int array;
  state_ns : int array;
  mutable unsplit : int;
  mutable mark_slices : int;
  mutable sweep_slices : int;
  mutable sim_cycles : int;
  mutable sim_gc_cycles : int;
  mutable poisoned : int;
  mutable reclaimed : int;
  mutable edge_entries : int;
  mutable mispredictions : int;
  mutable adjustments : int;
  mutable escalations : int;
  mutable stores : Diskswap.t list;
}

let new_acc () =
  {
    state_count = Array.make (List.length states) 0;
    state_ns = Array.make (List.length states) 0;
    unsplit = 0;
    mark_slices = 0;
    sweep_slices = 0;
    sim_cycles = 0;
    sim_gc_cycles = 0;
    poisoned = 0;
    reclaimed = 0;
    edge_entries = 0;
    mispredictions = 0;
    adjustments = 0;
    escalations = 0;
    stores = [];
  }

let rec drop n = function _ :: tl when n > 0 -> drop (n - 1) tl | l -> l

let state_index s =
  let rec go i = function
    | x :: _ when x = s -> i
    | _ :: tl -> go (i + 1) tl
    | [] -> assert false
  in
  go 0 states

(* Groups phase-tagged pause samples into collections: a [Monolithic]
   sample is a whole collection; a sliced collection is a run of mark
   slices followed by its sweep slices. *)
let per_collection samples =
  let open Lp_heap.Trace_engine in
  let flush cur acc = if cur = 0 then acc else cur :: acc in
  let rec go acc cur prev = function
    | [] -> List.rev (flush cur acc)
    | (Monolithic, ns) :: tl -> go (ns :: flush cur acc) 0 Monolithic tl
    | (Mark_slice, ns) :: tl when prev = Sweep_slice -> go (flush cur acc) ns Mark_slice tl
    | (ph, ns) :: tl -> go acc (cur + ns) ph tl
  in
  go [] 0 Monolithic samples

let account acc w =
  let vm = w.vm in
  let history = drop w.gc_lo (Vm.gc_history vm) in
  let samples = drop w.samples_lo (Vm.pause_samples vm) in
  List.iter
    (fun (ph, _) ->
      match ph with
      | Lp_heap.Trace_engine.Mark_slice -> acc.mark_slices <- acc.mark_slices + 1
      | Sweep_slice -> acc.sweep_slices <- acc.sweep_slices + 1
      | Monolithic -> ())
    samples;
  let durations = per_collection samples in
  let split = List.length durations = List.length history in
  if not split then acc.unsplit <- acc.unsplit + List.length history;
  List.iteri
    (fun i (r : Vm.gc_record) ->
      let k = state_index r.Vm.state in
      acc.state_count.(k) <- acc.state_count.(k) + 1;
      if split then acc.state_ns.(k) <- acc.state_ns.(k) + List.nth durations i)
    history;
  let st = Vm.stats vm and c = Vm.controller vm in
  acc.sim_cycles <- acc.sim_cycles + Vm.cycles vm - w.cycles_lo;
  acc.sim_gc_cycles <- acc.sim_gc_cycles + Vm.gc_cycles vm - w.gc_cycles_lo;
  acc.poisoned <- acc.poisoned + st.Lp_heap.Gc_stats.references_poisoned - w.poisoned_lo;
  acc.reclaimed <- acc.reclaimed + st.Lp_heap.Gc_stats.bytes_reclaimed - w.reclaimed_lo;
  acc.edge_entries <-
    max acc.edge_entries
      (Lp_core.Edge_table.entry_count (Lp_core.Controller.edge_table c));
  acc.mispredictions <- acc.mispredictions + Lp_core.Controller.mispredictions c;
  (match Vm.autopilot vm with
  | Some ap ->
    acc.adjustments <- acc.adjustments + Lp_slo.Autopilot.adjustments ap;
    acc.escalations <- acc.escalations + Lp_slo.Autopilot.escalations ap
  | None -> ());
  let store = Vm.swap vm in
  if not (List.memq store acc.stores) then acc.stores <- store :: acc.stores

(* ------------------------------------------------------------------ *)
(* Host speed. On a shared host the same code runs up to a third slower
   for whole minutes, and the slowdown follows the memory system (a
   pure-ALU loop does not track it). So every unit is bracketed by a
   fixed pointer chase around a 128 KiB cycle (a full-period LCG
   permutation, so no prefetcher follows it): the fastest of eight
   chases of 100k dependent loads. [ref] is the mean of the chases
   before and after the unit, and timings are reported at the nominal
   host speed: a time is scaled by [(nominal_ref_ns / ref) ** k], a
   rate by the inverse. The workloads, whose heaps reach beyond the
   probe's cache level, slow more than the probe does: [k] is the
   elasticity fitted over twenty runs of each on a 2-core host (see
   README.md). The raw figures are printed too. *)

let nominal_ref_ns = 450_000.

let chain =
  let n = 16_384 in
  Array.init n (fun i -> ((i * 40_505) + 1) land (n - 1))

let reference_ns () =
  let best = ref max_int in
  for _ = 1 to 8 do
    let t0 = Clock.now_ns () in
    let j = ref 0 in
    for _ = 1 to 100_000 do
      j := chain.(!j)
    done;
    ignore (Sys.opaque_identity !j);
    best := min !best (Clock.now_ns () - t0)
  done;
  float_of_int !best

(* ------------------------------------------------------------------ *)
(* Shared reporting. *)

let fl = float_of_int

type pauses = { count : int; p50_ns : float; tail_p : float; tail_ns : float }

(* Summarises per-collection pauses as soon as a unit ends, so units keep
   no samples (and the process peak is the runtime's, not the
   benchmark's). *)
let pauses samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let tail_p, tail_ns = Stats.tail a in
  { count = Array.length a; p50_ns = Stats.central_mean a; tail_p; tail_ns = fl tail_ns }

type unit_result = {
  traced : bool;
  setup_ns : int;
  wall_ns : int;
  work : int;  (** timed iterations completed (blocks) or served requests (sessions) *)
  ref_ns : float;  (** host-speed reference around the unit; set by {!measure} *)
  attempted : int;  (** operations the unit was due: planned iterations or arrivals *)
  failed : int;  (** of those, failed or refused ones in a unit with no problem *)
  pauses : pauses;  (** the unit's measured per-collection pauses *)
  fingerprint : string;
  problems : string list;
}

(* Fleet totals over traced sessions; all zero for standalone runs. *)
type session_counts = {
  mutable served : int;
  mutable shed : int;
  mutable warm : int;
  mutable cold : int;
  mutable overhead : int;  (** session wall time not spent in requests *)
}

let new_counts () = { served = 0; shed = 0; warm = 0; cold = 0; overhead = 0 }

let m name unit_ value = { name; unit_; value }

let peak_heap_mb () =
  fl ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* A unit with a problem or a fingerprint other than the first unit's
   failed as a whole: every operation it was due counts as failed, and
   its timings are left out. Every good unit after the warm-up is
   measured; [untimed] are the untraced ones, which give the end-to-end
   figures. *)
let summarize ~trace ~acc ~counts ~elasticity (units : unit_result list) =
  let first = List.hd units in
  let mismatched u = u.fingerprint <> first.fingerprint in
  let bad u = u.problems <> [] || mismatched u in
  let measured = List.filter (fun u -> not (bad u)) (List.tl units) in
  let untimed = List.filter (fun u -> not u.traced) measured
  and traced = List.filter (fun u -> u.traced) measured in
  let speed u = (nominal_ref_ns /. u.ref_ns) ** elasticity in
  let rate u = fl u.work /. (fl u.wall_ns /. 1e9) in
  let median_rate ~normal us =
    Stats.median (List.map (fun u -> if normal then rate u /. speed u else rate u) us)
  in
  let problems =
    List.concat_map (fun u -> u.problems) units
    @ List.filter_map
        (fun u ->
          if mismatched u then
            Some (Printf.sprintf "fingerprint %s differs from %s" u.fingerprint first.fingerprint)
          else None)
        units
  in
  let attempted = List.fold_left (fun a u -> a + u.attempted) 0 units in
  let failed =
    List.fold_left (fun a u -> a + if bad u then u.attempted else u.failed) 0 units
  in
  (* Pause statistics per unit (each unit is the same work, so its own
     percentiles are comparable), then the median over units: a unit
     that a burst of host load hit cannot move them. *)
  let per_unit f = Stats.median (List.map (fun u -> f u.pauses *. speed u) untimed) in
  let shape =
    match untimed with
    | u :: _ -> u.pauses
    | [] -> { count = 0; p50_ns = nan; tail_p = nan; tail_ns = nan }
  in
  let info =
    [
      ("fingerprint", json_string first.fingerprint);
      ("host_ref_ns", Printf.sprintf "%.0f" (Stats.median (List.map (fun u -> u.ref_ns) untimed)));
      ("raw_iters_per_s", Printf.sprintf "%.1f" (median_rate ~normal:false untimed));
      ("units", string_of_int (List.length units));
      ("gc_pause_samples_per_unit", string_of_int shape.count);
      ("gc_pause_tail_percentile", Printf.sprintf "%g" shape.tail_p);
      ("problems", "[" ^ String.concat ", " (List.map json_string problems) ^ "]");
    ]
  in
  let metrics =
    if not trace then
      [
        m "setup_s" "s"
          (Stats.median (List.map (fun u -> fl u.setup_ns *. speed u /. 1e9) measured));
        m "iters_per_s" "iter/s" (median_rate ~normal:true untimed);
        m "gc_pause_p50_ms" "ms" (per_unit (fun p -> p.p50_ns) /. 1e6);
        m "gc_pause_tail_ms" "ms" (per_unit (fun p -> p.tail_ns) /. 1e6);
        m "peak_heap_mb" "MB" (peak_heap_mb ());
        m "ok_share" "ratio" (1. -. (fl failed /. fl (max 1 attempted)));
      ]
    else begin
      let t = Ledger.totals () in
      let overhead_ns = counts.overhead in
      let sweep_rest = t.gc_ns - t.mark_ns in
      let selves =
        [
          t.read_fast_ns; t.read_cold_ns; t.read_resurrect_ns; t.write_ns; t.alloc_fast_ns;
          t.alloc_gc_ns; t.mark_ns; sweep_rest; overhead_ns;
        ]
      in
      let residual = t.wall_ns - List.fold_left ( + ) 0 selves in
      let share num den = if den = 0 then 0. else fl num /. fl den in
      let gc_share = share t.gc_ns t.wall_ns in
      let sim_share = share acc.sim_gc_cycles acc.sim_cycles in
      let ratio =
        if gc_share <= 0. || sim_share <= 0. then 0.
        else Float.max (gc_share /. sim_share) (sim_share /. gc_share)
      in
      let lat p = Lp_obs.Aggregate.percentile (Ledger.request_latencies ()) ~p in
      let sum_stores f = List.fold_left (fun a s -> a + f s) 0 acc.stores in
      let count name v = m name "count" (fl v) and ns name v = m name "ns" (fl v) in
      [
        count "mutator.read_fast_calls" t.read_fast_calls;
        ns "mutator.read_fast_ns" t.read_fast_ns;
        count "mutator.read_cold_calls" t.read_cold_calls;
        ns "mutator.read_cold_ns" t.read_cold_ns;
        count "mutator.read_resurrect_calls" t.read_resurrect_calls;
        ns "mutator.read_resurrect_ns" t.read_resurrect_ns;
        count "mutator.write_calls" t.write_calls;
        ns "mutator.write_ns" t.write_ns;
        count "vm.alloc_fast_calls" t.alloc_fast_calls;
        ns "vm.alloc_fast_ns" t.alloc_fast_ns;
        count "vm.alloc_gc_calls" t.alloc_gc_calls;
        ns "vm.alloc_gc_ns" t.alloc_gc_ns;
        count "collector.gc_count" t.gc_count;
        ns "collector.gc_ns" t.gc_ns;
        ns "collector.mark_ns" t.mark_ns;
        ns "collector.sweep_rest_ns" sweep_rest;
        m "collector.gc_share" "ratio" gc_share;
        count "collector.mark_slice_count" acc.mark_slices;
        count "collector.sweep_slice_count" acc.sweep_slices;
      ]
      @ List.concat
          (List.mapi
             (fun i s ->
               let s = String.lowercase_ascii (Lp_core.State_kind.to_string s) in
               [
                 count (Printf.sprintf "controller.gc_%s_count" s) acc.state_count.(i);
                 ns (Printf.sprintf "controller.gc_%s_ns" s) acc.state_ns.(i);
               ])
             states)
      @ [
          count "controller.unsplit_collections" acc.unsplit;
          count "controller.refs_poisoned" acc.poisoned;
          m "controller.bytes_reclaimed" "bytes" (fl acc.reclaimed);
          count "controller.edge_table_entries" acc.edge_entries;
          count "controller.mispredictions" acc.mispredictions;
          count "autopilot.adjustments" acc.adjustments;
          count "autopilot.escalations" acc.escalations;
          count "diskswap.swap_outs" (sum_stores Diskswap.total_swap_outs);
          count "diskswap.swap_ins" (sum_stores Diskswap.total_swap_ins);
          count "diskswap.images" (sum_stores Diskswap.image_writes);
          count "diskswap.admission_denials" (sum_stores Diskswap.admission_denials);
          ns "fleet.request_p50_ns" (lat 50.);
          ns "fleet.request_p99_ns" (lat 99.);
          count "fleet.served" counts.served;
          count "fleet.shed" counts.shed;
          count "fleet.restarts_warm" counts.warm;
          count "fleet.restarts_cold" counts.cold;
          ns "fleet.overhead_ns" overhead_ns;
          ns "ledger.wall_ns" t.wall_ns;
          ns "ledger.residual_ns" residual;
          m "ledger.residual_share" "ratio" (share residual t.wall_ns);
          m "trace.overhead" "ratio"
            (median_rate ~normal:true untimed /. median_rate ~normal:true traced);
          m "cost.sim_gc_share" "ratio" sim_share;
          m "cost.share_ratio" "ratio" ratio;
          count "cost.share_flag" (if ratio > 2. then 1 else 0);
        ]
    end
  in
  { correct = problems = [] && failed = 0; attempted; failed; metrics; info }

(* ------------------------------------------------------------------ *)
(* Standalone workloads: one fresh VM per block. *)

let exn_name e = match Lp_core.Errors.label e with Some l -> l | None -> Printexc.to_string e

(* Iterations stop at the first exception, which becomes the block's
   problem; the block then failed as a whole (see {!summarize}). *)
let standalone_block ~(program : Workload.t) ~(shape : shape) ~traced ~acc ~check =
  let t0 = Clock.now_ns () in
  let vm = Vm.create ~heap_bytes:program.default_heap_bytes () in
  let iterate = program.prepare vm in
  let setup_ns = Clock.now_ns () - t0 in
  let problems = ref [] and iterations = ref 0 in
  (* Runs up to [n] iterations and returns how many completed. *)
  let run n =
    let rec go i =
      if i = n then i
      else
        match iterate () with
        | () ->
          incr iterations;
          go (i + 1)
        | exception e ->
          problems := exn_name e :: !problems;
          i
    in
    go 0
  in
  let warmed = run shape.warm = shape.warm in
  let w = open_window vm in
  Ledger.tracing := traced;
  let t1 = Clock.now_ns () in
  let work = if warmed then Ledger.block "block" (fun () -> run shape.iters) else 0 in
  let wall_ns = Clock.now_ns () - t1 in
  Ledger.tracing := false;
  if traced then account acc w;
  let st = Vm.stats vm in
  let fingerprint =
    Printf.sprintf "gc=%d reclaimed=%d poisoned=%d iterations=%d" (Vm.gc_count vm)
      st.Lp_heap.Gc_stats.bytes_reclaimed st.Lp_heap.Gc_stats.references_poisoned !iterations
  in
  problems := check vm @ !problems;
  let pauses = pauses (per_collection (drop w.samples_lo (Vm.pause_samples vm))) in
  Vm.shutdown vm;
  {
    traced;
    setup_ns;
    wall_ns;
    work;
    ref_ns = 0.;
    attempted = shape.warm + shape.iters;
    failed = 0;
    pauses;
    fingerprint;
    problems = !problems;
  }

let leak_check vm =
  if (Vm.stats vm).Lp_heap.Gc_stats.references_poisoned = 0 then
    [ "leak-steady never pruned" ]
  else []

let pool_check vm =
  let poisoned = (Vm.stats vm).Lp_heap.Gc_stats.references_poisoned in
  if poisoned > 0 then [ Printf.sprintf "pool-overhead poisoned %d references" poisoned ]
  else []

let standalone_program ~workload ~seed =
  match workload with
  | "leak-steady" -> (Gen.leak ~seed, leak_shape, leak_check)
  | "pool-overhead" -> (Gen.pool ~seed, pool_shape, pool_check)
  | w -> invalid_arg ("not a standalone workload: " ^ w)

(* ------------------------------------------------------------------ *)
(* fleet-serve: repeated Fleet.run sessions over four generated tenants. *)

let fleet_kills = [ (4, 2); (20, 0); (36, 1) ]

(* The VMs every tenant incarnation of the current session booted. *)
let session_vms : Vm.t list ref = ref []

let instrument (w : Workload.t) =
  {
    w with
    Workload.prepare =
      (fun vm ->
        session_vms := vm :: !session_vms;
        let iterate = w.Workload.prepare vm in
        fun () -> Ledger.request iterate);
  }

(* The seed drives the tenants' arrival streams; each tenant's program
   has a fixed seed of its own. Program inputs reshape a tenant's
   collections (its live size at each collection), and with four
   tenants pooled that moved the pause median by a tenth between seeds;
   leak-steady and pool-overhead already vary programs by seed.

   The pause SLO sits on the pool tenant. On a leak tenant SELECT
   predicts a stale closure of most of the heap, so the autopilot
   escalates to a second collector domain, and on a 2-core host that
   domain made session timings and the process's heap peak swing by a
   sixth between runs. *)
let fleet_rate_per_mille = 1_800

let fleet_specs () =
  let spec id name (workload : Workload.t) ~resurrection ~slo =
    {
      Tenant.id;
      name;
      workload = instrument workload;
      heap_bytes = workload.default_heap_bytes;
      quota_bytes = workload.default_heap_bytes;
      rate_per_mille = fleet_rate_per_mille;
      policy = Lp_core.Policy.Default;
      force_safe = false;
      resurrection;
      liveness = Config.Liveness_off;
      pause_slo_p99_ns = slo;
      gc_packet_size = None;
    }
  in
  [
    spec 0 "leak-res" (Gen.leak ~seed:1) ~resurrection:true ~slo:None;
    spec 1 "leak-seq" (Gen.leak ~seed:2) ~resurrection:false ~slo:None;
    spec 2 "pool-slo" (Gen.pool ~seed:3) ~resurrection:false ~slo:(Some 50_000);
    spec 3 "reread" (Gen.reread ~seed:4) ~resurrection:true ~slo:None;
  ]

let fleet_options ~seed =
  { (Fleet.default_options ~seed ~rounds:fleet_rounds ()) with Fleet.kills = fleet_kills }

let fleet_session ~seed ~traced ~acc ~counts =
  session_vms := [];
  Ledger.reset_first_request ();
  let specs = fleet_specs () in
  let requests_before = (Ledger.totals ()).Ledger.request_ns in
  Ledger.tracing := traced;
  let t0 = Clock.now_ns () in
  let result = try Ok (Ledger.block "session" (fun () -> Fleet.run (fleet_options ~seed) specs)) with e -> Error e in
  let wall_ns = Clock.now_ns () - t0 in
  Ledger.tracing := false;
  let setup_ns =
    match Ledger.first_request_ns () with Some t -> t - t0 | None -> wall_ns
  in
  let vms = !session_vms in
  session_vms := [];
  let pauses = pauses (List.concat_map (fun vm -> per_collection (Vm.pause_samples vm)) vms) in
  match result with
  | Error e ->
    (* A crashed session is due every arrival its rounds would have
       brought: the mean rate over every round and tenant. *)
    let due = fleet_rounds * fleet_rate_per_mille * List.length specs / 1000 in
    {
      traced;
      setup_ns;
      wall_ns;
      work = 0;
      ref_ns = 0.;
      attempted = due;
      failed = due;
      pauses;
      fingerprint = "fleet-crash";
      problems = [ exn_name e ];
    }
  | Ok report ->
    let tr = report.Fleet.tenant_reports in
    let sum f = List.fold_left (fun a t -> a + f t) 0 tr in
    let served = sum (fun t -> t.Fleet.served)
    and arrived = sum (fun t -> t.Fleet.arrived)
    and shed =
      sum (fun t -> t.Fleet.shed_queue + t.shed_deadline + t.shed_retries + t.shed_retired)
    and recovered = sum (fun t -> t.Fleet.recovered)
    and restarts = sum (fun t -> t.Fleet.restarts)
    and kills = sum (fun t -> t.Fleet.kills)
    and warm = sum (fun t -> t.Fleet.warm_restarts)
    and cold = sum (fun t -> t.Fleet.cold_restarts)
    and verifier_failures = sum (fun t -> t.Fleet.verifier_failures)
    and crashes = sum (fun t -> t.Fleet.crashes)
    and resurrections = sum (fun t -> t.Fleet.resurrections) in
    let problems =
      List.filter_map
        (fun (bad, what) -> if bad then Some what else None)
        [
          (verifier_failures > 0, Printf.sprintf "%d verifier failures" verifier_failures);
          (crashes > 0, Printf.sprintf "%d crashes" crashes);
          (warm = 0, "no warm restart");
          (cold = 0, "no cold restart");
          (resurrections = 0, "no resurrection");
        ]
    in
    if traced then begin
      List.iter (fun vm -> account acc (whole_life vm)) vms;
      counts.served <- counts.served + served;
      counts.shed <- counts.shed + shed;
      counts.warm <- counts.warm + warm;
      counts.cold <- counts.cold + cold;
      counts.overhead <-
        counts.overhead + wall_ns - ((Ledger.totals ()).Ledger.request_ns - requests_before)
    end;
    {
      traced;
      setup_ns;
      wall_ns;
      work = served;
      ref_ns = 0.;
      attempted = arrived;
      failed = shed + recovered + (restarts - kills);
      pauses;
      fingerprint =
        Printf.sprintf "gc=%d reclaimed=%d poisoned=%d served=%d shed=%d restarts=%d view=%s"
          (sum (fun t -> t.Fleet.gc_count))
          (sum (fun t -> t.Fleet.bytes_reclaimed))
          (sum (fun t -> t.Fleet.references_poisoned))
          served shed restarts
          (Digest.to_hex (Digest.string (Fleet.deterministic_view report)));
      problems;
    }

(* ------------------------------------------------------------------ *)

let run ~workload ~seed ~units ~trace =
  if not (List.mem workload workloads) then invalid_arg ("unknown workload " ^ workload);
  if units < 2 then invalid_arg "Runs.run: at least a warm-up and one measured unit";
  Ledger.reset ();
  let acc = new_acc () and counts = new_counts () in
  let traced_unit i = trace && i > 0 && i mod 2 = 0 in
  (* Runs [n] units, each bracketed by host-speed references. *)
  let measure n unit =
    let before = ref (reference_ns ()) in
    List.init n (fun i ->
        (* Each unit starts from a compacted OCaml heap, so its heap
           growth, and the process peak, do not depend on the units
           before it. *)
        Gc.compact ();
        let u = unit i in
        let after = reference_ns () in
        let ref_ns = (!before +. after) /. 2. in
        before := after;
        { u with ref_ns })
  in
  match workload with
  | "fleet-serve" ->
    let units = measure units (fun i -> fleet_session ~seed ~traced:(traced_unit i) ~acc ~counts) in
    summarize ~trace ~acc ~counts ~elasticity:fleet_elasticity units
  | _ ->
    let program, shape, check = standalone_program ~workload ~seed in
    let units =
      measure units (fun i -> standalone_block ~program ~shape ~traced:(traced_unit i) ~acc ~check)
    in
    summarize ~trace ~acc ~counts ~elasticity:shape.elasticity units
