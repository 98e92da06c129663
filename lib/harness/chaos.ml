open Lp_heap

type outcome =
  | Survived
  | Clean_stop of { label : string; step : int }
  | Violation of { detail : string; step : int }
  | Crash of { detail : string; step : int }

type report = {
  seed : int;
  steps_run : int;
  gc_count : int;
  faults_fired : int;
  recovered : int;
  poisoned : int;
  resurrections : int;
  safe_entries : int;
  liveness_dead_reads : int;
  outcome : outcome;
  trace : Lp_obs.Event.stamped list;
      (* the run's event log (empty unless [trace_capacity] was given);
         events carry only scalars, so reports stay structurally
         comparable for the reproduce check *)
  trace_dropped : int;
}

let failed r = match r.outcome with Violation _ | Crash _ -> true | _ -> false

let outcome_to_string = function
  | Survived -> "survived"
  | Clean_stop { label; step } -> Printf.sprintf "clean stop: %s at step %d" label step
  | Violation { detail; step } ->
    Printf.sprintf "VIOLATION at step %d: %s" step detail
  | Crash { detail; step } -> Printf.sprintf "CRASH at step %d: %s" step detail

(* Workload object shapes: (class name, reference fields, scalar bytes). *)
let classes =
  [|
    ("Chaos$Node", 2, 0);
    ("Chaos$Pair", 3, 16);
    ("Chaos$Table", 6, 32);
    ("Chaos$Blob", 2, 96);
  |]

exception Check_failed of string

(* Bytecode model of the chaos program for guided-liveness runs. The
   churn section threads every chaos class through one Chaos$Pot slot,
   then writes and reads every field index of that joined value — so
   each mapped (class, field) slot's content includes all four classes
   and is read inside a value-flow cycle: [Maybe_live], vetoed however
   stale the random walk lets it get. The leak append reads the statics
   chain head (slot 15: [Dead_beyond 1], vetoed but not dead — chaos
   genuinely reads it) and never loads a Chaos$Leak field, leaving
   Chaos$Leak.0 [Dead_beyond 0]: the one boosted, provably-dead slot.
   Statics slots 0–14 are deliberately unmapped — random reads do reach
   them, so the oracle must stay neutral there. *)
let liveness_bytecode =
  let open Lp_jit.Bytecode in
  let fill cls = [ New_object cls; Store_local 1; Load_local 0; Load_local 1; Put_field "v" ] in
  let self_write k = [ Load_local 1; Load_local 1; Put_field (string_of_int k) ] in
  let self_read k = [ Load_local 1; Get_field (string_of_int k); Store_local 1 ] in
  let range f = List.concat_map f [ 0; 1; 2; 3; 4; 5 ] in
  let code =
    [ New_object "Chaos$Pot"; Store_local 0 ]
    @ List.concat_map fill
        [ "Chaos$Node"; "Chaos$Pair"; "Chaos$Table"; "Chaos$Blob" ]
    @ [ Load_local 0; Get_field "v"; Store_local 1 ]
    @ range self_write
    @ [ Load_local 0; Get_field "v"; Store_local 1 ]
    @ range self_read
    @ [
        (* leak append: read the chain head, never a Chaos$Leak field *)
        New_object "Chaos$Leak";
        Store_local 1;
        Load_local 1;
        Get_static "ChaosRoots$Statics.15";
        Put_field "0";
        Const 0;
        Load_local 1;
        Put_field "ChaosRoots$Statics.15";
        Return;
      ]
  in
  [ { name = "Chaos.step"; n_locals = 2; code = Array.of_list code } ]

let liveness_field_map =
  ("ChaosRoots$Statics", "15", [ 15 ])
  :: ("Chaos$Leak", "0", [ 0 ])
  :: List.concat_map
       (fun (name, n_fields, _) ->
         List.init n_fields (fun i -> (name, string_of_int i, [ i ])))
       (Array.to_list classes)

let default_steps = 300

let run_one ?(faults = true) ?pause_slo_p99_ns
    ?(liveness = Lp_core.Config.Liveness_off) ?(steps = default_steps)
    ?trace_capacity ~seed () =
  let rng = Random.State.make [| 0xC4A05; seed |] in
  (* The VM shape is drawn from the seed too, so a seed sweep covers
     small and large heaps, generational and whole-heap collection, and
     the disk baseline. *)
  let heap_bytes = 10_240 + (8 * Random.State.int rng 1024) in
  let nursery_bytes =
    if Random.State.bool rng then Some (heap_bytes / 4) else None
  in
  let disk =
    if Random.State.int rng 3 = 0 then
      Some (Lp_runtime.Diskswap.default_config ~disk_limit_bytes:heap_bytes)
    else None
  in
  (* Most seeds exercise barrier-level recovery; the rest keep the
     paper's prune-means-gone semantics in the sweep. *)
  let resurrection = Random.State.int rng 4 > 0 in
  let plan = if faults then Some (Lp_fault.Fault_plan.random ~seed ()) else None in
  (* [Config.make ()] is [Config.default], so with no pause SLO this is
     the exact VM every chaos run always built. *)
  let vm =
    Lp_runtime.Vm.create
      ~config:(Lp_core.Config.make ?pause_slo_p99_ns ())
      ?disk ~resurrection ?nursery_bytes ?fault:plan ~heap_bytes ()
  in
  (match trace_capacity with
  | Some capacity -> ignore (Lp_runtime.Vm.enable_trace ~capacity vm)
  | None -> ());
  let store = Lp_runtime.Vm.store vm in
  let gcs = ref 0 in
  let debug = Sys.getenv_opt "LP_CHAOS_DEBUG" <> None in
  Lp_runtime.Vm.set_gc_listener vm
    (Some
       (fun r ->
         incr gcs;
         if debug then begin
           let leak_cls =
             Class_registry.find (Lp_runtime.Vm.registry vm) "Chaos$Leak"
           in
           let leaks = ref 0 in
           Store.iter_live store (fun o ->
               if Some (Store.class_of store (Heap_obj.index o)) = leak_cls then
                 incr leaks);
           Printf.eprintf
             "seed %d gc %d: live=%d/%d leaks=%d state=%s res=%b images=%d\n"
             seed r.Lp_runtime.Vm.gc_number r.Lp_runtime.Vm.live_bytes_after
             heap_bytes !leaks
             (Lp_core.State_kind.to_string r.Lp_runtime.Vm.state)
             (Lp_runtime.Vm.resurrection_enabled vm)
             (Lp_runtime.Diskswap.image_count (Lp_runtime.Vm.swap vm))
         end;
         match Lp_runtime.Diagnostics.heap_check ~strict:true vm with
         | Ok () -> ()
         | Error msg -> raise (Check_failed msg)));
  let executed = ref 0 in
  let recovered = ref 0 in
  (* Everything from here on can hit an injected fault — even the
     statics allocation during setup — so the whole body runs under the
     structured-error net. *)
  let body () =
  let statics = Lp_runtime.Vm.statics vm ~class_name:"ChaosRoots" ~n_fields:16 in
  (* Extra mutator threads; each owns a frame of slots that anchor part
     of the object graph, so killing one releases its share. *)
  let threads = ref [] in
  let spawn_thread () =
    if List.length !threads < 4 then begin
      let th = Lp_runtime.Vm.spawn_thread vm in
      let fr = Roots.push_frame th ~n_slots:8 in
      threads := (th, fr) :: !threads
    end
  in
  let kill_nth k =
    let th, _ = List.nth !threads k in
    Lp_runtime.Vm.kill_thread vm th;
    threads := List.filteri (fun i _ -> i <> k) !threads
  in
  spawn_thread ();
  spawn_thread ();
  (* Leaked nodes are dead code to the program: random reads and writes
     must not touch them, or the churn keeps resetting their staleness
     and truncating the chain before pruning can ever select it. *)
  let leak_class = Lp_runtime.Vm.register_class vm "Chaos$Leak" in
  (* Guided runs install the static prior before the first step; off
     mode touches nothing, keeping its reports byte-identical. *)
  Lp_runtime.Liveness_oracle.install liveness vm
    ~bytecode:(Some liveness_bytecode) ~field_map:liveness_field_map;
  (* Uniform sampling over the live heap (allocation-slot order is
     deterministic, so so is the sample). *)
  let random_live () =
    let eligible (obj : Heap_obj.t) =
      Store.class_of store (Heap_obj.index obj) <> leak_class
    in
    let n = ref 0 in
    Store.iter_live store (fun obj -> if eligible obj then incr n);
    if !n = 0 then None
    else begin
      let k = Random.State.int rng !n in
      let i = ref 0 and found = ref None in
      Store.iter_live store (fun obj ->
          if eligible obj then begin
            if !i = k then found := Some obj;
            incr i
          end);
      !found
    end
  in
  let field_count (obj : Heap_obj.t) = Store.n_fields store (Heap_obj.index obj) in
  let random_field (obj : Heap_obj.t) =
    (* never the reserved leak-chain slot of the statics container *)
    let n = field_count obj in
    Random.State.int rng (if obj == statics then n - 1 else n)
  in
  let anchor obj =
    (* slot 15 is reserved for the leak chain *)
    if Random.State.bool rng || !threads = [] then
      Lp_runtime.Mutator.write_obj vm statics (Random.State.int rng 15) obj
    else begin
      let _, fr = List.nth !threads (Random.State.int rng (List.length !threads)) in
      Roots.set_slot fr (Random.State.int rng 8) (Heap_obj.index obj)
    end
  in
  let step_alloc () =
    let name, n_fields, scalar_bytes =
      classes.(Random.State.int rng (Array.length classes))
    in
    let obj =
      Lp_runtime.Vm.alloc vm ~class_name:name ~scalar_bytes ~n_fields ()
    in
    anchor obj;
    if Random.State.bool rng then
      match random_live () with
      | Some src when field_count src > 0 ->
        Lp_runtime.Mutator.write_obj vm src (random_field src) obj
      | _ -> ()
  in
  (* A leak in the paper's shape: append to a chain the program never
     reads again. Its staleness grows collection after collection until
     the heap fills and the controller prunes it — which is what makes
     poke-pruned steps (and thus resurrection and SAFE mode) reachable
     within a chaos run. *)
  let step_leak () =
    let node =
      Lp_runtime.Vm.alloc vm ~class_name:"Chaos$Leak" ~scalar_bytes:224
        ~n_fields:1 ()
    in
    (match Lp_runtime.Mutator.read vm statics 15 with
    | Some head -> Lp_runtime.Mutator.write_obj vm node 0 head
    | None -> ());
    Lp_runtime.Mutator.write_obj vm statics 15 node
  in
  let step_write () =
    match random_live () with
    | Some src when field_count src > 0 ->
      let i = random_field src in
      if Random.State.int rng 4 = 0 then Lp_runtime.Mutator.clear vm src i
      else begin
        match random_live () with
        | Some tgt -> Lp_runtime.Mutator.write_obj vm src i tgt
        | None -> ()
      end
    | _ -> ()
  in
  let step_read () =
    match random_live () with
    | Some src when field_count src > 0 ->
      ignore (Lp_runtime.Mutator.read vm src (random_field src))
    | _ -> ()
  in
  (* Deliberately load a pruned (poisoned) reference: with resurrection
     on this drives the swap-image recovery path and the controller's
     misprediction/SAFE feedback; with it off, the structured
     InternalError protocol. Falls back to a plain read when the heap
     holds no poison. *)
  let step_poke_pruned () =
    let found = ref None in
    Store.iter_live store (fun obj ->
        for i = 0 to field_count obj - 1 do
          if !found = None && Word.poisoned (Store.field store (Heap_obj.index obj) i)
          then found := Some (obj, i)
        done);
    match !found with
    | Some (src, i) -> ignore (Lp_runtime.Mutator.read vm src i)
    | None -> step_read ()
  in
  let step_thread () =
    if !threads = [] || (List.length !threads < 4 && Random.State.bool rng) then
      spawn_thread ()
    else kill_nth (Random.State.int rng (List.length !threads))
  in
  (* The Step trigger point: mutator-level faults the store and disk
     cannot inject themselves. *)
  let apply_step_faults () =
    match plan with
    | None -> ()
    | Some plan ->
      List.iter
        (fun f ->
          match (f : Lp_fault.Fault_plan.fault) with
          | Lp_fault.Fault_plan.Corrupt_word -> (
            match random_live () with
            | Some obj when field_count obj > 0 ->
              let field = random_field obj in
              let mode =
                match Random.State.int rng 3 with
                | 0 -> `Poison
                | 1 ->
                  let frontier = max 2 (Store.next_fresh_id store) in
                  `Retarget (1 + Random.State.int rng (frontier - 1))
                | _ -> `Dangle
              in
              Lp_runtime.Vm.inject_word_corruption vm obj ~field mode
            | _ -> ())
          | Lp_fault.Fault_plan.Kill_thread ->
            if !threads <> [] then
              kill_nth (Random.State.int rng (List.length !threads))
          | Lp_fault.Fault_plan.Refuse_alloc | Lp_fault.Fault_plan.Disk_failure
          | Lp_fault.Fault_plan.Corrupt_image | Lp_fault.Fault_plan.Torn_write
          | Lp_fault.Fault_plan.Kill_tenant
          | Lp_fault.Fault_plan.Disk_pressure
          | Lp_fault.Fault_plan.Kill_storm
          | Lp_fault.Fault_plan.Torn_checkpoint ->
            (* owned by the store / disk / swap / fleet triggers *)
            ())
        (Lp_fault.Fault_plan.check plan Lp_fault.Fault_plan.Step)
  in
  for step = 1 to steps do
    executed := step;
    try
      apply_step_faults ();
      match Random.State.int rng 100 with
      | n when n < 28 -> step_alloc ()
      | n when n < 52 -> step_leak ()
      | n when n < 64 -> step_write ()
      | n when n < 75 -> step_read ()
      | n when n < 87 -> step_poke_pruned ()
      | n when n < 93 -> step_thread ()
      | _ -> Lp_runtime.Vm.run_gc vm
    with e when Lp_core.Errors.is_recoverable e ->
      (* InternalError (pruned access) and HeapCorruption: the chaos
         program catches and carries on, as a resilient server
         would — only the damaged structure is lost. *)
      incr recovered
  done;
  (* A last collection quarantines any injected word still dangling,
     then its listener runs the strict verifier one final time. *)
  Lp_runtime.Vm.run_gc vm;
  Survived
  in
  let outcome =
    try body () with
    | Check_failed detail -> Violation { detail; step = !executed }
    | e when Lp_core.Errors.is_structured e ->
      (match Lp_core.Errors.label e with
      | Some label -> Clean_stop { label; step = !executed }
      | None -> Crash { detail = Printexc.to_string e; step = !executed })
    | e -> Crash { detail = Printexc.to_string e; step = !executed }
  in
  {
    seed;
    steps_run = !executed;
    gc_count = !gcs;
    faults_fired =
      (match plan with Some p -> Lp_fault.Fault_plan.fired_count p | None -> 0);
    recovered = !recovered;
    poisoned = (Lp_runtime.Vm.stats vm).Gc_stats.references_poisoned;
    resurrections = (Lp_runtime.Vm.stats vm).Gc_stats.resurrections;
    safe_entries = Lp_core.Controller.safe_entries (Lp_runtime.Vm.controller vm);
    liveness_dead_reads =
      Lp_core.Controller.liveness_dead_reads (Lp_runtime.Vm.controller vm);
    outcome;
    trace = Lp_runtime.Vm.trace_events vm;
    trace_dropped =
      (match Lp_runtime.Vm.sink vm with
      | Some s -> Lp_obs.Sink.dropped s
      | None -> 0);
  }

let shrink ?faults ?pause_slo_p99_ns ?liveness
    ?(steps = default_steps) ~seed () =
  let failing m =
    failed
      (run_one ?faults ?pause_slo_p99_ns ?liveness ~steps:m
         ~seed ())
  in
  if not (failing steps) then None
  else begin
    (* smallest failing cap: failure at cap [m] means the first failing
       step f <= m fails identically at every cap >= f, so [failing] is
       monotone and bisection applies *)
    let lo = ref 1 and hi = ref steps in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if failing mid then hi := mid else lo := mid + 1
    done;
    Some !hi
  end

let run_seeds ?faults ?pause_slo_p99_ns ?liveness ?steps
    ?progress ~seeds () =
  List.init seeds (fun i ->
      let r =
        run_one ?faults ?pause_slo_p99_ns ?liveness ?steps
          ~seed:(i + 1) ()
      in
      (match progress with Some f -> f r | None -> ());
      r)
