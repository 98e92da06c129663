(* Lower a static liveness oracle onto a fresh VM: analyze the
   bytecode, register the mapped classes eagerly (sorted, so guide-mode
   class ids are deterministic regardless of allocation order) and
   resolve symbolic verdicts to (class id, field index) judgements in
   one table behind a pure closure. Emits one [Liveness_verdict] event
   per analyzed slot when a sink is already attached — which is why
   callers install after attaching theirs. *)
let prior vm ~bytecode ~field_map =
  let oracle = Lp_liveness.Liveness.analyze bytecode in
  let registry = Vm.registry vm in
  List.iter
    (fun c -> ignore (Lp_heap.Class_registry.register registry c))
    (List.sort_uniq compare (List.map (fun (c, _, _) -> c) field_map));
  let resolved =
    Lp_liveness.Liveness.resolve oracle
      ~class_id:(Lp_heap.Class_registry.find registry)
      ~field_map
  in
  let priors : (int * int, Lp_core.Selection.prior) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun (key, verdict) ->
      match verdict with
      | Lp_liveness.Liveness.Dead_beyond 0 ->
        Hashtbl.replace priors key Lp_core.Selection.Boost
      | Lp_liveness.Liveness.Dead_beyond _ | Lp_liveness.Liveness.Maybe_live ->
        Hashtbl.replace priors key Lp_core.Selection.Veto
      | Lp_liveness.Liveness.Unanalyzed -> ())
    resolved;
  (match Vm.sink vm with
  | Some s ->
    List.iter
      (fun ((src_class, field), verdict) ->
        match verdict with
        | Lp_liveness.Liveness.Dead_beyond depth ->
          Lp_obs.Sink.emit s
            (Lp_obs.Event.Liveness_verdict { src_class; field; depth })
        | Lp_liveness.Liveness.Maybe_live ->
          Lp_obs.Sink.emit s
            (Lp_obs.Event.Liveness_verdict { src_class; field; depth = -1 })
        | Lp_liveness.Liveness.Unanalyzed -> ())
      resolved
  | None -> ());
  fun class_id field ->
    match Hashtbl.find_opt priors (class_id, field) with
    | Some p -> p
    | None -> Lp_core.Selection.Neutral

let install mode vm ~bytecode ~field_map =
  match (mode, bytecode) with
  | Lp_core.Config.Liveness_guide, Some bytecode ->
    Lp_core.Controller.set_liveness_prior (Vm.controller vm)
      (prior vm ~bytecode ~field_map)
  | (Lp_core.Config.Liveness_guide | Lp_core.Config.Liveness_off), _ -> ()
