open Lp_heap

(* References out of statics containers model root references (Jikes RVM
   scans statics as part of the JTOC); roots can never be pruned. *)
let src_is_root store (edge : Collector.edge) =
  Header.statics_container (Store.header store edge.Collector.src.Heap_obj.id)

(* The static liveness oracle's per-edge judgement, composed with the
   dynamic staleness test below. [Veto] and [Boost] come from a
   [Liveness.resolve]d oracle via the controller; [Neutral] (and an
   absent prior) is the dynamic-only pipeline unchanged. *)
type prior = Veto | Boost | Neutral

let stale_qualifies ?prior store (config : Config.t) table
    (edge : Collector.edge) =
  let judgement =
    match prior with Some f -> f edge | None -> Neutral
  in
  match judgement with
  | Veto -> false
  | (Boost | Neutral) as j ->
    let floor =
      match j with
      | Boost -> max 1 (config.Config.min_candidate_stale - config.Config.liveness_boost)
      | _ -> config.Config.min_candidate_stale
    in
    let stale = Store.stale store edge.Collector.tgt in
    (not (src_is_root store edge))
    && stale >= floor
    (* the maxstaleuse-plus-slack guard is dynamic protection and wins
       over any static boost: a recently used edge type stays safe *)
    && stale
       >= Edge_table.max_stale_use table
            ~src:(Store.class_of store edge.Collector.src.Heap_obj.id)
            ~tgt:(Store.class_of store edge.Collector.tgt)
          + config.Config.stale_slack

let select_filter_default ?prior store config table edge =
  if stale_qualifies ?prior store config table edge then Collector.Defer
  else Collector.Trace

let select_filter_individual store config table (edge : Collector.edge) =
  if stale_qualifies store config table edge then
    Edge_table.add_bytes table
      ~src:(Store.class_of store edge.Collector.src.Heap_obj.id)
      ~tgt:(Store.class_of store edge.Collector.tgt)
      (Store.size_bytes store edge.Collector.tgt);
  Collector.Trace

let prune_filter_edge_type ?prior store config table ~selected
    (edge : Collector.edge) =
  let src_class, tgt_class = selected in
  if
    Store.class_of store edge.Collector.src.Heap_obj.id = src_class
    && Store.class_of store edge.Collector.tgt = tgt_class
    && stale_qualifies ?prior store config table edge
  then Collector.Poison
  else Collector.Trace

let prune_filter_most_stale store ~level (edge : Collector.edge) =
  if
    (not (src_is_root store edge))
    && Store.stale store edge.Collector.tgt >= level
  then Collector.Poison
  else Collector.Trace

(* One loop over the header array. Statics containers model root
   storage (immortal in Jikes RVM); their counters never clear because
   no heap reference targets them, so they must not drive the
   Most-stale level. *)
let max_live_staleness store ~marked_only =
  let best = ref 0 in
  for id = 1 to Store.slot_count store do
    let h = Store.header store id in
    if
      (not (Header.is_free h))
      && (not (Header.statics_container h))
      && ((not marked_only) || Header.marked h)
    then best := max !best (Header.stale_counter h)
  done;
  !best
