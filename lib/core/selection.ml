open Lp_heap

(* References out of statics containers model root references (Jikes RVM
   scans statics as part of the JTOC); roots can never be pruned. *)
let src_is_root store (edge : Collector.edge) =
  Header.statics_container (Store.header store edge.Collector.src.Heap_obj.id)

(* The static liveness oracle's judgement on one slot, composed with the
   dynamic staleness test below. [Neutral] (and an absent prior) is the
   dynamic-only pipeline unchanged. *)
type prior = Veto | Boost | Neutral

type verdict = Qualifies | Rejected | Vetoed | Boosted

let qualifies = function Qualifies | Boosted -> true | Rejected | Vetoed -> false

(* A veto or a boost can only matter for an edge that passes the root
   test, the lowest floor in play and the maxstaleuse-plus-slack guard,
   so the prior is looked up only for those. [Config.validate] keeps
   the boosted floor at or below [min_candidate_stale]. *)
let judge ?prior store (config : Config.t) table (edge : Collector.edge) =
  let floor = config.Config.min_candidate_stale in
  let lowest =
    match prior with
    | None -> floor
    | Some _ -> max 1 (floor - config.Config.liveness_boost)
  in
  if src_is_root store edge then Rejected
  else
    let stale = Store.stale store edge.Collector.tgt in
    if stale < lowest then Rejected
    else
      let src_class = Store.class_of store edge.Collector.src.Heap_obj.id in
      (* the maxstaleuse-plus-slack guard is dynamic protection and wins
         over any static boost: a recently used edge type stays safe *)
      if
        stale
        < Edge_table.max_stale_use table ~src:src_class
            ~tgt:(Store.class_of store edge.Collector.tgt)
          + config.Config.stale_slack
      then Rejected
      else
        match prior with
        | None -> Qualifies
        | Some f -> (
          match f src_class edge.Collector.field with
          | Neutral -> if stale >= floor then Qualifies else Rejected
          | Veto -> if stale >= floor then Vetoed else Rejected
          | Boost -> if stale >= floor then Qualifies else Boosted)

(* Hands a verdict the prior changed to [audit]; returns it. *)
let[@inline] audited ~audit edge verdict =
  (match verdict with
  | Vetoed | Boosted -> audit edge verdict
  | Qualifies | Rejected -> ());
  verdict

let select_filter_default ?prior ~audit store config table edge =
  if qualifies (audited ~audit edge (judge ?prior store config table edge))
  then Collector.Defer
  else Collector.Trace

let of_type store selected (edge : Collector.edge) =
  match selected with
  | Some (src_class, tgt_class) ->
    Store.class_of store edge.Collector.src.Heap_obj.id = src_class
    && Store.class_of store edge.Collector.tgt = tgt_class
  | None -> false

(* Without a prior only edges of the selected type are judged. With one
   every live edge is, so the audit sees each edge whose outcome the
   prior changed, as it does in a SELECT collection. *)
let prune_filter_edge_type ?prior ~audit store config table ~selected edge =
  let poison =
    match prior with
    | None ->
      of_type store selected edge && qualifies (judge store config table edge)
    | Some _ ->
      let verdict = audited ~audit edge (judge ?prior store config table edge) in
      of_type store selected edge && qualifies verdict
  in
  if poison then Collector.Poison else Collector.Trace

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
