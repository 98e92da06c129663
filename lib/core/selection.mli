(** Candidate criteria and edge filters for the SELECT and PRUNE states
    (paper Sections 4.2 and 4.3), for all three prediction policies. *)

type prior = Veto | Boost | Neutral
(** The static liveness oracle's judgement on one heap reference,
    composed with the dynamic staleness test. [Veto]: the analysis
    proved the program can still traverse the slot — never a candidate,
    however stale. [Boost]: the analysis proved the slot is never read —
    the [min_candidate_stale] floor drops by [Config.liveness_boost]
    (never below 1; the [maxstaleuse]-plus-slack guard still applies).
    [Neutral]: dynamic staleness alone decides, exactly as without an
    oracle. *)

val stale_qualifies :
  ?prior:(Lp_heap.Collector.edge -> prior) ->
  Lp_heap.Store.t ->
  Config.t ->
  Edge_table.t ->
  Lp_heap.Collector.edge ->
  bool
(** The paper's candidate test: the target's stale counter is at least
    [min_candidate_stale] (2) {e and} at least [stale_slack] (2) greater
    than the edge type's [maxstaleuse]. The edge's objects are looked
    up in the store. [prior] must be pure: it may be evaluated more
    than once per edge. *)

val select_filter_default :
  ?prior:(Lp_heap.Collector.edge -> prior) ->
  Lp_heap.Store.t ->
  Config.t ->
  Edge_table.t ->
  Lp_heap.Collector.edge ->
  Lp_heap.Collector.edge_action
(** Defers qualifying references to the candidate queue. *)

val select_filter_individual :
  Lp_heap.Store.t ->
  Config.t ->
  Edge_table.t ->
  Lp_heap.Collector.edge ->
  Lp_heap.Collector.edge_action
(** The Individual-references variant: never defers; attributes each
    qualifying reference its direct target's bytes as a side effect and
    traces it normally. *)

val prune_filter_edge_type :
  ?prior:(Lp_heap.Collector.edge -> prior) ->
  Lp_heap.Store.t ->
  Config.t ->
  Edge_table.t ->
  selected:Lp_heap.Class_registry.id * Lp_heap.Class_registry.id ->
  Lp_heap.Collector.edge ->
  Lp_heap.Collector.edge_action
(** Poisons references of the selected edge type whose targets still
    qualify; used by both Default and Individual-references pruning. *)

val prune_filter_most_stale :
  Lp_heap.Store.t ->
  level:int ->
  Lp_heap.Collector.edge ->
  Lp_heap.Collector.edge_action
(** The Most-stale variant (LeakSurvivor/Melt predictor): poisons every
    reference whose target's staleness is at least [level], ignoring edge
    types and data structures. *)

val max_live_staleness : Lp_heap.Store.t -> marked_only:bool -> int
(** Highest stale-counter value over live (optionally: marked) objects;
    the Most-stale variant's selection. *)
