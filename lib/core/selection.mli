(** Candidate criteria and edge filters for the SELECT and PRUNE states
    (paper Sections 4.2 and 4.3), for all three prediction policies. *)

type prior = Veto | Boost | Neutral
(** The static liveness oracle's judgement on one slot (source class,
    field), composed with the dynamic staleness test. [Veto]: the
    analysis proved the program can still traverse the slot — never a
    candidate, however stale. [Boost]: the analysis proved the slot is
    never read — the [min_candidate_stale] floor drops by
    [Config.liveness_boost] (never below 1; the [maxstaleuse]-plus-slack
    guard still applies). [Neutral]: dynamic staleness alone decides,
    exactly as without an oracle. *)

type verdict =
  | Qualifies  (** a candidate, and the prior changed nothing *)
  | Rejected  (** not a candidate, and the prior changed nothing *)
  | Vetoed  (** a candidate by staleness alone, vetoed by the prior *)
  | Boosted  (** a candidate only because the prior boosted it *)
(** The candidate test's answer on one edge and whether the prior
    changed it. *)

val qualifies : verdict -> bool
(** [Qualifies] and [Boosted]. *)

val judge :
  ?prior:(Lp_heap.Class_registry.id -> int -> prior) ->
  Lp_heap.Store.t ->
  Config.t ->
  Edge_table.t ->
  Lp_heap.Collector.edge ->
  verdict
(** The paper's candidate test, judged once per edge: the source is not
    a statics container, the target's stale counter is at least
    [min_candidate_stale] (2) {e and} at least [stale_slack] (2)
    greater than the edge type's [maxstaleuse]. [prior] is called at
    most once, with the source's class and the field, and only when
    its answer can matter. [config] must be validated. *)

val select_filter_default :
  ?prior:(Lp_heap.Class_registry.id -> int -> prior) ->
  audit:(Lp_heap.Collector.edge -> verdict -> unit) ->
  Lp_heap.Store.t ->
  Config.t ->
  Edge_table.t ->
  Lp_heap.Collector.edge ->
  Lp_heap.Collector.edge_action
(** Defers qualifying references to the candidate queue. [audit] runs
    on every [Vetoed] or [Boosted] verdict, before the filter returns. *)

val prune_filter_edge_type :
  ?prior:(Lp_heap.Class_registry.id -> int -> prior) ->
  audit:(Lp_heap.Collector.edge -> verdict -> unit) ->
  Lp_heap.Store.t ->
  Config.t ->
  Edge_table.t ->
  selected:(Lp_heap.Class_registry.id * Lp_heap.Class_registry.id) option ->
  Lp_heap.Collector.edge ->
  Lp_heap.Collector.edge_action
(** Poisons references of the selected edge type whose targets still
    qualify; used by both Default and Individual-references pruning.
    With a [prior], every edge is judged and [audit] runs on every
    [Vetoed] or [Boosted] verdict, whatever its type; with no selected
    type nothing is poisoned. *)

val prune_filter_most_stale :
  Lp_heap.Store.t ->
  level:int ->
  Lp_heap.Collector.edge ->
  Lp_heap.Collector.edge_action
(** The Most-stale variant (LeakSurvivor/Melt predictor): poisons every
    reference whose target's staleness is at least [level], ignoring edge
    types and data structures. *)

val max_live_staleness : Lp_heap.Store.t -> int
(** Highest stale-counter value over the objects the open mark reached,
    or over the live objects between collections
    ({!Lp_heap.Store.marked}); the Most-stale variant's selection. *)
