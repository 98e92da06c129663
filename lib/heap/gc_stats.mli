(** Collector work counters.

    The runtime's deterministic cost model charges cycles in proportion to
    these counters, so every unit of collector work the paper's overhead
    figures depend on (tracing, scanning, stale-counter maintenance, the
    stale closure of the SELECT state, sweeping) is accounted
    individually. *)

type t = {
  mutable collections : int;  (** full-heap collections completed *)
  mutable objects_marked : int;  (** objects reached by the in-use closure *)
  mutable fields_scanned : int;  (** reference slots examined *)
  mutable untouched_bits_set : int;  (** low bits set on scanned references *)
  mutable stale_ticks : int;  (** stale-counter increments performed *)
  mutable stale_tick_scans : int;  (** objects examined for an increment *)
  mutable candidates_enqueued : int;  (** references deferred to the candidate queue *)
  mutable stale_closure_objects : int;  (** objects claimed by the stale closure *)
  mutable references_poisoned : int;
  mutable selection_scans : int;  (** edge-table / staleness-level selection passes *)
  mutable objects_swept : int;  (** dead objects reclaimed *)
  mutable bytes_reclaimed : int;
  mutable finalizers_enqueued : int;
  mutable words_quarantined : int;
      (** dangling (corrupt) reference words the collector or the read
          barrier poisoned instead of crashing on *)
  mutable resurrections : int;
      (** pruned objects restored from swap images by the read barrier
          (each one a recovered misprediction) *)
  mutable resurrection_failures : int;
      (** recovery attempts that failed (corrupt image, exhausted
          re-allocation) and fell back to the internal error *)
  mutable words_repoisoned : int;
      (** poison re-applied to restored fields whose targets are still
          pruned (or gone); part of the verifier's poison accounting *)
}

val create : unit -> t

val copy : t -> t

val reset : t -> unit

val publish : t -> Lp_obs.Metrics.t -> unit
(** Publishes every field into the metrics registry as a cumulative
    [gc.*] counter (absolute set, so publishing is idempotent). The
    mutable record stays the collector's hot-path representation; the
    registry is the reporting surface every consumer snapshots. *)

val fields : (string * (t -> int)) list
(** The published (metric name, getter) rows, in record order. *)

val pp : Format.formatter -> t -> unit
