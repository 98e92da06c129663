(** Non-leaking benchmarks for the overhead experiments (Figures 6, 7).

    The paper measures leak pruning's run-time and collection-time
    overheads on DaCapo beta-2006-08 MR1, pseudojbb and SPECjvm98. Each
    synthetic benchmark here keeps a bounded pool of live objects,
    replaces a slice of the pool every iteration (creating garbage,
    driving collections) and performs a benchmark-specific mix of
    reference reads (what the read barrier taxes) and scalar work.
    Parameters vary across benchmark names the way the real suite's
    allocation rates and read densities vary. *)

type spec = {
  name : string;
  pool_objects : int;  (** steady-state live object count *)
  object_fields : int;
  scalar_bytes : int;
  allocations_per_iteration : int;  (** pool slots replaced: garbage created *)
  reads_per_iteration : int;  (** random reference loads through the barrier *)
  work_per_iteration : int;  (** scalar computation cycles *)
  seed : int;
}

val min_heap_bytes : spec -> int
(** Approximate smallest heap the benchmark runs in: pool array plus
    live objects plus one iteration of garbage headroom. Figures 6 and 7
    size heaps as multiples of this. *)

val workload_of_spec : spec -> Workload.t

val suite : spec list
(** One spec per benchmark of Figure 6: the eleven DaCapo benchmarks,
    pseudojbb, and the eight SPECjvm98 programs. *)

