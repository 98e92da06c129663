(** The per-layer ledger: timing wrappers around the public calls the
    benchmark's mutator programs make into each layer.

    The programs in {!Gen} never call {!Lp_runtime.Mutator} or
    {!Lp_runtime.Vm.alloc_class} directly inside an iteration; they go
    through the wrappers below. With tracing off (the default, and the
    state of every end-to-end run) a wrapper is one branch on {!tracing}
    followed by the plain call. With tracing on it classifies and times
    the call:

    - a read is {e fast}, {e cold} or {e resurrect} by the tag bits of
      the field word inspected (untimed) before the call: clean word,
      untouched but not poisoned, poisoned;
    - an allocation is {e fast} when no full collection ran during it,
      {e gc} otherwise (detected by [Vm.gc_count] or [Vm.gc_pause_ns]
      advancing);
    - collection time inside any call is taken from [Vm.gc_pause_ns]
      and split into mark ([Controller.mark_wall_ns]) and the rest
      (sweep, SELECT/PRUNE glue, disk phase). It is a child of the call:
      the call's self time excludes it.

    Every timed span has the clock's own cost, calibrated at {!reset},
    subtracted. Reads on the fast path and writes cost about as much as
    a clock read, so one call in eight (picked pseudo-randomly) is
    timed and scaled up; every call is counted.

    Spans nest block/session → request → layer call → collection. Fine
    leaf spans (reads, writes, allocations) are aggregated in place;
    coarse spans (blocks, fleet sessions, requests, collecting calls)
    are also kept in memory with their parent id and written out by
    {!write_spans}. Wrappers never change what the call does, so a
    traced run does exactly the work of an untraced one — the tests
    check that the outputs' fingerprint is identical. *)

open Lp_heap
open Lp_runtime

val tracing : bool ref

(** {1 Wrapped layer calls} *)

val read : Vm.t -> Heap_obj.t -> int -> Heap_obj.t option
val write : Vm.t -> Heap_obj.t -> int -> Heap_obj.t option -> unit

val alloc :
  Vm.t -> class_id:Class_registry.id -> ?scalar_bytes:int -> n_fields:int -> unit -> Heap_obj.t

(** {1 Coarse spans} *)

val block : string -> (unit -> 'a) -> 'a
(** Times a measured block or fleet session when tracing; its wall time
    is the ledger's denominator. Otherwise just runs it. *)

val request : (unit -> 'a) -> 'a
(** Wraps one fleet request (one iteration of a tenant's program).
    Always records the first request's start (for [setup_s]); when
    tracing, also records the request's latency. *)

val reset_first_request : unit -> unit
val first_request_ns : unit -> int option

(** {1 Totals} *)

type totals = {
  read_fast_calls : int;
  read_fast_ns : int;
  read_cold_calls : int;
  read_cold_ns : int;
  read_resurrect_calls : int;
  read_resurrect_ns : int;  (** self: resurrection collections excluded *)
  write_calls : int;
  write_ns : int;
  alloc_fast_calls : int;
  alloc_fast_ns : int;
  alloc_gc_calls : int;
  alloc_gc_ns : int;
      (** self: the slow path and post-collection bookkeeping (staleness
          histogram, GC listeners such as the fleet's strict verifier),
          collection pauses excluded *)
  gc_count : int;  (** full collections inside wrapped calls *)
  gc_ns : int;
  mark_ns : int;
  wall_ns : int;  (** traced blocks / sessions *)
  request_ns : int;  (** traced requests, summed *)
  requests : int;
}

val totals : unit -> totals

val request_latencies : unit -> int list
(** Traced request latencies, newest first. *)

val reset : unit -> unit
(** Clears every total, latency and span. *)

val write_spans : string -> unit
(** Writes the retained coarse spans as JSON lines
    [{"id","parent","name","start_ns","dur_ns"}], oldest first. *)
