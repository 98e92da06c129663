(* What kind of mutator-visible pause a sample measures. A sliced
   engine reports one [Mark_slice] per bounded mark/stale-closure slice
   and one [Sweep_slice] per store segment swept; an engine that stops
   the world for the whole collection reports nothing, and the VM
   accounts the entire collection as one [Monolithic] sample. *)
type pause_phase = Mark_slice | Sweep_slice | Monolithic

let pause_phase_name = function
  | Mark_slice -> "mark_slice"
  | Sweep_slice -> "sweep_slice"
  | Monolithic -> "monolithic"

type t = {
  name : string;
  mark :
    ?note:(Trace_common.edge -> unit) ->
    Store.t ->
    Roots.t ->
    stats:Gc_stats.t ->
    config:Trace_common.mark_config ->
    Trace_common.edge list;
  stale_closure :
    ?events:Lp_obs.Sink.t ->
    Store.t ->
    stats:Gc_stats.t ->
    set_untouched_bits:bool ->
    stale_tick_gc:int option ->
    Trace_common.edge ->
    int;
  sweep : Store.t -> stats:Gc_stats.t -> unit;
  take_pauses : unit -> (pause_phase * int) list;
  max_slice_work : unit -> int;
}
