(* What kind of mutator-visible pause a sample measures. Sliced engines
   report one [Mark_slice] per bounded mark/stale-closure slice and one
   [Sweep_slice] per store segment swept; engines that stop the world
   for the whole collection report nothing, and the VM accounts the
   entire collection as one [Monolithic] sample. *)
type pause_phase = Mark_slice | Sweep_slice | Monolithic

let pause_phase_name = function
  | Mark_slice -> "mark_slice"
  | Sweep_slice -> "sweep_slice"
  | Monolithic -> "monolithic"

type t = {
  name : string;
  mark :
    gc:int ->
    ?edge_note:(Trace_common.edge -> (int * int * int) option) ->
    ?apply_note:(int * int * int -> unit) ->
    Store.t ->
    Roots.t ->
    stats:Gc_stats.t ->
    config:Trace_common.mark_config ->
    Trace_common.edge list;
  begin_stale : unit -> unit;
  stale_closure :
    gc:int ->
    ?events:Lp_obs.Sink.t ->
    Store.t ->
    stats:Gc_stats.t ->
    set_untouched_bits:bool ->
    stale_tick_gc:int option ->
    Trace_common.edge ->
    int;
  end_stale : gc:int -> events:Lp_obs.Sink.t option -> unit;
  sweep : gc:int -> ?events:Lp_obs.Sink.t -> Store.t -> stats:Gc_stats.t -> unit;
  minor_drain :
    (Store.t -> queue:int array -> slots_scanned:int ref -> unit) option;
  take_pauses : unit -> (pause_phase * int) list;
  max_slice_work : unit -> int;
  shutdown : unit -> unit;
}
