(** The tag of a mutator-visible pause sample.

    The collector itself is {!Collector}; this module keeps only the
    pause-phase tag its samples carry, under the name the frozen
    benchmark harness ([perfbench/runs.ml]) matches on. *)

type pause_phase = Mark_slice | Sweep_slice | Monolithic
(** What kind of mutator-visible pause a sample measures: a bounded
    mark (or stale-closure) slice, a bounded sweep segment, or a whole
    stop-the-world collection. The pause-SLO autopilot and the
    benchmark in [perfbench/] dispatch on the tag; before it existed
    the monolithic sweep remainder was indistinguishable from a slice
    sample. *)
