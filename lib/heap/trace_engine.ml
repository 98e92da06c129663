(* What kind of mutator-visible pause a sample measures. A sliced
   collector reports one [Mark_slice] per bounded mark/stale-closure
   slice and one [Sweep_slice] per store segment swept; a collector
   that stops the world for the whole collection reports nothing, and
   the VM accounts the entire collection as one [Monolithic] sample. *)
type pause_phase = Mark_slice | Sweep_slice | Monolithic
