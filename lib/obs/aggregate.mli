(** Percentile extraction over pause-sample lists: a pure function, so
    fleet reports and benches that aggregate samples stay
    deterministic. *)

val percentile : int list -> p:float -> int
(** Nearest-rank percentile of the samples ([p] in [0..100]); [0] on an
    empty list. [percentile s ~p:50.] is the median, [~p:100.] the max. *)
