(** Order statistics over timing samples. Percentiles are nearest-rank,
    as [Lp_obs.Aggregate.percentile] computes them, but over ascending
    arrays. *)

val median : float list -> float
(** Middle value (mean of the two middle values for even lengths);
    [nan] on an empty list. *)

val central_mean : int array -> float
(** Mean of an ascending array's samples from the 45th to the 55th
    percentile (nearest ranks): a median estimate that resolves a
    coarse sample clock (the VM times pauses with a clock of about a
    microsecond), where the plain median can only land on a clock
    step. 0 when empty. *)

val tail : int array -> float * int
(** [tail sorted] is the highest percentile of 99.9, 99, 90 and 50 with at
    least ten samples strictly beyond its nearest rank, and the value
    there. (50., median) when even the median has fewer than ten
    samples beyond it. *)
