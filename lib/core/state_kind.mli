(** The states of the leak pruning state diagram (paper Figure 2),
    extended with the controller's misprediction safe mode.

    [Safe] is entered when barrier-level resurrections (each one a
    pruning misprediction made recoverable) exceed the configured
    per-epoch threshold: the controller stops trusting its predictions
    and suspends pruning for a configured number of collections while
    staleness tracking continues, then returns to [Observe] (or straight
    to [Select] under continued memory pressure). *)

type t = Inactive | Observe | Select | Prune | Safe

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val to_int : t -> int
(** The state's code, 0 to 4 in constructor order. Checkpoints and the
    VM's collection history store it, so a code never changes. *)

val of_int : int -> t option
(** The inverse of {!to_int}; [None] for any other int. *)

val tracking : t -> bool
(** Whether staleness tracking is active: true for every state except
    [Inactive] — including [Safe], which keeps the edge table warm while
    pruning is suspended. *)
