(** Fleet-level crash-storm breaker.

    Correlated failures (one host event killing many tenants) look, to
    each per-tenant supervisor, like ordinary isolated crashes — so
    containment needs a fleet-wide view. The breaker counts {e distinct}
    tenants that restarted within a sliding window of 8 scheduler rounds
    and {e trips} when their share of the fleet strictly exceeds
    [trip_permille]: serving pauses fleet-wide for at least 4 rounds,
    after which the scheduler runs health probes and either {!reset}s
    the breaker (which also clears the window, so the same restarts
    cannot re-trip it) or {!extend}s the pause by another 4 rounds. *)

type t

val create : trip_permille:int -> tenants:int -> t
(** [trip_permille] is the trip bar, in per-mille of the fleet, in
    [[1, 1000]]; the caller checks the range
    ([Lp_fleet.Fleet.validate]).
    @raise Invalid_argument when [tenants < 1]. *)

val note_restart : t -> round:int -> tenant:int -> unit

val distinct_restarted : t -> round:int -> int
(** Distinct tenants with at least one restart inside the window. *)

val is_open : t -> bool
(** Whether the breaker is currently tripped (serving paused). *)

val should_trip : t -> round:int -> bool
(** True when the breaker is closed and the restarted share strictly
    exceeds the threshold ([distinct * 1000 > trip_permille * tenants]). *)

val trip : t -> round:int -> unit

val cooldown_over : t -> round:int -> bool
(** Whether the pause has served its cooldown and health probes may
    decide the breaker's fate. *)

val extend : t -> round:int -> unit
(** Health probes failed: keep the breaker open for another cooldown. *)

val reset : t -> unit

val trips : t -> int
(** How many times the breaker has tripped, for reports. *)
