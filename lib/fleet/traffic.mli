(** Open-loop simulated request arrivals, one stream per tenant.

    The stream is a pure function of [(seed, tenant)] — never of fleet
    state — so a tenant's demand is identical whether its neighbours
    thrive, stall or die. That independence is half of the fleet's
    isolation oracle (the other half is shared-disk admission). *)

type t

val create : seed:int -> tenant:int -> rate_per_mille:int -> t
(** [rate_per_mille] is the mean arrival rate in requests per 1000
    rounds: [1500] means 1.5 requests per round on average.
    @raise Invalid_argument when negative. *)

val arrivals : t -> int
(** The number of requests arriving this round. Draws from the stream
    exactly once per call, so calling it once per round keeps the stream
    aligned across runs regardless of what the scheduler does with the
    requests. *)
