(* Open-loop request arrivals for one tenant. The stream is seeded by
   (fleet seed, tenant id) and drawn once per scheduler round whether or
   not the tenant can serve — open-loop means demand never adapts to the
   server, and it makes a tenant's arrival sequence a function of its
   own identity alone, never of its neighbours' fate (the isolation
   oracle depends on this). *)

type t = { rng : Random.State.t; rate_per_mille : int }

let create ~seed ~tenant ~rate_per_mille =
  if rate_per_mille < 0 then
    invalid_arg "Traffic.create: rate_per_mille must be >= 0";
  { rng = Random.State.make [| 0x7AF1C; seed; tenant |]; rate_per_mille }

(* Deterministic thinning: the integer part arrives every round, the
   fractional part (in per-mille) arrives as a Bernoulli draw. Exactly
   one draw per round regardless of outcome, so streams stay aligned
   across runs. *)
let arrivals t =
  let whole = t.rate_per_mille / 1000 in
  let frac = t.rate_per_mille mod 1000 in
  let extra = if Random.State.int t.rng 1000 < frac then 1 else 0 in
  whole + extra
