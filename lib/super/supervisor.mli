(** Per-tenant restart supervision.

    The supervisor counts a tenant's restarts within a sliding window of
    16 scheduler rounds and climbs a deterministic escalation ladder:
    the [n]-th restart in the window gets

    - a {b warm} restart while [n <= warm_limit] (the checkpoint-restoring
      path; the caller falls back to cold when no usable checkpoint
      exists),
    - a {b cold} restart while [n <= 4] ({!cold_limit}),
    - a cold restart with {b extended quarantine} while [n <= 6],
    - {b retirement} — permanent removal from the fleet — beyond that.

    It also stores the tenant's most recent controller checkpoint frame
    (the supervisor is deliberately agnostic to the frame's contents —
    damaged frames are detected at restore time by
    {!Checkpoint.decode}). *)

type action = Warm | Cold | Cold_extended | Retire

val action_to_string : action -> string
(** ["warm"], ["cold"], ["cold-extended"], ["retire"]. *)

val cold_limit : int
(** 4: restarts within the window that still get a plain cold boot; a
    [warm_limit] above it would never be reached. *)

type t

val create : warm_limit:int -> t
(** [warm_limit] is how many restarts within the window still take the
    warm path, in [[0, cold_limit]]; 0 disables warm restarts. The
    caller checks the range ([Lp_fleet.Fleet.validate]). *)

val on_restart : t -> round:int -> action
(** Record a restart at [round] and return the ladder's decision for
    it. [Retire] marks the supervisor {!retired} permanently. *)

val restarts_in_window : t -> round:int -> int

val total_restarts : t -> int

val retired : t -> bool

val store_checkpoint : t -> round:int -> bytes -> unit
(** Replace the stored checkpoint frame (only the latest is kept). *)

val checkpoint : t -> (int * bytes) option
(** The stored [(round, frame)], if any. *)
