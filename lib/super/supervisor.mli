(** Per-tenant restart supervision.

    The supervisor counts a tenant's restarts within a sliding window of
    scheduler rounds and climbs a deterministic escalation ladder: the
    [n]-th restart in the window gets

    - a {b warm} restart while [n <= warm_limit] (the checkpoint-restoring
      path; the caller falls back to cold when no usable checkpoint
      exists),
    - a {b cold} restart while [n <= cold_limit],
    - a cold restart with {b extended quarantine} while
      [n <= retire_limit],
    - {b retirement} — permanent removal from the fleet — beyond that.

    It also stores the tenant's most recent controller checkpoint frame
    (the supervisor is deliberately agnostic to the frame's contents —
    damaged frames are detected at restore time by
    {!Checkpoint.decode}). *)

type action = Warm | Cold | Cold_extended | Retire

val action_to_string : action -> string
(** ["warm"], ["cold"], ["cold-extended"], ["retire"]. *)

type config = {
  window_rounds : int;
      (** sliding window, in scheduler rounds, over which restarts are
          counted *)
  warm_limit : int;
      (** restarts within the window that still take the warm path; 0
          disables warm restarts *)
  cold_limit : int;
      (** restarts within the window that still get a plain cold boot;
          at least [warm_limit] *)
  retire_limit : int;
      (** restarts within the window beyond which the tenant is retired;
          at least [cold_limit] *)
}

val default : config
(** A 16-round window, warm up to 2 restarts, cold up to 4, extended
    quarantine up to 6, retirement beyond. *)

type t

val create : config -> t
(** @raise Invalid_argument when [window_rounds < 1]. *)

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
