(** The remembered set for generational collection.

    Minor collections trace only the nursery, so every mature-to-nursery
    reference created by the mutator must be remembered: the write
    barrier records the (source object, field) slot here, and the minor
    collector treats those slots as extra roots. Slots are deduplicated;
    the set is cleared after each minor collection (survivors are mature
    afterwards, so stale entries would only cost time, but clearing
    keeps it small, as a sequential-store-buffer flush does). *)

type t

val create : unit -> t

val add : t -> src_id:int -> field:int -> unit

val iter : t -> (src_id:int -> field:int -> unit) -> unit

val clear : t -> unit
