(** Fixed-capacity ring buffer with drop-oldest overflow.

    The event bus keeps the most recent [capacity] entries; pushing into
    a full ring silently evicts the oldest entry and increments a
    dropped-entries counter, so a consumer can always tell whether the
    window it reads is complete. All operations are O(1) except the
    traversals. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be positive. *)

val length : 'a t -> int
(** Entries currently retained (<= capacity). *)

val dropped : 'a t -> int
(** Entries evicted since creation (or the last {!clear}). The total
    number ever pushed is [length t + dropped t]. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val iter : 'a t -> ('a -> unit) -> unit
(** Oldest first. *)

val fold : 'a t -> init:'b -> ('b -> 'a -> 'b) -> 'b

val to_list : 'a t -> 'a list
(** Oldest first. *)

val clear : 'a t -> unit
(** Empties the ring and resets the dropped counter. *)
