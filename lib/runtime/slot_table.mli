(** Values indexed by object identifier: slot [id] is index [id - 1] of
    one array, grown on demand to the highest identifier written. A
    slot is {e used} unless it holds the table's [empty] value, told
    apart by physical equality, so no polymorphic comparison runs. *)

type 'a t

val create : 'a -> 'a t
(** [create empty]: every slot holds [empty]; no array yet. *)

val get : 'a t -> int -> 'a
(** [empty] for every identifier never written, those below 1 too. *)

val set : 'a t -> int -> 'a -> unit
(** Writes a slot, first growing an [n]-slot table to
    [max 64 (n + n/2) id] slots when [id > n]; writing [empty] empties
    it. @raise Invalid_argument when [id < 1], leaving the table as it
    was. *)

val count : 'a t -> int
(** The number of used slots. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** [iter t f] calls [f id v] on the used slots in ascending [id]
    order, stopping after the last one. [f] may empty the slot it is
    given and must write no other. *)

val clear : 'a t -> unit
(** Empties every slot and drops the array. *)
