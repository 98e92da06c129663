(** Maintenance of the three-bit logarithmic stale counters (Section 4.1).

    A counter value [k] means the program last used the object
    approximately [2^k] full-heap collections ago. Collection number [i]
    increments a counter holding [k] if and only if [2^k] evenly divides
    [i], so an object's counter climbs one step after roughly each
    doubling of its idle time. Counters saturate at {!Header.max_stale}.

    (The paper's phrasing "if and only if i evenly divides 2^k" is
    inverted prose for the same rule: increments must become rarer, not
    more frequent, as k grows.) *)

val should_increment : gc_number:int -> current:int -> bool
(** The divisibility rule above, with saturation. [gc_number] counts
    full-heap collections from 1. Divisibility by [2^k] is tested as a
    mask of the low [k] bits, without a division. *)

val tick_object : Store.t -> gc_number:int -> int -> bool
(** [tick_object store ~gc_number id] applies the rule to the live
    object [id]; returns whether an increment happened. *)
