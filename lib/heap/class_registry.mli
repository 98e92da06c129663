(** Registry of simulated Java classes.

    Leak pruning's edge table summarizes references by the classes of
    their source and target objects (Section 4.1), so every simulated
    object carries a class identifier. The registry maps identifiers to
    names (used in reports such as
    ["org.eclipse.compare.ResourceCompareInput -> DiffNode"]) and back.

    A registry belongs to one VM instance; there is no global state. *)

type t

type id = int
(** Class identifiers are small dense integers, starting at 0. *)

val create : unit -> t

val register : t -> string -> id
(** [register t name] returns the identifier for [name], creating it on
    first use. Registering the same name twice returns the same id. *)

val name : t -> id -> string
(** @raise Invalid_argument on an unknown id. *)

val find : t -> string -> id option

val count : t -> int
(** Number of classes registered so far. *)
