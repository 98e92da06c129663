(** Per-(class, field) access-graph summaries — the global state of the
    liveness fixpoint (after Khedker/Karkare/Sanyal's heap reference
    analysis, collapsed from per-program-point access graphs to one
    whole-program summary per field slot).

    A summary records, monotonically: which slots the program {e loads}
    anywhere ([reads] / [wild_reads]), and which classes each slot can
    hold ([content] / [wild_content]). The verdict computation in
    {!Liveness} then walks [content] as a value-flow graph: a slot never
    read is dead the moment it is written; a read slot's remaining
    dereference depth is the longest path through read slots of its
    content classes; a cycle (or [Any]) means unbounded. *)

module Names : Set.S with type elt = string
module SMap : Map.S with type key = string

module Key : sig
  type t = string * string  (** class name, field name *)

  val compare : t -> t -> int
end

module Map : Map.S with type key = Key.t
module Set_ : Set.S with type elt = Key.t

(** The value lattice: a set of possible classes, or everything. *)
type aval = Any | Classes of Names.t

val bot : aval
val of_class : string -> aval
val join : aval -> aval -> aval
val aval_equal : aval -> aval -> bool

type t = {
  content : aval Map.t;
  wild_content : aval SMap.t;
  reads : Set_.t;
  wild_reads : Names.t;
}

val empty : t
val equal : t -> t -> bool
val add_read : t -> Key.t -> t
val add_wild_read : t -> string -> t
val add_write : t -> Key.t -> aval -> t
val add_wild_write : t -> string -> aval -> t

val content_of : t -> Key.t -> aval
(** Slot content joined with same-name wild writes. *)

val is_read : t -> Key.t -> bool
val has_wild_reads : t -> bool

val universe : t -> Key.t list
(** Every slot the program mentions, sorted. *)

val pp : Format.formatter -> t -> unit
