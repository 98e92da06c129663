(** Nursery (minor) collections for generational mode.

    The paper's substrate is MMTk's generational mark-sweep: frequent
    cheap collections examine only recently allocated objects, and only
    {e full-heap} collections drive leak pruning (staleness ticks, the
    edge table, SELECT/PRUNE — Section 3: "leak pruning performs most of
    its work during full-heap garbage collections"). This module provides
    the minor collections; [Lp_core.Controller.collect] remains the
    full-heap collection.

    A minor collection traces nursery objects reachable from the roots
    and from the remembered set's mature-to-nursery slots, promotes the
    survivors in place (the generations are logical, as in a non-moving
    generational collector), and frees the rest. Mature objects are
    conservatively assumed live, poisoned references are never traced,
    and no staleness state changes — exactly the division of labour the
    paper relies on. *)

type result = {
  promoted_objects : int;
  promoted_bytes : int;
  freed_objects : int;
  freed_bytes : int;
  slots_scanned : int;
}

val collect :
  ?events:Lp_obs.Sink.t ->
  ?number:int ->
  Store.t ->
  Roots.t ->
  remset:Remset.t ->
  result
(** Runs one minor collection and clears the remembered set. When an
    observability sink is given, brackets the collection in
    [Minor_begin]/[Minor_end] events labelled [number] (the VM's minor
    collection count; default 0). *)
