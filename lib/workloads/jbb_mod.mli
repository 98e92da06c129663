(** JbbMod — Tang et al.'s modification of SPECjbb2000.

    Most of JbbMod's heap growth is {e stale} rather than live: orders
    are not processed after creation, which lets disk-offloading systems
    (LeakSurvivor, Melt) tolerate the leak until the disk fills. Leak
    pruning fails to run it indefinitely for a subtler reason the paper
    diagnoses with Melt: the reference type [Object\[\] -> Order] has a
    high [maxstaleuse] (5) — an early phase accessed orders after they
    had gone very stale — so leak pruning never selects it and instead
    repeatedly prunes [spec.jbb.OrderLine -> java.lang.String -> char\[\]]
    below it. Orders, order lines and dates accumulate until memory is
    exhausted after 21× the base iterations (about 10 hours in the
    paper). *)

val workload : Workload.t
