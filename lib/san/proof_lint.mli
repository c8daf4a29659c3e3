(** Stale-proof lint (rule [stale-proof], DESIGN §13).

    A cached obligation verdict is only as good as the dirty tracking
    that justified skipping the re-check.  This lint audits the
    incremental verifier: every layer on the mutation stream
    (permission maps, page allocator, page tables, device table) keeps
    an always-on intrinsic counter in {!Atmo_util.Mutation}, and {!Atmo_verif.Incremental.audit} reports any
    container whose intrinsic count advanced past the tracker's
    observed count — a mutation with no matching dirty mark.  Files one
    {!Report.Stale_proof} per diverged container; returns how many.
    No-op (0) when no tracker is armed. *)

val lint : Atmo_core.Kernel.t -> int
