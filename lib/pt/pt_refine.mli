(** Flat refinement and invariant checks for {!Page_table}.

    Executable counterpart of the paper's page-table proof (§6.2): each
    function is one named obligation.  All checks are written in the
    paper's flat style — they quantify over the global ghost map and the
    flat table-page registry, never by structural recursion from the
    root.  {!Nros_pt} provides the recursive (NrOS-style) formulation of
    the same obligations for the ablation.

    Each obligation is written once, as an enumerator of violations
    ({!violations}); the functions below are its first-failure form. *)

val refinement : Page_table.t -> (unit, string) result
(** The ghost map and the MMU agree: every ghost entry resolves through
    the concrete tables to the same frame and permission, and every
    MMU-visible mapping appears in the ghost map (both inclusions, as in
    the paper's two [forall] statements). *)

val structure : Page_table.t -> (unit, string) result
(** Structural invariants over the flat registry: the root is a level-4
    table; every present non-huge entry points to a registered table of
    the next level down; every non-root table is referenced by exactly
    one parent slot (no aliasing, hence no cycles); huge bits appear only
    at L3/L2; leaf frames are aligned to their mapping size; and, last,
    no present entry sets a bit the kernel never programs
    ({!Atmo_hw.Pte_bits.has_reserved}). *)

val ghost_wf : Page_table.t -> (unit, string) result
(** Well-formedness of the abstract state: each entry's virtual base is
    canonical, and its base and frame are aligned to the entry's own
    size; the virtual ranges of all mappings are pairwise disjoint —
    which is what lets {!Page_table.overlaps} decide overlap with one
    lookup — and the maintained [page_closure] equals the table
    registry it caches. *)

val violations : Page_table.t -> Atmo_util.Violation.sink -> unit
(** Every violation of every obligation above, and of
    [pt/closure_disjoint] (the table pages are disjoint from the mapped
    frames: a mapping must never expose the page table's own memory), in
    the order {!obligations} lists them: malformed entries file as
    [Malformed_pte], misaligned huge leaves as
    [Pt_misaligned_superpage], wrong-level or shared tables as
    [Pt_bad_level], the rest as [Ill_formed].  Returns at once when the
    table's whole input equals that of its last clean check
    ({!Page_table.unchanged_since_clean_check}) and records the key
    after a clean run; the first-failure obligations above never
    consult it. *)

val all : Page_table.t -> (unit, string) result
(** The first of {!violations}. *)

val obligations : (string * (Page_table.t -> (unit, string) result)) list
(** Named obligations, for the verification-time harness. *)
