(** Recursive (NrOS-style) page-table checker — the §6.2 ablation baseline.

    Checks the same obligations as {!Pt_refine} but in the classical
    hierarchical-ownership formulation: invariants and the abstract
    interpretation are defined by structural recursion from the root,
    and each node re-derives its children's interpretations (no global
    registry, no sharing across levels).  This mirrors how NrOS's
    verified page table unrolls recursive specifications level by level,
    and is what the flat design is measured against. *)

val interp : Page_table.t -> (int * Page_table.entry) list
(** Abstract interpretation of the concrete tables computed by recursive
    descent from cr3: [(virtual base, entry)] pairs. *)

val refinement : Page_table.t -> (unit, string) result
(** Recursive refinement: the recursively-derived interpretation equals
    the ghost map.  Parent nodes recompute child interpretations when
    validating containment, reproducing the repeated-unrolling cost of
    the hierarchical proof. *)

val structure : Page_table.t -> (unit, string) result
(** Recursive structural invariant: node-local well-formedness (with
    {!Pt_refine.structure}'s reserved-bit clause) plus
    recursive well-formedness of each child subtree, with the subtree
    frame sets recomputed at every level to check disjointness of
    siblings (no cycles / no sharing, derived hierarchically). *)

val all : Page_table.t -> (unit, string) result

val obligations : (string * (Page_table.t -> (unit, string) result)) list
