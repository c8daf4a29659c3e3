(** Recursive (hierarchical-ownership) restatement of the container-tree
    invariants — the ablation baseline for {!Pm_invariants}.

    Instead of reading the ghost [path]/[subtree] fields, these checks
    re-derive ancestry by structural recursion over parent pointers and
    child lists, the way a hierarchical proof unrolls its recursive
    specifications (§4.1's [child_resolve_path_wf]).  They validate the
    same properties; the cost difference against the flat checks is
    measured by the Table 2 / §6.2 ablation bench. *)

val path_wf : Proc_mgr.t -> (unit, string) result
(** Recompute every container's root path by following parent pointers
    and compare it with the ghost [path]. *)

val subtree_wf : Proc_mgr.t -> (unit, string) result
(** Recompute every container's descendant set by recursive descent over
    child lists (re-deriving each child's subtree at every level) and
    compare with the ghost [subtree]. *)

val acyclic : Proc_mgr.t -> (unit, string) result
(** The parent relation reaches the root from every node within a bounded
    number of steps (no cycles), derived recursively. *)

val all : Proc_mgr.t -> (unit, string) result
val obligations : (string * (Proc_mgr.t -> (unit, string) result)) list

val reads : string list
(** The map ids every check above reads: the container map only. *)
