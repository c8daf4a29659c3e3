(** The obligation catalog: what "verifying Atmosphere" means here.

    Builds populated system states and the complete list of obligations
    the runner discharges over them — the reproduction's analogue of
    running Verus over the kernel.  Three suites mirror the rows of
    Table 2:

    - the Atmosphere page table (flat checkers, {!Atmo_pt.Pt_refine});
    - the same page table with the recursive NrOS-style checkers
      ({!Atmo_pt.Nros_pt}) — the §6.2 ablation;
    - the full kernel: every subsystem invariant on a populated world
      plus one transition-spec obligation per system call (replaying a
      scripted workload under {!Refine_harness}), which stands in for
      the per-function verification conditions of Figure 2. *)

val build_pt : mappings:int -> Atmo_pt.Page_table.t
(** A page table populated with [mappings] 4 KiB mappings plus a few
    2 MiB mappings (its allocator and memory stay reachable from it). *)

val pt_obligations_flat : Atmo_pt.Page_table.t -> Obligation.t list
val pt_obligations_recursive : Atmo_pt.Page_table.t -> Obligation.t list

val build_world : scale:int -> (Atmo_core.Kernel.t * int, string) result
(** A kernel populated through system calls: [scale] containers, each
    with processes, threads, endpoints, mappings and cross-container
    endpoint shares.  Returns the kernel and the init thread. *)

val kernel_obligations : Atmo_core.Kernel.t -> Obligation.t list
(** Every state invariant of every subsystem on the given kernel: one
    obligation per entry of {!Atmo_core.Invariants.table}, then the
    recursive container-tree checks ({!Atmo_pm.Pm_invariants_rec},
    group [pm-rec]).  Each carries the read set the incremental runner
    uses. *)

val build_tree : depth:int -> fanout:int -> (Atmo_core.Kernel.t, string) result
(** A kernel whose container tree is a chain of [depth] containers, each
    chain node also carrying [fanout] leaf children — the workload for
    the container-tree half of the flat-vs-recursive ablation. *)

val pm_tree_obligations_flat : Atmo_core.Kernel.t -> Obligation.t list
(** The flat ghost-field tree invariants (path/subtree/parent-child). *)

val pm_tree_obligations_recursive : Atmo_core.Kernel.t -> Obligation.t list
(** The same facts re-derived by structural recursion
    ({!Atmo_pm.Pm_invariants_rec}). *)

val syscall_obligations : scale:int -> Obligation.t list
(** One obligation per system call: replay a fresh scripted + random
    workload checking that call's transitions against its top-level
    specification.  Obligation names are [spec/<syscall>], matching the
    per-function presentation of Figure 2. *)

val suite_for : scale:int -> Atmo_core.Kernel.t -> Obligation.t list
(** The full suite bound to a caller-supplied kernel, for incremental
    verification: keep the kernel, apply transitions, re-run. *)

val full_suite : scale:int -> (Obligation.t list, string) result
(** Page-table, kernel-invariant and per-syscall obligations together —
    the "Atmosphere" row of Table 2. *)
