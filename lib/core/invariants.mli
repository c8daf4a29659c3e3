(** [total_wf]: the kernel-wide well-formedness invariant (§4.2).

    Composes every subsystem's invariant with the cross-cutting memory
    obligations the paper proves bottom-up: pairwise disjointness of the
    page closures of all subsystems (safety: every allocated page is
    used by exactly one object of one type) and leak freedom (the union
    of all page closures equals the allocator's set of allocated pages;
    the union of all mapped frames equals the allocator's mapped set,
    with matching reference counts).

    {!table} is the one definition.  Each entry is an enumerator of its
    violations, each a rule, a page and a message; {!total_wf},
    {!obligations}, the verifier's kernel obligations and atmo-san's
    whole-state reports are all derived from it.  The functions below
    are the first-failure forms of the [kernel/*] entries: full checks
    that consult no key.

    The table's [kernel/closures_disjoint], [kernel/leak_freedom] and
    [kernel/mapped_consistent] share one view of the kernel's closures
    and mappings, kept between checks and updated only for the objects
    that appeared or went and the address spaces whose table, address
    space or closure moved; each keeps the input of its last clean run
    and answers from the view, and one that finds anything runs its
    full check, so every message is the full check's. *)

type entry = Kernel.t Atmo_pm.Pm_invariants.entry

val table : entry list
(** Every kernel well-formedness check, in evaluation order: the
    allocator's, the process manager's ([pm/*], declared in
    {!Atmo_pm.Pm_invariants.table}), then the page-table, memory,
    device and interrupt checks below ([kernel/*]), each with the map
    ids it reads. *)

val allocator_wf : Kernel.t -> (unit, string) result
(** The page allocator's own invariant ({!Atmo_pmem.Page_alloc.wf}): a
    frame is free exactly when it is on the free list of its size, and
    every block is aligned to its size. *)

val pm_wf : Kernel.t -> (unit, string) result
(** Process-manager invariants ({!Atmo_pm.Pm_invariants.all}). *)

val page_tables_wf : Kernel.t -> (unit, string) result
(** Flat page-table obligations of every process
    ({!Atmo_pt.Pt_refine.all}): among them, the MMU walk from [cr3]
    agrees with the ghost address space. *)

val closures_disjoint : Kernel.t -> (unit, string) result
(** Type safety of memory: object pages of the four kinds and the page
    closures of every page table are pairwise disjoint. *)

val leak_freedom : Kernel.t -> (unit, string) result
(** Union of all page closures = the allocator's allocated set: no page
    is lost, none is used without being allocated. *)

val mapped_consistent : Kernel.t -> (unit, string) result
(** The allocator's mapped set equals the union of frames mapped by all
    address spaces (so every mapped frame is in state [Mapped n], [n >
    0]), each frame's reference count equals the number of (process,
    vaddr) mappings naming it, every mapping's whole block lies in the
    managed frames ([lo <= frame] and [frame + bytes <= hi]), and every
    leaf's allocator block has the leaf's size. *)

val devices_wf : Kernel.t -> (unit, string) result
(** Every assigned device belongs to a live process, charged to that
    process's container; its IOMMU domain root is its DMA table's root,
    and that table satisfies the page-table obligations with 4 KiB
    mappings only.  Interrupts route to live endpoints and never pend
    past a waiting receiver, and each container's external charge
    equals the IOMMU-table and DMA-window pages of its devices. *)

val irq_backlog_wf : Kernel.t -> (unit, string) result
(** The cached per-endpoint interrupt backlog equals the ground truth
    recomputed from the device table. *)

val total_wf : Kernel.t -> (unit, string) result
(** The first violation over {!table}. *)

val obligations : (string * (Kernel.t -> (unit, string) result)) list
(** {!table} with its [pm] entries folded into one [kernel/pm_wf]
    ({!pm_wf}): the eight named checks that per-check timings report. *)

(** {2 Test backdoor} *)
module Backdoor : sig
  val cache_free : (unit -> 'a) -> 'a
  (** [cache_free f] runs [f] with [kernel/closures_disjoint],
      [kernel/leak_freedom] and [kernel/mapped_consistent] running their
      full enumerators, which read no view, and keeping nothing, so the
      kept view is the same after. *)
end
