(** Simulated x86-64 MMU: a 4-level page-table walk interpreter.

    The refinement theorem of the paper's page-table subsystem states that
    the abstract virtual-to-physical map equals "what the MMU sees".  This
    module is the "MMU sees" side: it walks real page tables stored in
    {!Phys_mem} frames, independently of the kernel code that built them,
    so comparing it against the abstract map is a genuine end-to-end
    check. *)

type translation = {
  paddr : int;  (** resolved physical byte address *)
  frame : int;  (** base address of the backing frame *)
  size : int;  (** mapping granularity in bytes: 4 KiB, 2 MiB or 1 GiB *)
  perm : Pte_bits.perm;
}

val canonical : int -> bool
(** True iff the address is canonical for 48-bit virtual addressing. *)

val l4_index : int -> int
val l3_index : int -> int
val l2_index : int -> int
val l1_index : int -> int
(** Index of a virtual address at each paging level (0..511). *)

val va_of_indices : l4:int -> l3:int -> l2:int -> l1:int -> int
(** Reassemble a canonical virtual address from its four indices; inverse
    of the four index functions for 4 KiB-aligned addresses. *)

val entry_addr : table:int -> index:int -> int
(** Physical address of entry [index] in the table page at [table]. *)

val resolve : Phys_mem.t -> cr3:int -> vaddr:int -> translation option
(** Translate [vaddr] through the page table rooted at [cr3].  [None]
    models a page fault (non-present entry at any level or non-canonical
    address).  When the software {!Tlb} is enabled (the default) a warm
    translation is served from the cache and successful walks refill it;
    results are bit-identical to {!walk} as long as every table mutation
    issues its shootdown (checked by [Atmo_san.Tlb_lint]). *)

val walk : Phys_mem.t -> cr3:int -> vaddr:int -> translation option
(** The raw 4-level walk, always reading the tables — the cold oracle
    for {!resolve}.  Checkers and lints use this so a stale TLB entry
    can never hide a corrupted table from them. *)

val read_u64 : Phys_mem.t -> cr3:int -> vaddr:int -> int64 option
(** Virtual load through the walk; [None] on fault. *)

val write_u64 : Phys_mem.t -> cr3:int -> vaddr:int -> int64 -> bool
(** Virtual store through the walk; [false] on fault or read-only
    mapping. *)

