(** 4-level page tables with 4 KiB / 2 MiB / 1 GiB mappings.

    The concrete state is real page-table pages in simulated physical
    memory; the abstract state is one ghost address space from virtual
    base to mapped frame, size and permission, updated with every
    mapping change.  (The paper keeps one ghost map per page size; each
    is this map's entries of that size.)  {!Pt_refine} checks the
    refinement between the two (ghost map vs MMU walk) and the structural
    invariants.

    Following the paper's flat permission storage, the permissions to all
    table pages of a page table are held at the top level, in the
    [tables] registry: each table page address is recorded with its level,
    giving the checkers a global, non-recursive view of the tree. *)

type entry = {
  frame : int;  (** physical base address of the mapped block *)
  size : Atmo_pmem.Page_state.size;
  perm : Atmo_hw.Pte_bits.perm;
}

val equal_entry : entry -> entry -> bool
val pp_entry : Format.formatter -> entry -> unit

type error =
  | Already_mapped
  | Not_mapped
  | Misaligned
  | Non_canonical
  | Conflict  (** a mapping of a different size covers this range *)
  | Oom
  | Walk_fault
      (** an entry on the walk points at a table past the end of
          memory: every walk below ({!map}, {!find_leaf} and so
          {!unmap} and {!update_perm}, {!missing_tables}) stops there
          and changes nothing, where the load would raise *)

val pp_error : Format.formatter -> error -> unit

type t

val create : Atmo_hw.Phys_mem.t -> Atmo_pmem.Page_alloc.t -> (t, error) result
(** Allocates the root (L4) table page from the allocator. *)

val cr3 : t -> int
val mem : t -> Atmo_hw.Phys_mem.t

val tables : t -> (int * int) list
(** Flat registry of table pages as [(page address, level)] pairs,
    level 4 = root.  This is the executable form of storing the
    [PointsTo] permissions of every PML level at the top. *)

val table_level : t -> addr:int -> int option

val map :
  t ->
  size:Atmo_pmem.Page_state.size ->
  vaddr:int ->
  frame:int ->
  perm:Atmo_hw.Pte_bits.perm ->
  (unit, error) result
(** Install a mapping of [size], allocating intermediate table pages on
    demand: the only function that installs one.  The frame's allocator
    state is the caller's concern (the kernel's mmap path
    allocates/refcounts around this call).  Shoots the covered range out
    of the {!Atmo_hw.Tlb} (one [invlpg] for a 4 KiB page). *)

val map_4k : t -> vaddr:int -> frame:int -> perm:Atmo_hw.Pte_bits.perm -> (unit, error) result
(** [map ~size:S4k]. *)

val unmap : t -> vaddr:int -> (entry, error) result
(** Remove the mapping whose range contains [vaddr] (given its exact
    virtual base), returning what was mapped.  Intermediate tables are
    not reclaimed until {!destroy}, as in the paper's kernel.  Shoots the
    covered virtual range out of the {!Atmo_hw.Tlb} (precise [invlpg]s
    for small ranges, full ASID flush for superpages). *)

val unmap_all : t -> vaddrs:int list -> (entry -> unit) -> (unit, error) result
(** [unmap_all t ~vaddrs f] unmaps the mappings based at [vaddrs], in
    that order, as {!unmap} would, calling [f] on each entry right after
    its leaf is cleared; or, when a leaf cannot be found, unmaps none:
    every leaf is found before the first is cleared. *)

val find_leaf : t -> vaddr:int -> (int * int * entry, error) result
(** The table page, index and entry of the mapping whose virtual base
    is [vaddr]: the slot {!unmap} and {!update_perm} write.
    [Error Misaligned] when [vaddr] lies inside a mapping but is not
    its base. *)

val update_perm : t -> vaddr:int -> perm:Atmo_hw.Pte_bits.perm -> (unit, error) result
(** Change the permission bits of an existing leaf mapping in place.
    Shoots the covered range like {!unmap} — a cached writable
    translation must not outlive an mprotect. *)

val resolve : t -> vaddr:int -> Atmo_hw.Mmu.translation option
(** What the MMU sees — walks the concrete tables, served from the
    software {!Atmo_hw.Tlb} when warm. *)

val resolve_cold : t -> vaddr:int -> Atmo_hw.Mmu.translation option
(** {!Atmo_hw.Mmu.walk} through this table: always reads the concrete
    tables, never the TLB.  The oracle {!resolve} is tested against. *)

val destroy : t -> Atmo_util.Iset.t
(** Tear the table down, returning every table page to the allocator.
    Returns the set of frames that were still mapped (for the caller to
    unreference); the ghost address space becomes empty.  Flushes and
    retires the address space's TLB (its ASID disappears with its
    cr3). *)

(** {2 Abstract (ghost) state} *)

val address_space : t -> entry Atmo_util.Imap.t
(** The ghost address space, keyed by virtual base address: the
    process's abstract address space as used by the kernel
    specification.  Each entry carries its own size. *)

val overlaps : t -> vaddr:int -> bytes:int -> bool
(** Does [\[vaddr, vaddr + bytes)] intersect a mapping?  One
    predecessor lookup in {!address_space}, O(log n): the mapped ranges
    are pairwise disjoint (checked by [Pt_refine.ghost_wf]), so only the
    mapping with the greatest base below [vaddr + bytes] can reach into
    the range.  [sys_mmap] refuses overlapping requests with it. *)

val mapped_frames : t -> Atmo_util.Iset.t
(** Physical base addresses of all mapped blocks. *)

val page_closure : t -> Atmo_util.Iset.t
(** Frames owned by the page table itself (its table pages) — the
    paper's [page_closure] for this data structure.  Mapped user frames
    are deliberately not included; they are owned by the address-space
    accounting of the process.  Maintained where table pages are
    allocated and freed, so this accessor is O(1); it must always equal
    the pages of {!tables} (checked by [Pt_refine.ghost_wf]). *)

type ghost = { pt : t; seen_space : entry Atmo_util.Imap.t; seen_closure : Atmo_util.Iset.t }
(** A table's ghost state as a reader saw it: its {!address_space} and
    {!page_closure}, persistent values every writer replaces. *)

val ghost : t -> ghost

val ghost_unchanged : ghost -> bool
(** The table's address space and closure are still the values [ghost]
    read (two pointer compares): no map, unmap, permission change, table
    allocation or teardown came since. *)

val missing_tables :
  t -> vaddrs:(int * Atmo_pmem.Page_state.size) list -> (int, error) result
(** Dry run: how many intermediate table pages would have to be
    allocated to install mappings at the given virtual bases.  Shared
    new tables between the addresses are counted once.  The kernel uses
    this to charge container quota exactly, before any side effect.
    [Error Walk_fault] when a walk reaches a table past the end of
    memory. *)

val prune_empty_tables : t -> keep:Atmo_util.Iset.t -> int
(** Free table pages (never the root, never pages in [keep]) that
    currently contain no present entries, iterating to a fixpoint.
    Returns the number of pages freed.  Used to roll back a partially
    failed multi-page mmap so that failures are side-effect free. *)

(** {2 Step hook (update consistency, §4.2)} *)

val set_step_hook : t -> (leaf:bool -> unit) option -> unit
(** The paper proves that each individual page-table write is consistent:
    non-leaf writes leave the abstract mapping unchanged, a leaf write
    changes exactly one entry.  The hook fires after every concrete
    table-entry write with [leaf] telling which case applies, letting
    tests re-check the MMU-visible mapping at every intermediate step. *)

(** {2 Structural changes (incremental verification)} *)

type Atmo_util.Mutation.event += Pt_changed
(** One successful structural change to any page table — create, map,
    unmap, update, destroy or prune — emitted as kind [Pt] on
    {!Atmo_util.Mutation} after ticking the always-on {!map_id}.
    Unlike {!set_step_hook} (per-instance, one firing per concrete PTE
    store) this reports abstract-map mutations, which is what the
    incremental verifier's dirty tracker needs. *)

val map_id : string
(** ["pt"]: the map id of every page table, process and IOMMU alike. *)

(** {2 The key of the last clean check}

    [Pt_refine.violations] reads the address space, the page closure,
    the registry and the bytes of the table pages its walk reaches.  A
    clean verdict means every page the walk reaches is registered, so
    after one the registered pages are every page the check read, and
    their write versions ({!Atmo_hw.Phys_mem.version}) with the rest
    are the check's whole input.  A table whose input equals that of
    its last clean check is clean again: a hit is exact, not trusted.
    Unlike the {!Pt_changed} stream, which only this module's writers
    emit, the key also sees a raw {!Atmo_hw.Phys_mem} store into a
    table page. *)

type check_input
(** The input of one check: the address space and the page closure by
    identity, the registry's pairs in {!tables} order and the write
    version of each registered page. *)

val check_input : t -> check_input
(** The check's input as it stands; take it before the check. *)

val record_clean_check : t -> check_input -> unit
(** Keep [input] as the key of the table's last clean check: one field
    write, so checks of one table racing on other domains see either
    key whole (and may both run in full). *)

val unchanged_since_clean_check : t -> bool
(** The table's input equals the key of its last clean check: the same
    address space and closure, the same registry pairs, and every
    registered page at its recorded version.  Puts one ranged [Read]
    per registered page on the [Access] stream ({!Atmo_hw.Phys_mem.unchanged}), so a
    sanitizer still sees the check read a freed table page.  False
    before any clean check. *)

module Backdoor : sig
  val forget_check : t -> unit
  (** Drop the key, so the next check runs in full: for oracle tests
      that compare the keyed check with a cache-free one. *)

  val add_mapping : t -> vaddr:int -> entry -> unit
  (** Put [entry] in the address space at [vaddr] and touch nothing
      else, as a writer that skipped its table store would. *)

  type part = Space | Closure | Table_level | Extra_table

  val drift : t -> part -> unit
  (** Change one part of the check's input and nothing else, as a writer
      that skipped its table store would: a stray mapping in the address
      space, a stray page in the closure, the root re-registered at
      level 3, or page 0 registered as an L1 table.  Each breaks a
      clause of the check. *)
end

val walk_concrete : t -> (int * entry) list
(** Enumerate the MMU-visible mappings by walking the concrete tables
    from cr3, one {!Atmo_hw.Phys_mem.iter_table} per table page:
    [(virtual base, entry)] pairs.  Used by the refinement checker as
    the "hardware view".  A table past the end of memory is a walk
    fault with no leaf below it. *)
