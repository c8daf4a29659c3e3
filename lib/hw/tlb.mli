(** Software TLB: per-address-space translation caching with an explicit
    shootdown protocol.

    Every hot path of the stack translates through {!Mmu.resolve}
    (kernel dispatch, IPC buffer access, mmap probes) or the IOMMU
    (ixgbe / NVMe DMA); without a TLB each translation is a 4-level walk
    of 3-4 {!Phys_mem.read_u64}s.  This module caches walk results in a
    direct-mapped-with-ways array per address space, tagged by the cr3
    root (the ASID — distinct roots never alias), holding the frame
    base, mapping size (4 KiB / 2 MiB / 1 GiB) and the meet-of-perms
    computed by the walk, so a warm translation is one array probe.

    Caching is only sound with invalidation, and the invalidation points
    are the interesting part: {!Page_table} issues a precise
    invlpg-style {!invlpg} / {!shoot_range} after every mapping
    mutation, {!flush_asid} tears the whole space down on destroy, the
    page allocator shoots physical ranges on superpage merge / split,
    and the IOMMU keeps a parallel IOTLB (instances created here with
    [kind:`Io]) that the kernel must invalidate explicitly on io_unmap /
    device detach — CPU-side shootdowns deliberately do not reach it,
    as on real hardware.  [Atmo_san.Tlb_lint] checks coherence: every
    live entry must agree with a fresh cold walk. *)

type t
(** One translation cache (an address space's TLB, or a device's IOTLB). *)

val capacity : int
(** Total entries per cache (sets x ways). *)

val create : Phys_mem.t -> asid:int -> kind:[ `Cpu | `Io ] -> t
(** A standalone cache.  [kind] selects which global counter family
    ("tlb/..." or "iotlb/...") the instance feeds.  CPU-side caches are
    normally obtained through {!space} instead. *)

val mem : t -> Phys_mem.t
val asid : t -> int

val live : t -> int
(** Number of valid entries. *)

val probe : t -> vaddr:int -> int
(** Allocation-free lookup: the index of the slot caching [vaddr]'s
    page, or [-1] on a miss; bumps the hit / miss counters.  Read the
    hit with {!slot_frame}, {!slot_size} and {!slot_perm} before the
    next {!insert} into the cache. *)

val slot_frame : t -> int -> int
val slot_size : t -> int -> int
val slot_perm : t -> int -> Pte_bits.perm

val lookup : t -> vaddr:int -> (int * int * Pte_bits.perm) option
(** [(frame, size, perm)] of the cached mapping covering [vaddr], if
    any: {!probe} with the hit boxed; bumps the hit / miss counters. *)

val insert : t -> vaddr:int -> frame:int -> size:int -> perm:Pte_bits.perm -> unit
(** Cache a successful walk result (negative results are never cached).
    [frame] is the mapping's base frame, so the physical address is
    [frame + (vaddr land (size - 1))]. *)

val invalidate_page : t -> vaddr:int -> unit
(** invlpg: drop the entry for [vaddr]'s page, if cached. *)

val invalidate_range : t -> vaddr:int -> bytes:int -> unit
(** Precise per-page invalidation of a span, falling back to {!flush}
    past the precision threshold (superpage spans), like a cr3 write. *)

val invalidate_frames : t -> lo:int -> hi:int -> unit
(** Drop every entry whose backing physical range intersects
    [\[lo, hi)] — used when the allocator reshapes physical blocks. *)

val flush : t -> unit
(** Drop every entry; emits a [Tlb_flush] event when tracing. *)

val entries : t -> (int * int * int * Pte_bits.perm) list
(** Live entries as [(virtual base, frame, size, perm)], for the
    coherence lint. *)

(** {2 CPU-side registry}

    The MMU and the page-table layer address caches by [(memory, cr3)];
    the registry creates them on demand and drops them on ASID flush. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Arm / disarm translation caching globally (default: on).  Both
    transitions drop every cached entry, so a disabled run is a pure
    cold-walk oracle. *)

val space : Phys_mem.t -> cr3:int -> t
(** Find-or-create the cache for an address space. *)

val space_opt : Phys_mem.t -> cr3:int -> t option

val invlpg : Phys_mem.t -> cr3:int -> vaddr:int -> unit
(** Shootdown of one page in one address space; no-op if the space has
    no cache yet. *)

val shoot_range : Phys_mem.t -> cr3:int -> vaddr:int -> bytes:int -> unit

val flush_asid : Phys_mem.t -> cr3:int -> unit
(** Flush and unregister the cache of a dying (or reused) root. *)

val shoot_frames : Phys_mem.t -> lo:int -> hi:int -> unit
(** Physical-range shootdown across every registered space of [mem]. *)

val iter_spaces : (t -> unit) -> unit
(** Every registered CPU-side cache (the lint's iteration surface). *)

val clear : unit -> unit
(** Drop all registered caches (tests / fresh CLI runs). *)

(** {2 Counters}

    Counts are process-global per family and live in the
    {!Atmo_obs.Metrics} registry ("tlb/hits", "iotlb/flushes", ...), so
    [atmo trace] surfaces them without extra plumbing. *)

type stats = { hits : int; misses : int; evictions : int; flushes : int; invlpgs : int }

val cpu_stats : unit -> stats
val io_stats : unit -> stats
