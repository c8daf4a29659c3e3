(** Simulated IOMMU.

    Atmosphere programs an IOMMU so that untrusted devices can only DMA
    into frames their owning process mapped for them.  We model the
    context-table indirection: each device (bus/dev/fn collapsed to one
    id) is attached to a translation domain whose root is a 4-level page
    table walked exactly like the CPU MMU. *)

type t

type dma_error = {
  e_device : int;
  e_iova : int;  (** first faulting address of the burst *)
  e_len : int;  (** length of the whole attempted burst *)
  e_write : bool;
  e_reason : [ `No_domain | `Unmapped | `Readonly ];
}
(** Typed DMA fault: why the IOMMU rejected a burst.  Every rejection
    bumps the [iommu/blocked] metrics counter and happens before any
    byte of {!Phys_mem} is touched. *)

val blocked : unit -> int
(** Process-wide count of DMA bursts the IOMMU rejected (the
    [iommu/blocked] counter; [Atmo_obs.Metrics.reset] zeroes it). *)

val create : Phys_mem.t -> t

val attach : t -> device:int -> root:int -> unit
(** Attach [device] to the translation domain rooted at [root] (the
    physical address of an L4 table page).  Any existing IOTLB for the
    device is flushed and retired. *)

val detach : t -> device:int -> unit
(** Detach the device and flush its IOTLB. *)

val domain_of : t -> device:int -> int option
(** Translation root currently attached to [device], if any. *)

val devices : t -> int list
(** Attached device ids, unordered. *)

val translate : t -> device:int -> iova:int -> Mmu.translation option
(** Resolve an I/O virtual address for [device]; [None] models a DMA
    fault (unattached device or unmapped iova).  When the software TLB
    is enabled each device has a private IOTLB that caches walks of its
    domain.  CPU-side shootdowns do {e not} reach it — like real
    hardware, the kernel must issue {!iotlb_invlpg} when it unmaps a
    DMA buffer, and forgetting to is a bug [Atmo_san.Tlb_lint]
    detects. *)

val iotlb_invlpg : t -> device:int -> iova:int -> unit
(** Invalidate the IOTLB entry (if any) for one I/O virtual page — the
    invalidation-queue command the kernel queues after an IOMMU unmap. *)

val iter_iotlbs : t -> (device:int -> Tlb.t -> unit) -> unit
(** Iterate live IOTLBs (coherence lint uses this). *)

val dma_write : t -> device:int -> iova:int -> bytes -> bool
(** Device-initiated write through the IOMMU; fails (returning [false])
    on fault or read-only mapping, without partial writes across
    unmapped boundaries within one 4 KiB frame. *)

val dma_read : t -> device:int -> iova:int -> len:int -> bytes option

val dma_write_checked : t -> device:int -> iova:int -> bytes -> (unit, dma_error) result
(** Like {!dma_write} but says why a burst was rejected, so drivers can
    surface a typed error instead of a bare failure. *)

val dma_read_checked : t -> device:int -> iova:int -> len:int -> (bytes, dma_error) result

val dma_read_into :
  t -> device:int -> iova:int -> len:int -> bytes -> (unit, dma_error) result
(** [dma_read_into t ~device ~iova ~len dst] reads one burst into
    [dst.[0 .. len)], straight from [Phys_mem]; [dst] is
    untouched when the burst is rejected.  Like every burst, it
    translates each page it touches once: a permission pass resolves
    every page (rejecting the whole burst at the first unmapped one)
    and the copy pass reuses the recorded physical addresses.  A burst
    whose pages all hit the IOTLB allocates nothing. *)

val faults : t -> int
(** Count of rejected DMA operations since creation. *)
