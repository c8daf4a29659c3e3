(** Standalone device environments and the seeded hostile device sweep.

    Each DMA-capable device runs in a private arena: fresh memory, an
    identity-style page table attached to the IOMMU as the device's
    domain, and a bump allocator of mapped iova ranges.  Device traffic
    there cannot touch a workload kernel. *)

val mk_dma_env :
  page_count:int -> device:int -> Atmo_hw.Phys_mem.t * Atmo_hw.Iommu.t * (int -> int)
(** [mk_dma_env ~page_count ~device] returns the arena's memory, its
    IOMMU and [span]: [span bytes] maps the next [bytes] (rounded up to
    whole pages, frames allocated in order) from iova [0x200000]
    upward and returns the range's base iova. *)

val hostile_nic_sweep : seed:int -> steps:int -> kind:[ `Ixgbe | `Virtio ] -> int
(** One hostile run of a NIC backend in its own arena (device 11 for
    ixgbe, 14 for virtio-net): deliver/rx with periodic tx under a
    {!Atmo_devmodel.Hostile} engine seeded [seed], then drain with the
    engine detached.  Returns the typed errors the driver absorbed. *)

val hostile_blk_sweep : seed:int -> steps:int -> kind:[ `Nvme | `Virtio ] -> int
(** The same for a block backend (device 12 for NVMe, 13 for
    virtio-blk): mixed reads and writes with periodic polls. *)

val hostile_sweep : seed:int -> steps:int -> int
(** All four device models, seeded [seed], [seed + 1], [seed + 2] and
    [seed + 3] (ixgbe, virtio-net, NVMe, virtio-blk); the sum of the
    typed errors absorbed. *)
