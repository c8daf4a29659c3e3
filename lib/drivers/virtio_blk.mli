(** Virtio-blk device model over a split virtqueue.

    The second block backend behind the NVMe-shaped driver interface:
    submit reads/writes of 4 KiB blocks, poll completions.  Each request
    is a classic three-descriptor chain in guest memory — a 16-byte
    header (type, sector), the 4 KiB data buffer, and a one-byte status
    — all reached by IOTLB-mediated DMA, so the IOMMU window bounds
    every byte the device can touch.  Requests are validated, timed and
    served by the {!Block} service model {!Nvme} uses too, so a
    workload sees the same virtual-clock timeline on either backend.

    [setup] must be called before the first submit: [ring_iova] names
    a region covering [Virtio_ring.layout ~qsz:(3 * queue_depth)]
    bytes, and [arena_iova] a region of [queue_depth * slot_bytes]
    bytes holding the per-request header/data/status blocks. *)

include Backend.BLOCK

val slot_bytes : int
(** Arena footprint of one in-flight request: header + block + status. *)

val create :
  Atmo_hw.Phys_mem.t ->
  Atmo_hw.Iommu.t ->
  device:int ->
  clock:Atmo_hw.Clock.t ->
  cost:Atmo_sim.Cost.t ->
  capacity_blocks:int ->
  t

val setup :
  t -> ring_iova:int -> arena_iova:int -> depth:int -> (unit, Atmo_devmodel.Fault.error) result
