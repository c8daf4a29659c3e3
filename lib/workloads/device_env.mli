(** Device handles, and the seeded hostile device sweep.

    A handle is one NIC or one block device behind the operations
    every backend of its kind shares, so a caller picks a backend by
    value and never matches on it.  Each DMA-capable device runs in a
    private arena: fresh memory, an identity-style page table attached
    to the IOMMU as the device's domain, and the rings and buffers
    mapped in it.  Device traffic there cannot touch a workload
    kernel.  The typed errors a device absorbed, and its hostile engine,
    live in its {!Atmo_devmodel.Model}. *)

(** {2 NICs} *)

type nic

val nic :
  kind:[ `Ixgbe | `Virtio ] ->
  device:int ->
  slots:int ->
  clock:Atmo_hw.Clock.t ->
  cost:Atmo_sim.Cost.t ->
  nic
(** An ixgbe or virtio-net NIC with its RX and TX rings programmed,
    [slots] 2 KiB buffers each. *)

val nic_model : nic -> Atmo_devmodel.Model.t
val nic_deliver : nic -> bytes -> bool
(** A frame arrives on the wire (the driver's [wire_deliver]). *)

val nic_collect : nic -> bytes list
(** Frames transmitted since the last call (the driver's [wire_collect]). *)

val nic_rx : nic -> max:int -> bytes list
val nic_tx : nic -> bytes list -> int

(** {2 Block devices} *)

type blk

val blk :
  kind:[ `Nvme | `Virtio ] ->
  device:int ->
  depth:int ->
  capacity_blocks:int ->
  clock:Atmo_hw.Clock.t ->
  cost:Atmo_sim.Cost.t ->
  blk
(** An NVMe queue pair, or a virtio-blk device whose virtqueue holds
    [depth] requests; both serve [capacity_blocks] blocks through
    {!Atmo_drivers.Block}, so they complete on one timeline. *)

val blk_model : blk -> Atmo_devmodel.Model.t
val blk_read : blk -> lba:int -> (int, Atmo_devmodel.Fault.error) result
val blk_write : blk -> lba:int -> data:bytes -> (int, Atmo_devmodel.Fault.error) result
val blk_poll : blk -> Atmo_drivers.Block.completion list
val blk_wait : blk -> Atmo_drivers.Block.completion list

(** {2 The hostile sweep} *)

val hostile_nic_sweep : seed:int -> steps:int -> kind:[ `Ixgbe | `Virtio ] -> int
(** One hostile run of a NIC backend (device 11 for ixgbe, 14 for
    virtio-net): deliver/rx with periodic tx under a
    {!Atmo_devmodel.Hostile} engine seeded [seed], then drain with the
    engine detached.  Returns the typed errors the driver absorbed. *)

val hostile_blk_sweep : seed:int -> steps:int -> kind:[ `Nvme | `Virtio ] -> int
(** The same for a block backend (device 12 for NVMe, 13 for
    virtio-blk): mixed reads and writes with periodic polls. *)

val hostile_sweep : seed:int -> steps:int -> int
(** All four device models, seeded [seed], [seed + 1], [seed + 2] and
    [seed + 3] (ixgbe, virtio-net, NVMe, virtio-blk); the sum of the
    typed errors absorbed. *)
