(** The block service model both block backends share.

    A store of 4 KiB blocks served with a fixed per-op latency and
    per-kind rate caps taken from the {!Atmo_sim.Cost} calibration
    (§6.5.2's device maxima).  {!Nvme} (a submission/completion queue
    pair) and {!Virtio_blk} (a split virtqueue behind the IOMMU) differ
    only in how a request reaches the device: both validate it here,
    place its completion on this one virtual-clock timeline and serve
    it from this store, so swapping one for the other moves no cycle
    and no byte. *)

type op = Read | Write

type completion = {
  tag : int;
  op : op;
  lba : int;
  ok : bool;
  data : bytes option;  (** block contents for successful reads *)
}

val block_bytes : int

type t

val create : clock:Atmo_hw.Clock.t -> cost:Atmo_sim.Cost.t -> capacity_blocks:int -> t
(** Raises [Invalid_argument] if [capacity_blocks <= 0]. *)

val check : t -> lba:int -> data:bytes option -> (unit, Atmo_devmodel.Fault.error) result
(** Validate a request: a write's [data] is exactly one block, then
    [lba] lies in [\[0, capacity_blocks)]. *)

val due_time : t -> op -> int
(** The cycle at which a request of kind [op] submitted now completes:
    the device latency after the later of now and the kind's next free
    rate-cap slot, which moves on by one slot (1/cap of a second). *)

val read : t -> lba:int -> bytes
(** A copy of the block (zeros if it was never written). *)

val write : t -> lba:int -> bytes -> unit
(** Store [data] as the block's contents; the store keeps [data]
    itself, not a copy. *)
