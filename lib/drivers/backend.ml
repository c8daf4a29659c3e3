(** What every backend of a device kind offers.  {!Ixgbe} and
    {!Virtio_net} are both a {!NIC}; {!Nvme} and {!Virtio_blk} are both
    a {!BLOCK} over the shared {!Block} service model.  A caller that
    picks a backend holds it as a value of one of these signatures
    ([Atmo_workloads.Device_env]), so it never matches on which backend
    it holds.

    Every backend runs behind an {!Atmo_devmodel.Model}: its lifecycle
    state, its completion/IRQ/DMA ledgers, its hostile engine and the
    typed errors its driver absorbed all live there.  A hostile engine
    on the model makes the device misbehave (malformed or short
    completions, spurious and storming IRQs, duplicates, reordering,
    DMA escapes); the driver absorbs all of it as typed
    {!Atmo_devmodel.Fault.error}s. *)

module type NIC = sig
  type t

  val create :
    Atmo_hw.Phys_mem.t ->
    Atmo_hw.Iommu.t ->
    device:int ->
    clock:Atmo_hw.Clock.t ->
    cost:Atmo_sim.Cost.t ->
    t

  val model : t -> Atmo_devmodel.Model.t

  val errors : t -> Atmo_devmodel.Fault.error list
  (** The typed errors in the model's ledger, oldest first (capped). *)

  val error_count : t -> int

  val setup_rx :
    t -> ring_iova:int -> buffers:(int * int) array -> (unit, Atmo_devmodel.Fault.error) result
  (** Program the receive ring at [ring_iova]: one [(buffer iova,
      capacity)] per slot, every slot handed to the device.  Fails if a
      ring write faults in the IOMMU. *)

  val setup_tx :
    t -> ring_iova:int -> buffers:(int * int) array -> (unit, Atmo_devmodel.Fault.error) result
  (** Program the transmit ring with one DMA buffer per slot; frames are
      DMA-written into the slot buffer before they reach the wire. *)

  (** {2 Wire side (the cable)} *)

  val wire_deliver : t -> bytes -> bool
  (** A frame arrives: the device claims the next RX buffer it owns,
      DMA-writes the frame into it and posts the completion.  [false]
      (and a drop counted) when no buffer is free or the DMA faults. *)

  val wire_collect : t -> bytes list
  (** Drain frames the device has transmitted since the last call. *)

  val rx_drops : t -> int

  (** {2 Driver side} *)

  val rx_burst : t -> max:int -> bytes list
  (** Harvest up to [max] received frames, hand their buffers back to
      the device, and acknowledge any pending IRQs.  A completion that
      fails validation (an impossible slot, zero length or more than the
      buffer holds, a buffer the IOMMU rejects) is consumed, recorded as
      a typed error and its buffer handed back: a hostile device cannot
      wedge the ring.  Charges [cost.driver_per_packet] per consumed
      completion. *)

  val tx_burst : t -> bytes list -> int
  (** Enqueue frames into free TX slots; the device sends them at once
      ({!wire_collect} observes them).  Returns the number accepted.
      Charges per-packet driver cycles. *)

  val stats : t -> int * int
  (** (frames received by the driver, frames transmitted). *)
end

module type BLOCK = sig
  type t

  val block_bytes : int
  val model : t -> Atmo_devmodel.Model.t

  val errors : t -> Atmo_devmodel.Fault.error list
  (** The typed errors in the model's ledger, oldest first (capped). *)

  val error_count : t -> int

  val queue_depth : t -> int
  (** Outstanding (submitted, not yet harvested) requests. *)

  val submit_read : t -> lba:int -> (int, Atmo_devmodel.Fault.error) result
  (** Returns the tag; a typed error on an out-of-range LBA or a full
      queue. *)

  val submit_write : t -> lba:int -> data:bytes -> (int, Atmo_devmodel.Fault.error) result
  (** [data] must be exactly one block. *)

  val poll : t -> Block.completion list
  (** Harvest completions due at the current clock, oldest first.  Only
      completions of outstanding requests surface: a hostile device's
      invented or duplicated ones are dropped with a typed error. *)

  val wait_all : t -> Block.completion list
  (** Advance the clock to drain every outstanding request. *)

  val read_block_direct : t -> lba:int -> bytes
  (** Backdoor for tests: current contents of a block. *)
end
