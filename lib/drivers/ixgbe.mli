(** Intel 82599 (ixgbe) 10 GbE NIC model.

    The paper's network driver runs in user space and owns descriptor
    rings the NIC consumes by DMA.  This model keeps the rings and
    packet buffers as real bytes in simulated physical memory; all
    device-side accesses go through the {!Atmo_hw.Iommu}, so a buffer
    the owning process never mapped for the device faults exactly as
    the paper's isolation story requires.

    Descriptor layout (16 bytes, little-endian):
    [buffer iova : u64][length : u16][flags : u16][reserved : u32];
    flag bit 0 is DD (descriptor done, set by the device on receive /
    by the driver on transmit completion), bit 1 is OWN (owned by
    hardware).

    On delivery the device claims the next descriptor with OWN set,
    DMA-writes the frame into its buffer, records the length and sets
    DD; the driver harvests DD descriptors and hands them back with
    OWN.  The wire is modelled by [wire_deliver] / [wire_collect]; a
    64-byte line rate cap of 14.2 Mpps applies to the throughput model,
    not to the functional path.  Hostile mode injects malformed/short
    descriptors, spurious and storming IRQs, duplicated completions,
    and DMA escapes. *)

include Backend.NIC

val descriptor_bytes : int
val line_rate_pps : float
