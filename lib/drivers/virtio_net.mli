(** Virtio-net device model over a split virtqueue.

    The same {!Backend.NIC} as {!Ixgbe}, but the rings are real virtio
    1.0 split virtqueues ({!Virtio_ring}) living in guest memory behind
    the IOMMU, so the kv/Maglev workload runs on either NIC backend
    unchanged.  The queue region passed as [ring_iova] must cover
    [Virtio_ring.layout ~qsz:(Array.length buffers)] bytes.  Hostile
    mode injects the same fault kinds as the ixgbe model, as used-ring
    entries. *)

include Backend.NIC
