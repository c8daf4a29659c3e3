(** A device's DMA through the IOMMU, as the device models perform it:
    the virtqueue's access closures and the hostile-mode escape. *)

val ring : Atmo_hw.Iommu.t -> device:int -> Virtio_ring.dma
(** Virtqueue reads and writes as [device], each checked by the IOMMU. *)

val escape : Atmo_hw.Iommu.t -> device:int -> Atmo_devmodel.Model.t -> bytes -> unit
(** The [Dma_escape] arm: [device] writes [data] far outside any mapped
    window; the model notes the attempt and whether the IOMMU blocked
    it, and a blocked escape counts as recovered.  The driver then goes
    on as its queue requires. *)
