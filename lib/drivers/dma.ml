module Iommu = Atmo_hw.Iommu
module Fault = Atmo_devmodel.Fault
module Model = Atmo_devmodel.Model

let ring iommu ~device =
  {
    Virtio_ring.read = (fun ~iova ~len -> Iommu.dma_read iommu ~device ~iova ~len);
    Virtio_ring.write = (fun ~iova b -> Iommu.dma_write iommu ~device ~iova b);
  }

(* where hostile-mode DMA escapes aim: far outside any mapped window *)
let escape_iova = 0x7f00_0000_0000

let escape iommu ~device model data =
  let blocked = not (Iommu.dma_write iommu ~device ~iova:escape_iova data) in
  Model.note_escape model ~blocked;
  if blocked then Model.recovered model Fault.Dma_escape
