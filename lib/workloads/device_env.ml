(* Standalone device environments, shared by the kv demo, `atmo san`,
   the device-model tests and `bench dev`: each DMA-capable device gets
   private memory and its own IOMMU domain, so device traffic cannot
   touch a workload kernel's memory accounting. *)

module Phys_mem = Atmo_hw.Phys_mem
module Iommu = Atmo_hw.Iommu
module Clock = Atmo_hw.Clock
module Pte = Atmo_hw.Pte_bits
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Fault = Atmo_devmodel.Fault
module Hostile = Atmo_devmodel.Hostile
module Ixgbe = Atmo_drivers.Ixgbe
module Virtio_net = Atmo_drivers.Virtio_net
module Virtio_blk = Atmo_drivers.Virtio_blk
module Virtio_ring = Atmo_drivers.Virtio_ring
module Nvme = Atmo_drivers.Nvme

let mk_dma_env ~page_count ~device =
  let mem = Phys_mem.create ~page_count in
  let alloc = Page_alloc.create mem ~reserved_frames:0 in
  let iommu = Iommu.create mem in
  let pt =
    match Page_table.create mem alloc with
    | Ok pt -> pt
    | Error e -> Fmt.failwith "device_env: device page table: %a" Page_table.pp_error e
  in
  let map_page iova =
    let frame =
      match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User with
      | Some f -> f
      | None -> Fmt.failwith "device_env: device arena out of frames"
    in
    match Page_table.map_4k pt ~vaddr:iova ~frame ~perm:Pte.perm_rw with
    | Ok () -> ()
    | Error _ -> Fmt.failwith "device_env: device arena map failed at 0x%x" iova
  in
  let next_iova = ref 0x20_0000 in
  let span bytes =
    let base = !next_iova in
    let pages = (bytes + Phys_mem.page_size - 1) / Phys_mem.page_size in
    for i = 0 to pages - 1 do
      map_page (base + (i * Phys_mem.page_size))
    done;
    next_iova := base + (pages * Phys_mem.page_size);
    base
  in
  Iommu.attach iommu ~device ~root:(Page_table.cr3 pt);
  (mem, iommu, span)

(* ------------------------------------------------------------------ *)
(* The seeded hostile sweep *)

let sweep_pages = 128
let sweep_frame = Bytes.make 96 '\x5a'

let setup what = function
  | Ok () -> ()
  | Error e -> Fmt.failwith "device_env: %s setup: %s" what (Fault.error_to_string e)

let hostile_nic_sweep ~seed ~steps ~kind =
  let cost = Atmo_sim.Cost.default in
  let clock = Clock.create () in
  let slots = 8 in
  let rx drv_rx = ignore (drv_rx ~max:slots) in
  match kind with
  | `Ixgbe ->
    let mem, iommu, span = mk_dma_env ~page_count:sweep_pages ~device:11 in
    let nic = Ixgbe.create mem iommu ~device:11 ~clock ~cost in
    let buffers () = Array.init slots (fun _ -> (span 2048, 2048)) in
    setup "ixgbe" (Ixgbe.setup_rx nic ~ring_iova:(span Phys_mem.page_size) ~buffers:(buffers ()));
    setup "ixgbe" (Ixgbe.setup_tx nic ~ring_iova:(span Phys_mem.page_size) ~buffers:(buffers ()));
    Ixgbe.set_hostile nic (Some (Hostile.create ~seed ()));
    for i = 1 to steps do
      ignore (Ixgbe.wire_deliver nic sweep_frame);
      rx (Ixgbe.rx_burst nic);
      if i mod 4 = 0 then begin
        ignore (Ixgbe.tx_burst nic [ sweep_frame ]);
        ignore (Ixgbe.wire_collect nic)
      end
    done;
    Ixgbe.set_hostile nic None;
    for _ = 1 to 4 do
      rx (Ixgbe.rx_burst nic)
    done;
    Ixgbe.error_count nic
  | `Virtio ->
    let mem, iommu, span = mk_dma_env ~page_count:sweep_pages ~device:14 in
    let nic = Virtio_net.create mem iommu ~device:14 ~clock ~cost in
    let buffers () = Array.init slots (fun _ -> (span 2048, 2048)) in
    setup "virtio-net"
      (Virtio_net.setup_rx nic ~ring_iova:(span Phys_mem.page_size) ~buffers:(buffers ()));
    setup "virtio-net"
      (Virtio_net.setup_tx nic ~ring_iova:(span Phys_mem.page_size) ~buffers:(buffers ()));
    Virtio_net.set_hostile nic (Some (Hostile.create ~seed ()));
    for i = 1 to steps do
      ignore (Virtio_net.wire_deliver nic sweep_frame);
      rx (Virtio_net.rx_burst nic);
      if i mod 4 = 0 then begin
        ignore (Virtio_net.tx_burst nic [ sweep_frame ]);
        ignore (Virtio_net.wire_collect nic)
      end
    done;
    Virtio_net.set_hostile nic None;
    for _ = 1 to 4 do
      rx (Virtio_net.rx_burst nic)
    done;
    Virtio_net.error_count nic

let hostile_blk_sweep ~seed ~steps ~kind =
  let cost = Atmo_sim.Cost.default in
  let clock = Clock.create () in
  let block = Bytes.make Nvme.block_bytes 'b' in
  match kind with
  | `Nvme ->
    let dev = Nvme.create ~clock ~cost ~capacity_blocks:256 in
    Nvme.set_device dev 12;
    Nvme.set_hostile dev (Some (Hostile.create ~seed ()));
    for i = 1 to steps do
      let lba = i mod 256 in
      (match
         if i mod 3 = 0 then Result.map ignore (Nvme.submit_write dev ~lba ~data:block)
         else Result.map ignore (Nvme.submit_read dev ~lba)
       with
       | Ok () -> ()
       | Error _ -> ignore (Nvme.wait_all dev));
      if i mod 8 = 0 then ignore (Nvme.poll dev)
    done;
    ignore (Nvme.wait_all dev);
    Nvme.set_hostile dev None;
    ignore (Nvme.wait_all dev);
    Nvme.error_count dev
  | `Virtio ->
    let mem, iommu, span = mk_dma_env ~page_count:sweep_pages ~device:13 in
    let dev = Virtio_blk.create mem iommu ~device:13 ~clock ~cost ~capacity_blocks:256 in
    let depth = 16 in
    let _, _, _, ring_bytes = Virtio_ring.layout ~qsz:(3 * depth) ~base:0 in
    let ring_iova = span ring_bytes in
    let arena_iova = span (depth * Virtio_blk.slot_bytes) in
    setup "virtio-blk" (Virtio_blk.setup dev ~ring_iova ~arena_iova ~depth);
    Virtio_blk.set_hostile dev (Some (Hostile.create ~seed ()));
    for i = 1 to steps do
      let lba = i mod 256 in
      (match
         if i mod 3 = 0 then Result.map ignore (Virtio_blk.submit_write dev ~lba ~data:block)
         else Result.map ignore (Virtio_blk.submit_read dev ~lba)
       with
       | Ok () -> ()
       | Error _ -> ignore (Virtio_blk.wait_all dev));
      if i mod 8 = 0 then ignore (Virtio_blk.poll dev)
    done;
    ignore (Virtio_blk.wait_all dev);
    Virtio_blk.set_hostile dev None;
    ignore (Virtio_blk.wait_all dev);
    Virtio_blk.error_count dev

let hostile_sweep ~seed ~steps =
  hostile_nic_sweep ~seed ~steps ~kind:`Ixgbe
  + hostile_nic_sweep ~seed:(seed + 1) ~steps ~kind:`Virtio
  + hostile_blk_sweep ~seed:(seed + 2) ~steps ~kind:`Nvme
  + hostile_blk_sweep ~seed:(seed + 3) ~steps ~kind:`Virtio
