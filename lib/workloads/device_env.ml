(* Standalone device environments, shared by the kv demo, `atmo san`,
   the device-model tests and the benches: each DMA-capable device gets
   private memory and its own IOMMU domain, so device traffic cannot
   touch a workload kernel's memory accounting.  This is the one place
   that picks a driver for a backend kind. *)

module Phys_mem = Atmo_hw.Phys_mem
module Iommu = Atmo_hw.Iommu
module Clock = Atmo_hw.Clock
module Cost = Atmo_sim.Cost
module Pte = Atmo_hw.Pte_bits
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Fault = Atmo_devmodel.Fault
module Hostile = Atmo_devmodel.Hostile
module Model = Atmo_devmodel.Model
module Backend = Atmo_drivers.Backend
module Block = Atmo_drivers.Block
module Ixgbe = Atmo_drivers.Ixgbe
module Virtio_net = Atmo_drivers.Virtio_net
module Virtio_blk = Atmo_drivers.Virtio_blk
module Virtio_ring = Atmo_drivers.Virtio_ring
module Nvme = Atmo_drivers.Nvme

let pages_of bytes = (bytes + Phys_mem.page_size - 1) / Phys_mem.page_size

(* A private arena for [pages] pages of spans.  The spans start at a
   2 MiB boundary, so the device page table adds its root, one table per
   upper level and one leaf table per 2 MiB of spans. *)
let arena ~pages ~device =
  let mem = Phys_mem.create ~page_count:(pages + 4 + (pages / 512)) in
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
    let pages = pages_of bytes in
    for i = 0 to pages - 1 do
      map_page (base + (i * Phys_mem.page_size))
    done;
    next_iova := base + (pages * Phys_mem.page_size);
    base
  in
  Iommu.attach iommu ~device ~root:(Page_table.cr3 pt);
  (mem, iommu, span)

let setup what = function
  | Ok () -> ()
  | Error e -> Fmt.failwith "device_env: %s setup: %s" what (Fault.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Device handles *)

type nic = Nic : (module Backend.NIC with type t = 'a) * 'a -> nic
type blk = Blk : (module Backend.BLOCK with type t = 'a) * 'a -> blk

let nic_buf_bytes = 2048

let nic ~kind ~device ~slots ~clock ~cost =
  let (module N : Backend.NIC) =
    match kind with
    | `Ixgbe -> (module Ixgbe : Backend.NIC)
    | `Virtio -> (module Virtio_net : Backend.NIC)
  in
  (* one page per ring and per buffer, in both directions *)
  let mem, iommu, span = arena ~pages:(2 * (slots + 1)) ~device in
  let n = N.create mem iommu ~device ~clock ~cost in
  let ring () = span Phys_mem.page_size in
  let buffers () = Array.init slots (fun _ -> (span nic_buf_bytes, nic_buf_bytes)) in
  (* each direction maps its buffers, then its ring: the iova layout
     shows in a traced run's page-walk events *)
  let rx_buffers = buffers () in
  setup "nic rx" (N.setup_rx n ~ring_iova:(ring ()) ~buffers:rx_buffers);
  let tx_buffers = buffers () in
  setup "nic tx" (N.setup_tx n ~ring_iova:(ring ()) ~buffers:tx_buffers);
  Nic ((module N), n)

let nic_model (Nic ((module N), n)) = N.model n
let nic_deliver (Nic ((module N), n)) frame = N.wire_deliver n frame
let nic_collect (Nic ((module N), n)) = N.wire_collect n
let nic_rx (Nic ((module N), n)) ~max = N.rx_burst n ~max
let nic_tx (Nic ((module N), n)) frames = N.tx_burst n frames

let blk ~kind ~device ~depth ~capacity_blocks ~clock ~cost =
  match kind with
  | `Nvme ->
    let d = Nvme.create ~clock ~cost ~capacity_blocks in
    Nvme.set_device d device;
    Blk ((module Nvme), d)
  | `Virtio ->
    let _, _, _, ring_bytes = Virtio_ring.layout ~qsz:(3 * depth) ~base:0 in
    let slots_bytes = depth * Virtio_blk.slot_bytes in
    let mem, iommu, span =
      arena ~pages:(pages_of ring_bytes + pages_of slots_bytes) ~device
    in
    let d = Virtio_blk.create mem iommu ~device ~clock ~cost ~capacity_blocks in
    let ring_iova = span ring_bytes in
    let arena_iova = span slots_bytes in
    setup "virtio-blk" (Virtio_blk.setup d ~ring_iova ~arena_iova ~depth);
    Blk ((module Virtio_blk), d)

let blk_model (Blk ((module B), b)) = B.model b
let blk_read (Blk ((module B), b)) ~lba = B.submit_read b ~lba
let blk_write (Blk ((module B), b)) ~lba ~data = B.submit_write b ~lba ~data
let blk_poll (Blk ((module B), b)) = B.poll b
let blk_wait (Blk ((module B), b)) = B.wait_all b

(* ------------------------------------------------------------------ *)
(* The seeded hostile sweep *)

let sweep_frame = Bytes.make 96 '\x5a'

let hostile_nic_sweep ~seed ~steps ~kind =
  let slots = 8 in
  let device = match kind with `Ixgbe -> 11 | `Virtio -> 14 in
  let n = nic ~kind ~device ~slots ~clock:(Clock.create ()) ~cost:Cost.default in
  let m = nic_model n in
  Model.set_hostile m (Some (Hostile.create ~seed ()));
  for i = 1 to steps do
    ignore (nic_deliver n sweep_frame);
    ignore (nic_rx n ~max:slots);
    if i mod 4 = 0 then begin
      ignore (nic_tx n [ sweep_frame ]);
      ignore (nic_collect n)
    end
  done;
  Model.set_hostile m None;
  for _ = 1 to 4 do
    ignore (nic_rx n ~max:slots)
  done;
  m.Model.error_count

let hostile_blk_sweep ~seed ~steps ~kind =
  let device = match kind with `Nvme -> 12 | `Virtio -> 13 in
  let b =
    blk ~kind ~device ~depth:16 ~capacity_blocks:256 ~clock:(Clock.create ())
      ~cost:Cost.default
  in
  let m = blk_model b in
  let block = Bytes.make Block.block_bytes 'b' in
  Model.set_hostile m (Some (Hostile.create ~seed ()));
  for i = 1 to steps do
    let lba = i mod 256 in
    (match if i mod 3 = 0 then blk_write b ~lba ~data:block else blk_read b ~lba with
     | Ok _ -> ()
     | Error _ -> ignore (blk_wait b));
    if i mod 8 = 0 then ignore (blk_poll b)
  done;
  ignore (blk_wait b);
  Model.set_hostile m None;
  ignore (blk_wait b);
  m.Model.error_count

let hostile_sweep ~seed ~steps =
  hostile_nic_sweep ~seed ~steps ~kind:`Ixgbe
  + hostile_nic_sweep ~seed:(seed + 1) ~steps ~kind:`Virtio
  + hostile_blk_sweep ~seed:(seed + 2) ~steps ~kind:`Nvme
  + hostile_blk_sweep ~seed:(seed + 3) ~steps ~kind:`Virtio
