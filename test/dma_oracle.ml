(* Oracle for the IOMMU's DMA bursts: the straightforward two-pass
   path.  [span_check] translates every page the burst touches, then the
   copy pass translates each page a second time and copies through a
   [Bytes.sub] / [Phys_mem.blit_from] scratch buffer.  A separate instance over its own memory: the tests
   drive it and [Iommu] with the same bursts and compare every
   observable (return value, typed error, memory bytes, faults,
   [iommu/blocked], IOTLB misses). *)

module Phys_mem = Atmo_hw.Phys_mem
module Mmu = Atmo_hw.Mmu
module Tlb = Atmo_hw.Tlb
module Iommu = Atmo_hw.Iommu
module Pte_bits = Atmo_hw.Pte_bits

type t = {
  mem : Phys_mem.t;
  contexts : (int, int) Hashtbl.t;
  iotlbs : (int, Tlb.t) Hashtbl.t;
  mutable faults : int;
}

let blocked_counter = Atmo_obs.Metrics.counter "iommu/blocked"

let create mem =
  { mem; contexts = Hashtbl.create 16; iotlbs = Hashtbl.create 16; faults = 0 }

let attach t ~device ~root =
  (match Hashtbl.find_opt t.iotlbs device with Some tlb -> Tlb.flush tlb | None -> ());
  Hashtbl.remove t.iotlbs device;
  Hashtbl.replace t.contexts device root

let faults t = t.faults

let iotlb_of t ~device ~root =
  match Hashtbl.find_opt t.iotlbs device with
  | Some tlb -> tlb
  | None ->
    let tlb = Tlb.create t.mem ~asid:root ~kind:`Io in
    Hashtbl.replace t.iotlbs device tlb;
    tlb

let translate t ~device ~iova =
  match Hashtbl.find_opt t.contexts device with
  | None ->
    t.faults <- t.faults + 1;
    None
  | Some root ->
    let walk () =
      match Mmu.walk t.mem ~cr3:root ~vaddr:iova with
      | None ->
        t.faults <- t.faults + 1;
        None
      | Some tr -> Some tr
    in
    if not (Tlb.enabled ()) then walk ()
    else
      let tlb = iotlb_of t ~device ~root in
      (match Tlb.lookup tlb ~vaddr:iova with
       | Some (frame, size, perm) ->
         Some { Mmu.paddr = frame + (iova land (size - 1)); frame; size; perm }
       | None ->
         (match walk () with
          | None -> None
          | Some tr ->
            Tlb.insert tlb ~vaddr:iova ~frame:tr.Mmu.frame ~size:tr.Mmu.size
              ~perm:tr.Mmu.perm;
            Some tr))

let span_check t ~device ~iova ~len ~need_write =
  let err reason off =
    t.faults <- t.faults + 1;
    Atmo_obs.Metrics.Counter.incr blocked_counter;
    Error
      { Iommu.e_device = device; e_iova = iova + off; e_len = len; e_write = need_write;
        e_reason = reason }
  in
  let rec go off =
    if off >= len then Ok ()
    else
      match translate t ~device ~iova:(iova + off) with
      | None ->
        t.faults <- t.faults - 1;
        err (if Hashtbl.mem t.contexts device then `Unmapped else `No_domain) off
      | Some tr ->
        if need_write && not tr.Mmu.perm.Pte_bits.write then err `Readonly off
        else
          let in_frame = (iova + off) land (Phys_mem.page_size - 1) in
          go (off + (Phys_mem.page_size - in_frame))
  in
  go 0

let dma_write_checked t ~device ~iova data =
  let len = Bytes.length data in
  match span_check t ~device ~iova ~len ~need_write:true with
  | Error e -> Error e
  | Ok () ->
    let rec go off =
      if off < len then begin
        match translate t ~device ~iova:(iova + off) with
        | None -> assert false
        | Some tr ->
          let in_frame = (iova + off) land (Phys_mem.page_size - 1) in
          let chunk = min (len - off) (Phys_mem.page_size - in_frame) in
          Phys_mem.blit_to t.mem ~addr:tr.Mmu.paddr (Bytes.sub data off chunk);
          go (off + chunk)
      end
    in
    go 0;
    Ok ()

let dma_read_checked t ~device ~iova ~len =
  match span_check t ~device ~iova ~len ~need_write:false with
  | Error e -> Error e
  | Ok () ->
    let dst = Bytes.make len '\000' in
    let rec go off =
      if off < len then begin
        match translate t ~device ~iova:(iova + off) with
        | None -> assert false
        | Some tr ->
          let in_frame = (iova + off) land (Phys_mem.page_size - 1) in
          let chunk = min (len - off) (Phys_mem.page_size - in_frame) in
          Bytes.blit (Phys_mem.blit_from t.mem ~addr:tr.Mmu.paddr ~len:chunk) 0 dst off chunk;
          go (off + chunk)
      end
    in
    go 0;
    Ok dst
