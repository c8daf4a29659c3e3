type t = {
  mem : Phys_mem.t;
  contexts : (int, int) Hashtbl.t;  (* device id -> translation root *)
  iotlbs : (int, Tlb.t) Hashtbl.t;  (* device id -> its IOTLB *)
  mutable faults : int;
  (* Registers of the last successful [resolve]: the mapping's frame
     base, extent and permission, so a hit needs no result block. *)
  mutable r_frame : int;
  mutable r_size : int;
  mutable r_perm : Pte_bits.perm;
  (* The permission pass's per-page physical addresses, read back by
     the copy pass of the same burst. *)
  mutable pages : int array;
}

type dma_error = {
  e_device : int;
  e_iova : int;
  e_len : int;
  e_write : bool;
  e_reason : [ `No_domain | `Unmapped | `Readonly ];
}

(* Rejected DMA bursts, process-wide (like mmu/walk_loads the registry
   entry lives for the whole process; [Metrics.reset] zeroes it). *)
let blocked_counter = Atmo_obs.Metrics.counter "iommu/blocked"
let blocked () = Atmo_obs.Metrics.Counter.value blocked_counter

let create mem =
  {
    mem;
    contexts = Hashtbl.create 16;
    iotlbs = Hashtbl.create 16;
    faults = 0;
    r_frame = 0;
    r_size = 0;
    r_perm = Pte_bits.perm_ro;
    pages = Array.make 4 0;
  }

let iotlb_of t ~device ~root =
  match Hashtbl.find t.iotlbs device with
  | tlb -> tlb
  | exception Not_found ->
    let tlb = Tlb.create t.mem ~asid:root ~kind:`Io in
    Hashtbl.replace t.iotlbs device tlb;
    tlb

let attach t ~device ~root =
  if not (Phys_mem.is_page_aligned root) then
    invalid_arg "Iommu.attach: root not page-aligned";
  (* A re-attach changes the domain under the device; its IOTLB must not
     carry translations from the old one. *)
  (match Hashtbl.find_opt t.iotlbs device with
   | Some tlb -> Tlb.flush tlb
   | None -> ());
  Hashtbl.remove t.iotlbs device;
  Hashtbl.replace t.contexts device root

let detach t ~device =
  (match Hashtbl.find_opt t.iotlbs device with
   | Some tlb -> Tlb.flush tlb
   | None -> ());
  Hashtbl.remove t.iotlbs device;
  Hashtbl.remove t.contexts device

let domain_of t ~device = Hashtbl.find_opt t.contexts device
let devices t = Hashtbl.fold (fun d _ acc -> d :: acc) t.contexts []
let faults t = t.faults

let iotlb_invlpg t ~device ~iova =
  match Hashtbl.find_opt t.iotlbs device with
  | None -> ()
  | Some tlb -> Tlb.invalidate_page tlb ~vaddr:iova

let iter_iotlbs t f = Hashtbl.iter (fun device tlb -> f ~device tlb) t.iotlbs

(* The IOTLB is deliberately NOT reached by CPU-side shootdowns (the
   [Tlb] registry): real IOMMUs have their own invalidation queue, and a
   kernel that unmaps a DMA buffer but forgets the IOTLB invalidation has
   a window where the device still reaches the freed frame.  Modelling
   that window is the point — [Atmo_san.Tlb_lint] catches it.

   [resolve] is the one translation path: the physical address of
   [iova] in the domain rooted at [root], or -1 when unmapped, with the
   mapping left in the [r_*] registers.  An IOTLB hit is one
   allocation-free probe; a miss walks the domain and fills the IOTLB
   (negative results are never cached).  It charges no fault: callers
   decide what a miss costs. *)
let walk_fill t ~root ~iova tlb =
  match Mmu.walk t.mem ~cr3:root ~vaddr:iova with
  | None -> -1
  | Some tr ->
    t.r_frame <- tr.Mmu.frame;
    t.r_size <- tr.Mmu.size;
    t.r_perm <- tr.Mmu.perm;
    (match tlb with
     | Some tlb ->
       Tlb.insert tlb ~vaddr:iova ~frame:tr.Mmu.frame ~size:tr.Mmu.size ~perm:tr.Mmu.perm
     | None -> ());
    tr.Mmu.paddr

let resolve t ~device ~root ~iova =
  if not (Tlb.enabled ()) then walk_fill t ~root ~iova None
  else begin
    let tlb = iotlb_of t ~device ~root in
    let i = Tlb.probe tlb ~vaddr:iova in
    if i < 0 then walk_fill t ~root ~iova (Some tlb)
    else begin
      t.r_frame <- Tlb.slot_frame tlb i;
      t.r_size <- Tlb.slot_size tlb i;
      t.r_perm <- Tlb.slot_perm tlb i;
      (* the walker's leaf formula, so a hit is bit-identical to the
         walk it replaces *)
      t.r_frame + (iova land (t.r_size - 1))
    end
  end

let translate t ~device ~iova =
  match Hashtbl.find t.contexts device with
  | exception Not_found ->
    t.faults <- t.faults + 1;
    None
  | root ->
    let paddr = resolve t ~device ~root ~iova in
    if paddr < 0 then begin
      t.faults <- t.faults + 1;
      None
    end
    else Some { Mmu.paddr; frame = t.r_frame; size = t.r_size; perm = t.r_perm }

(* One DMA burst is two passes over the pages it touches.  The
   permission pass resolves each page once, in order, and records its
   physical address in [t.pages]; the first page that is unmapped or
   lacks the needed permission rejects the whole burst before a single
   byte of [Phys_mem] is touched (one fault, one [iommu/blocked]).  The
   copy pass then moves each page's chunk straight between the caller's
   buffer and [Phys_mem] at the recorded address — no second
   translation and no scratch copy.  Both passes split the burst the
   same way: the chunk at offset [o] runs to the end of [iova + o]'s
   page or of the burst.  The passes are top-level loops, not local
   closures, so a burst that hits the IOTLB allocates nothing. *)
let chunk ~iova ~len o =
  min (len - o) (Phys_mem.page_size - ((iova + o) land (Phys_mem.page_size - 1)))

let reject t ~device ~iova ~len ~need_write reason off =
  t.faults <- t.faults + 1;
  Atmo_obs.Metrics.Counter.incr blocked_counter;
  Error
    { e_device = device; e_iova = iova + off; e_len = len; e_write = need_write;
      e_reason = reason }

let rec permit t ~device ~root ~iova ~len ~need_write k o =
  if o >= len then Ok ()
  else begin
    let paddr = resolve t ~device ~root ~iova:(iova + o) in
    if paddr < 0 then reject t ~device ~iova ~len ~need_write `Unmapped o
    else if need_write && not t.r_perm.Pte_bits.write then
      reject t ~device ~iova ~len ~need_write `Readonly o
    else begin
      if k = Array.length t.pages then begin
        let bigger = Array.make (2 * k) 0 in
        Array.blit t.pages 0 bigger 0 k;
        t.pages <- bigger
      end;
      t.pages.(k) <- paddr;
      permit t ~device ~root ~iova ~len ~need_write (k + 1) (o + chunk ~iova ~len o)
    end
  end

let check_burst t ~device ~iova ~len ~need_write =
  if len <= 0 then Ok ()
  else
    match Hashtbl.find t.contexts device with
    | exception Not_found -> reject t ~device ~iova ~len ~need_write `No_domain 0
    | root -> permit t ~device ~root ~iova ~len ~need_write 0 0

let rec copy_in t ~iova ~len src k o =
  if o < len then begin
    let c = chunk ~iova ~len o in
    Phys_mem.write_bytes t.mem ~addr:t.pages.(k) src ~off:o ~len:c;
    copy_in t ~iova ~len src (k + 1) (o + c)
  end

let rec copy_out t ~iova ~len dst k o =
  if o < len then begin
    let c = chunk ~iova ~len o in
    Phys_mem.read_bytes t.mem ~addr:t.pages.(k) ~len:c dst ~off:o;
    copy_out t ~iova ~len dst (k + 1) (o + c)
  end

let dma_write_checked t ~device ~iova data =
  let len = Bytes.length data in
  match check_burst t ~device ~iova ~len ~need_write:true with
  | Error _ as e -> e
  | Ok () ->
    copy_in t ~iova ~len data 0 0;
    Ok ()

let dma_read_into t ~device ~iova ~len dst =
  match check_burst t ~device ~iova ~len ~need_write:false with
  | Error _ as e -> e
  | Ok () ->
    copy_out t ~iova ~len dst 0 0;
    Ok ()

let dma_write t ~device ~iova data =
  match dma_write_checked t ~device ~iova data with Ok () -> true | Error _ -> false

let dma_read_checked t ~device ~iova ~len =
  let dst = Bytes.create len in
  match dma_read_into t ~device ~iova ~len dst with
  | Ok () -> Ok dst
  | Error e -> Error e

let dma_read t ~device ~iova ~len =
  match dma_read_checked t ~device ~iova ~len with Ok b -> Some b | Error _ -> None
