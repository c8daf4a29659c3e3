(* Hardware substrate: physical memory, PTE encoding, MMU walk, IOMMU. *)

open Atmo_hw

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Phys_mem                                                            *)

let test_mem_rw () =
  let m = Phys_mem.create ~page_count:16 in
  Phys_mem.write_u64 m ~addr:0 0x1122334455667788L;
  check Alcotest.int64 "u64 round-trip" 0x1122334455667788L (Phys_mem.read_u64 m ~addr:0);
  Phys_mem.write_u8 m ~addr:4096 0xab;
  check Alcotest.int "u8 round-trip" 0xab (Phys_mem.read_u8 m ~addr:4096)

let test_mem_untouched_zero () =
  let m = Phys_mem.create ~page_count:16 in
  check Alcotest.int64 "untouched reads zero" 0L (Phys_mem.read_u64 m ~addr:8192);
  check Alcotest.int "no frames materialised by reads" 0 (Phys_mem.touched_frames m)

let test_mem_zero_page () =
  let m = Phys_mem.create ~page_count:16 in
  Phys_mem.write_u64 m ~addr:4096 42L;
  Phys_mem.zero_page m ~addr:4096;
  check Alcotest.int64 "zeroed" 0L (Phys_mem.read_u64 m ~addr:4096);
  check Alcotest.int "zeroing drops the frame" 0 (Phys_mem.touched_frames m);
  Alcotest.check_raises "unaligned zero_page rejected"
    (Invalid_argument "Phys_mem.zero_page: unaligned")
    (fun () -> Phys_mem.zero_page m ~addr:4100);
  Alcotest.check_raises "partial last page rejected"
    (Invalid_argument "Phys_mem.zero_page: address 0x10000 out of bounds")
    (fun () -> Phys_mem.zero_page m ~addr:(16 * 4096))

(* Every store path moves the frame's write version, reads do not, and
   a frame zero_page dropped never hands a later frame at its address a
   version the address had before. *)
let test_mem_write_versions () =
  let m = Phys_mem.create ~page_count:4 in
  let page = 4096 in
  let seen = ref [ Phys_mem.version m ~addr:page ] in
  check Alcotest.int "untouched frame" 0 (List.hd !seen);
  let moves what store =
    store ();
    let v = Phys_mem.version m ~addr:page in
    checkb (what ^ " moves the version") false (List.mem v !seen);
    seen := v :: !seen;
    checkb (what ^ ": unchanged at the new version") true
      (Phys_mem.unchanged m ~addr:page ~version:v)
  in
  moves "write_u64" (fun () -> Phys_mem.write_u64 m ~addr:(page + 8) 7L);
  ignore (Phys_mem.read_u64 m ~addr:(page + 8));
  ignore (Phys_mem.read_u8 m ~addr:page);
  ignore (Phys_mem.blit_from m ~addr:page ~len:16);
  check Alcotest.int "reads keep the version" (List.hd !seen) (Phys_mem.version m ~addr:page);
  moves "write_u8" (fun () -> Phys_mem.write_u8 m ~addr:(page + 3) 1);
  moves "write_bytes" (fun () -> Phys_mem.write_bytes m ~addr:(page + 16) (Bytes.make 4 'x') ~off:0 ~len:4);
  moves "blit_to" (fun () -> Phys_mem.blit_to m ~addr:(page + 32) (Bytes.make 4 'y'));
  let before = List.hd !seen in
  Phys_mem.zero_page m ~addr:page;
  check Alcotest.int "a dropped frame" 0 (Phys_mem.version m ~addr:page);
  checkb "zero_page moves the version" false (Phys_mem.unchanged m ~addr:page ~version:before);
  moves "a store after zero_page" (fun () -> Phys_mem.write_u8 m ~addr:page 1);
  (* a blit across two frames moves both *)
  let next = Phys_mem.version m ~addr:(2 * page) in
  moves "a blit into the next frame" (fun () ->
      Phys_mem.blit_to m ~addr:((2 * page) - 4) (Bytes.make 8 'z'));
  checkb "the blit moves the next frame too" false
    (Phys_mem.unchanged m ~addr:(2 * page) ~version:next)

let test_mem_bounds () =
  let m = Phys_mem.create ~page_count:2 in
  Alcotest.check_raises "oob write" (Invalid_argument "Phys_mem.write_u64: address 0x2000 out of bounds")
    (fun () -> Phys_mem.write_u64 m ~addr:8192 0L);
  Alcotest.check_raises "unaligned" (Invalid_argument "Phys_mem.read_u64: unaligned")
    (fun () -> ignore (Phys_mem.read_u64 m ~addr:4))

let test_mem_blit_cross_frame () =
  let m = Phys_mem.create ~page_count:4 in
  let data = Bytes.init 100 (fun i -> Char.chr (i land 0xff)) in
  Phys_mem.blit_to m ~addr:4060 data;
  let back = Phys_mem.blit_from m ~addr:4060 ~len:100 in
  checkb "blit across frame boundary round-trips" true (Bytes.equal data back)

let test_mem_geometry () =
  checkb "page_base" true (Phys_mem.page_base 4097 = 4096);
  checkb "page_index" true (Phys_mem.page_index 8192 = 2);
  checkb "addr_of_index" true (Phys_mem.addr_of_index 3 = 12288);
  checkb "aligned" true (Phys_mem.is_page_aligned 8192);
  checkb "unaligned" false (Phys_mem.is_page_aligned 8193)

(* ------------------------------------------------------------------ *)
(* Pte_bits                                                            *)

let test_pte_round_trip () =
  let e = Pte_bits.make ~addr:0x3000 ~perm:Pte_bits.perm_rw ~huge:false in
  checkb "present" true (Pte_bits.is_present e);
  checkb "not huge" false (Pte_bits.is_huge e);
  check Alcotest.int "addr" 0x3000 (Pte_bits.addr_of e);
  checkb "perm" true (Pte_bits.equal_perm Pte_bits.perm_rw (Pte_bits.perm_of e))

let test_pte_huge_nx () =
  let e = Pte_bits.make ~addr:0x200000 ~perm:Pte_bits.perm_rx ~huge:true in
  checkb "huge" true (Pte_bits.is_huge e);
  let p = Pte_bits.perm_of e in
  checkb "exec" true p.Pte_bits.execute;
  checkb "ro" false p.Pte_bits.write

let test_pte_not_present () =
  checkb "zero entry not present" false (Pte_bits.is_present Pte_bits.not_present)

let test_pte_unaligned_rejected () =
  Alcotest.check_raises "unaligned addr"
    (Invalid_argument "Pte_bits.make: unaligned address") (fun () ->
      ignore (Pte_bits.make ~addr:0x3001 ~perm:Pte_bits.perm_rw ~huge:false))

(* ------------------------------------------------------------------ *)
(* Mmu                                                                 *)

(* Hand-build a small page table: L4 at 0x1000, L3 at 0x2000, L2 at
   0x3000, L1 at 0x4000, mapping va 0x200000000 -> frame 0x5000. *)
let build_manual_pt m =
  let va = 0x2_0000_0000 in
  let l4 = 0x1000 and l3 = 0x2000 and l2 = 0x3000 and l1 = 0x4000 in
  Phys_mem.write_u64 m
    ~addr:(Mmu.entry_addr ~table:l4 ~index:(Mmu.l4_index va))
    (Pte_bits.make_table ~addr:l3);
  Phys_mem.write_u64 m
    ~addr:(Mmu.entry_addr ~table:l3 ~index:(Mmu.l3_index va))
    (Pte_bits.make_table ~addr:l2);
  Phys_mem.write_u64 m
    ~addr:(Mmu.entry_addr ~table:l2 ~index:(Mmu.l2_index va))
    (Pte_bits.make_table ~addr:l1);
  Phys_mem.write_u64 m
    ~addr:(Mmu.entry_addr ~table:l1 ~index:(Mmu.l1_index va))
    (Pte_bits.make ~addr:0x5000 ~perm:Pte_bits.perm_rw ~huge:false);
  (l4, va)

let test_mmu_walk_4k () =
  let m = Phys_mem.create ~page_count:16 in
  let cr3, va = build_manual_pt m in
  match Mmu.resolve m ~cr3 ~vaddr:(va + 0x123) with
  | None -> Alcotest.fail "expected translation"
  | Some tr ->
    check Alcotest.int "paddr" (0x5000 + 0x123) tr.Mmu.paddr;
    check Alcotest.int "frame" 0x5000 tr.Mmu.frame;
    check Alcotest.int "size" Phys_mem.page_size tr.Mmu.size

let test_mmu_fault_unmapped () =
  let m = Phys_mem.create ~page_count:16 in
  let cr3, va = build_manual_pt m in
  checkb "fault one page later" true (Mmu.resolve m ~cr3 ~vaddr:(va + 4096) = None);
  checkb "fault other l4 slot" true (Mmu.resolve m ~cr3 ~vaddr:0x40_0000_0000 = None)

let test_mmu_huge_2m () =
  let m = Phys_mem.create ~page_count:16 in
  let va = 0x4000_0000 in
  let l4 = 0x1000 and l3 = 0x2000 and l2 = 0x3000 in
  Phys_mem.write_u64 m
    ~addr:(Mmu.entry_addr ~table:l4 ~index:(Mmu.l4_index va))
    (Pte_bits.make_table ~addr:l3);
  Phys_mem.write_u64 m
    ~addr:(Mmu.entry_addr ~table:l3 ~index:(Mmu.l3_index va))
    (Pte_bits.make_table ~addr:l2);
  Phys_mem.write_u64 m
    ~addr:(Mmu.entry_addr ~table:l2 ~index:(Mmu.l2_index va))
    (Pte_bits.make ~addr:0x0 ~perm:Pte_bits.perm_rw ~huge:true);
  (match Mmu.resolve m ~cr3:l4 ~vaddr:(va + 0x1234) with
   | Some tr ->
     check Alcotest.int "2M size" Phys_mem.page_size_2m tr.Mmu.size;
     check Alcotest.int "paddr offset" 0x1234 tr.Mmu.paddr
   | None -> Alcotest.fail "expected 2M translation")

let test_mmu_non_canonical () =
  let m = Phys_mem.create ~page_count:16 in
  checkb "non-canonical faults" true (Mmu.resolve m ~cr3:0x1000 ~vaddr:(1 lsl 50) = None)

let test_mmu_indices_roundtrip () =
  let va = Mmu.va_of_indices ~l4:5 ~l3:17 ~l2:301 ~l1:511 in
  check Alcotest.int "l4" 5 (Mmu.l4_index va);
  check Alcotest.int "l3" 17 (Mmu.l3_index va);
  check Alcotest.int "l2" 301 (Mmu.l2_index va);
  check Alcotest.int "l1" 511 (Mmu.l1_index va);
  (* high half sign-extends *)
  let hva = Mmu.va_of_indices ~l4:0x180 ~l3:0 ~l2:0 ~l1:0 in
  checkb "high-half canonical" true (Mmu.canonical hva);
  check Alcotest.int "high-half l4" 0x180 (Mmu.l4_index hva)

let test_mmu_write_respects_ro () =
  let m = Phys_mem.create ~page_count:16 in
  let va = 0x2_0000_0000 in
  let l4 = 0x1000 and l3 = 0x2000 and l2 = 0x3000 and l1 = 0x4000 in
  Phys_mem.write_u64 m
    ~addr:(Mmu.entry_addr ~table:l4 ~index:(Mmu.l4_index va))
    (Pte_bits.make_table ~addr:l3);
  Phys_mem.write_u64 m
    ~addr:(Mmu.entry_addr ~table:l3 ~index:(Mmu.l3_index va))
    (Pte_bits.make_table ~addr:l2);
  Phys_mem.write_u64 m
    ~addr:(Mmu.entry_addr ~table:l2 ~index:(Mmu.l2_index va))
    (Pte_bits.make_table ~addr:l1);
  Phys_mem.write_u64 m
    ~addr:(Mmu.entry_addr ~table:l1 ~index:(Mmu.l1_index va))
    (Pte_bits.make ~addr:0x5000 ~perm:Pte_bits.perm_ro ~huge:false);
  checkb "ro store refused" false (Mmu.write_u64 m ~cr3:l4 ~vaddr:va 1L);
  checkb "load works" true (Mmu.read_u64 m ~cr3:l4 ~vaddr:va <> None)

(* ------------------------------------------------------------------ *)
(* Iommu                                                               *)

let test_iommu_translate_and_dma () =
  let m = Phys_mem.create ~page_count:16 in
  let cr3, va = build_manual_pt m in
  let io = Iommu.create m in
  Iommu.attach io ~device:7 ~root:cr3;
  checkb "translates through domain" true (Iommu.translate io ~device:7 ~iova:va <> None);
  checkb "dma write ok" true (Iommu.dma_write io ~device:7 ~iova:va (Bytes.make 16 'x'));
  (match Iommu.dma_read io ~device:7 ~iova:va ~len:16 with
   | Some b -> checkb "dma read back" true (Bytes.equal b (Bytes.make 16 'x'))
   | None -> Alcotest.fail "dma read failed")

let test_iommu_unattached_faults () =
  let m = Phys_mem.create ~page_count:16 in
  let io = Iommu.create m in
  checkb "unattached device faults" true (Iommu.translate io ~device:1 ~iova:0 = None);
  check Alcotest.int "fault counted" 1 (Iommu.faults io)

let test_iommu_unmapped_dma_rejected () =
  let m = Phys_mem.create ~page_count:16 in
  let cr3, va = build_manual_pt m in
  let io = Iommu.create m in
  Iommu.attach io ~device:7 ~root:cr3;
  (* burst crossing into an unmapped page is rejected whole *)
  checkb "partial burst rejected" false
    (Iommu.dma_write io ~device:7 ~iova:(va + 4090) (Bytes.make 16 'x'));
  (* the mapped prefix must be untouched *)
  (match Iommu.dma_read io ~device:7 ~iova:(va + 4090) ~len:6 with
   | Some b -> checkb "no partial write" true (Bytes.equal b (Bytes.make 6 '\000'))
   | None -> Alcotest.fail "prefix should read")

let test_iommu_typed_dma_errors () =
  (* out-of-window DMA must fault with a typed error, bump the
     iommu/blocked counter, and leave physical memory untouched *)
  let m = Phys_mem.create ~page_count:16 in
  let cr3, va = build_manual_pt m in
  let io = Iommu.create m in
  Iommu.attach io ~device:7 ~root:cr3;
  let snapshot () = Phys_mem.blit_from m ~addr:0 ~len:(16 * Phys_mem.page_size) in
  let before_mem = snapshot () in
  let blocked0 = Iommu.blocked () in
  (* unmapped iova inside the domain *)
  (match Iommu.dma_write_checked io ~device:7 ~iova:0x7f00_0000 (Bytes.make 64 'x') with
   | Ok () -> Alcotest.fail "write through unmapped iova must fail"
   | Error e ->
     checkb "reason unmapped" true (e.Iommu.e_reason = `Unmapped);
     check Alcotest.int "iova reported" 0x7f00_0000 e.Iommu.e_iova;
     checkb "write flagged" true e.Iommu.e_write);
  (* device with no domain at all *)
  (match Iommu.dma_read_checked io ~device:9 ~iova:va ~len:8 with
   | Ok _ -> Alcotest.fail "read without a domain must fail"
   | Error e -> checkb "reason no-domain" true (e.Iommu.e_reason = `No_domain));
  (* burst leaking past the window edge is rejected whole *)
  (match Iommu.dma_write_checked io ~device:7 ~iova:(va + 4090) (Bytes.make 16 'y') with
   | Ok () -> Alcotest.fail "partial burst must be rejected whole"
   | Error e -> checkb "reason unmapped" true (e.Iommu.e_reason = `Unmapped));
  check Alcotest.int "blocked counter bumped per rejected burst" (blocked0 + 3)
    (Iommu.blocked ());
  checkb "physical memory untouched by rejected DMA" true
    (Bytes.equal before_mem (snapshot ()))

let test_iommu_detach () =
  let m = Phys_mem.create ~page_count:16 in
  let cr3, va = build_manual_pt m in
  let io = Iommu.create m in
  Iommu.attach io ~device:7 ~root:cr3;
  Iommu.detach io ~device:7;
  checkb "detached device faults" true (Iommu.translate io ~device:7 ~iova:va = None)

(* ------------------------------------------------------------------ *)
(* DMA bursts against the two-pass oracle                              *)

(* A DMA window at [dma_base]: pages 0-3 read-write, page 4 read-only,
   page 5 unmapped, page 6 read-write; and one read-write 2 MiB
   superpage at [dma_super].  Built the same way twice, the
   deterministic allocator gives both copies the same frames. *)
let dma_base = 0x20_0000
let dma_pages = 7
let dma_super = 0x4000_0000

let dma_world () =
  let mem = Phys_mem.create ~page_count:2048 in
  let alloc = Atmo_pmem.Page_alloc.create mem ~reserved_frames:0 in
  let pt =
    match Atmo_pt.Page_table.create mem alloc with
    | Ok pt -> pt
    | Error _ -> Alcotest.fail "dma world: page table"
  in
  for i = 0 to dma_pages - 1 do
    if i <> 5 then
      match Atmo_pmem.Page_alloc.alloc_4k alloc ~purpose:Atmo_pmem.Page_alloc.User with
      | None -> Alcotest.fail "dma world: out of frames"
      | Some frame ->
        let perm = if i = 4 then Pte_bits.perm_ro else Pte_bits.perm_rw in
        (match Atmo_pt.Page_table.map_4k pt ~vaddr:(dma_base + (i * 4096)) ~frame ~perm with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "dma world: map")
  done;
  (match Atmo_pmem.Page_alloc.alloc_2m alloc ~purpose:Atmo_pmem.Page_alloc.User with
   | None -> Alcotest.fail "dma world: no 2 MiB block"
   | Some frame ->
     (match
        Atmo_pt.Page_table.map pt ~size:Atmo_pmem.Page_state.S2m ~vaddr:dma_super ~frame
          ~perm:Pte_bits.perm_rw
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "dma world: map_2m"));
  (mem, Atmo_pt.Page_table.cr3 pt)

(* The physical bytes behind [iova, iova + len), page by page. *)
let burst_bytes mem cr3 ~iova ~len =
  let first = iova land lnot 4095 in
  String.concat ""
    (List.init
       (((iova + len - first) + 4095) / 4096)
       (fun i ->
         match Mmu.walk mem ~cr3 ~vaddr:(first + (i * 4096)) with
         | None -> ""
         | Some tr -> Bytes.to_string (Phys_mem.blit_from mem ~addr:tr.Mmu.paddr ~len:4096)))

(* The window's physical bytes, page by page (zeros for the hole). *)
let window_bytes mem cr3 =
  String.concat ""
    (List.init dma_pages (fun i ->
         match Mmu.walk mem ~cr3 ~vaddr:(dma_base + (i * 4096)) with
         | None -> String.make 4096 '-'
         | Some tr -> Bytes.to_string (Phys_mem.blit_from mem ~addr:tr.Mmu.frame ~len:4096)))

(* Seeded bursts, biased toward the interesting shapes: in-page,
   crossing a page edge, running into the hole or the read-only page,
   no domain, zero length. *)
let random_burst rng =
  let device = if Random.State.int rng 10 = 0 then 9 else 3 in
  let shape = Random.State.int rng 7 in
  let page = Random.State.int rng dma_pages in
  let iova, len =
    match shape with
    | 0 -> (dma_base + (page * 4096) + Random.State.int rng 3000, 1 + Random.State.int rng 1000)
    | 1 ->
      let edge = dma_base + ((1 + Random.State.int rng (dma_pages - 1)) * 4096) in
      (edge - 1 - Random.State.int rng 200, 2 + Random.State.int rng 6000)
    | 2 -> (dma_base + (4 * 4096) - Random.State.int rng 100, 64 + Random.State.int rng 9000)
    | 3 -> (dma_base + Random.State.int rng (dma_pages * 4096), 0)
    | 4 -> (dma_base - Random.State.int rng 4096, 1 + Random.State.int rng 8192)
    | 5 -> (dma_super + Random.State.int rng (2 lsl 20), 1 + Random.State.int rng 9000)
    | _ -> (dma_base + Random.State.int rng (dma_pages * 4096), 1 + Random.State.int rng 12000)
  in
  (device, iova, len, Random.State.bool rng)

let test_dma_matches_two_pass_oracle () =
  let io_misses () = (Tlb.io_stats ()).Tlb.misses in
  let delta f =
    let b0 = Iommu.blocked () and m0 = io_misses () in
    let r = f () in
    (r, Iommu.blocked () - b0, io_misses () - m0)
  in
  let run ~iotlb seed =
    Tlb.set_enabled iotlb;
    let mem_a, cr3_a = dma_world () and mem_b, cr3_b = dma_world () in
    let a = Iommu.create mem_a and b = Dma_oracle.create mem_b in
    Iommu.attach a ~device:3 ~root:cr3_a;
    Dma_oracle.attach b ~device:3 ~root:cr3_b;
    let rng = Random.State.make [| seed |] in
    for step = 1 to 400 do
      let device, iova, len, write = random_burst rng in
      let what = Printf.sprintf "iotlb %b step %d: device %d %s iova 0x%x len %d" iotlb step
          device (if write then "write" else "read") iova len
      in
      let ra, ba, ma, rb, bb, mb =
        if write then begin
          let data = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
          let ra, ba, ma = delta (fun () -> Iommu.dma_write_checked a ~device ~iova data) in
          let rb, bb, mb = delta (fun () -> Dma_oracle.dma_write_checked b ~device ~iova data) in
          (Result.map (fun () -> Bytes.empty) ra, ba, ma, Result.map (fun () -> Bytes.empty) rb, bb, mb)
        end
        else begin
          let ra, ba, ma = delta (fun () -> Iommu.dma_read_checked a ~device ~iova ~len) in
          let rb, bb, mb = delta (fun () -> Dma_oracle.dma_read_checked b ~device ~iova ~len) in
          (ra, ba, ma, rb, bb, mb)
        end
      in
      checkb (what ^ ": result and typed error") true (ra = rb);
      check Alcotest.int (what ^ ": iommu/blocked") bb ba;
      check Alcotest.int (what ^ ": iotlb misses") mb ma;
      check Alcotest.int (what ^ ": faults") (Dma_oracle.faults b) (Iommu.faults a);
      if write then begin
        checkb (what ^ ": memory") true (window_bytes mem_a cr3_a = window_bytes mem_b cr3_b);
        checkb (what ^ ": memory under the burst") true
          (burst_bytes mem_a cr3_a ~iova ~len = burst_bytes mem_b cr3_b ~iova ~len)
      end
    done
  in
  Fun.protect ~finally:(fun () -> Tlb.set_enabled true) (fun () ->
      List.iter (fun seed -> run ~iotlb:true seed; run ~iotlb:false seed) [ 1; 7919 ])

(* An in-page burst whose page sits in the IOTLB is one probe and one
   copy: no translation record, no scratch buffer, no closure (together
   about 100 words per burst). *)
let test_dma_in_page_allocation_floor () =
  let mem, cr3 = dma_world () in
  let io = Iommu.create mem in
  Iommu.attach io ~device:3 ~root:cr3;
  let data = Bytes.make 64 'x' in
  let write () =
    match Iommu.dma_write_checked io ~device:3 ~iova:(dma_base + 128) data with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "in-page write rejected"
  in
  write ();
  check (Alcotest.float 0.) "in-page dma_write_checked allocates nothing" 0.
    (Alloc.per_call ~n:1000 write)

(* ------------------------------------------------------------------ *)
(* E820                                                                *)

let test_e820_typical_valid () =
  let m = E820.typical_pc ~total_mib:64 in
  (match E820.validate m with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "typical map invalid: %s" msg);
  check Alcotest.int "usable bytes" ((640 * 1024) + (61 * 1024 * 1024))
    (E820.usable_bytes m)

let test_e820_largest_usable () =
  let m = E820.typical_pc ~total_mib:64 in
  match E820.largest_usable m with
  | Some r ->
    check Alcotest.int "main memory starts at 1MiB" (1024 * 1024) r.E820.base;
    check Alcotest.int "frames" (61 * 256) (E820.frames_of r);
    check Alcotest.int "first frame" 256 (E820.first_frame_of r)
  | None -> Alcotest.fail "no usable region"

let test_e820_rejects_overlap () =
  let bad =
    [
      { E820.base = 0; len = 8192; kind = E820.Usable };
      { E820.base = 4096; len = 8192; kind = E820.Reserved };
    ]
  in
  checkb "overlap rejected" true (Result.is_error (E820.validate bad));
  let unsorted =
    [
      { E820.base = 8192; len = 4096; kind = E820.Usable };
      { E820.base = 0; len = 4096; kind = E820.Usable };
    ]
  in
  checkb "unsorted rejected" true (Result.is_error (E820.validate unsorted));
  checkb "empty region rejected" true
    (Result.is_error (E820.validate [ { E820.base = 0; len = 0; kind = E820.Usable } ]))

let test_e820_partial_frames () =
  (* a usable region not frame-aligned only yields its interior frames *)
  let r = { E820.base = 1000; len = 12000; kind = E820.Usable } in
  (* frames fully inside [1000, 13000): frames 1 and 2 ([4096,12288)) *)
  check Alcotest.int "interior frames" 2 (E820.frames_of r);
  check Alcotest.int "first frame" 1 (E820.first_frame_of r)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

let test_clock () =
  let c = Clock.create () in
  Clock.advance c 2200;
  check Alcotest.int "cycles" 2200 (Clock.now c);
  checkb "seconds" true (abs_float (Clock.seconds c -. 1e-6) < 1e-12);
  Clock.reset c;
  check Alcotest.int "reset" 0 (Clock.now c);
  Alcotest.check_raises "negative charge" (Invalid_argument "Clock.advance: negative charge")
    (fun () -> Clock.advance c (-1))

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)

let prop_mem_rw =
  QCheck.Test.make ~name:"phys_mem u64 write/read round-trips" ~count:200
    QCheck.(pair (int_bound 2047) int64)
    (fun (slot, v) ->
      let m = Phys_mem.create ~page_count:4 in
      let addr = slot * 8 in
      Phys_mem.write_u64 m ~addr v;
      Phys_mem.read_u64 m ~addr = v)

let prop_pte_round_trip =
  QCheck.Test.make ~name:"pte encode/decode round-trips" ~count:200
    QCheck.(quad (int_bound 0xfffff) bool bool bool)
    (fun (frame_idx, w, u, x) ->
      let addr = frame_idx * 4096 in
      let perm = { Pte_bits.write = w; user = u; execute = x } in
      let e = Pte_bits.make ~addr ~perm ~huge:false in
      Pte_bits.addr_of e = addr && Pte_bits.equal_perm (Pte_bits.perm_of e) perm)

let prop_va_indices =
  QCheck.Test.make ~name:"va_of_indices inverts index extraction" ~count:200
    QCheck.(quad (int_bound 511) (int_bound 511) (int_bound 511) (int_bound 511))
    (fun (l4, l3, l2, l1) ->
      let va = Mmu.va_of_indices ~l4 ~l3 ~l2 ~l1 in
      Mmu.canonical va
      && Mmu.l4_index va = l4 && Mmu.l3_index va = l3
      && Mmu.l2_index va = l2 && Mmu.l1_index va = l1)

let () =
  Alcotest.run "hw"
    [
      ( "phys_mem",
        [
          Alcotest.test_case "read/write" `Quick test_mem_rw;
          Alcotest.test_case "untouched reads zero" `Quick test_mem_untouched_zero;
          Alcotest.test_case "zero_page" `Quick test_mem_zero_page;
          Alcotest.test_case "write versions" `Quick test_mem_write_versions;
          Alcotest.test_case "bounds and alignment" `Quick test_mem_bounds;
          Alcotest.test_case "blit across frames" `Quick test_mem_blit_cross_frame;
          Alcotest.test_case "geometry helpers" `Quick test_mem_geometry;
        ] );
      ( "pte",
        [
          Alcotest.test_case "round trip" `Quick test_pte_round_trip;
          Alcotest.test_case "huge + nx" `Quick test_pte_huge_nx;
          Alcotest.test_case "not present" `Quick test_pte_not_present;
          Alcotest.test_case "unaligned rejected" `Quick test_pte_unaligned_rejected;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "4k walk" `Quick test_mmu_walk_4k;
          Alcotest.test_case "faults" `Quick test_mmu_fault_unmapped;
          Alcotest.test_case "2M huge page" `Quick test_mmu_huge_2m;
          Alcotest.test_case "non-canonical" `Quick test_mmu_non_canonical;
          Alcotest.test_case "index round trip" `Quick test_mmu_indices_roundtrip;
          Alcotest.test_case "read-only enforced" `Quick test_mmu_write_respects_ro;
        ] );
      ( "iommu",
        [
          Alcotest.test_case "translate and dma" `Quick test_iommu_translate_and_dma;
          Alcotest.test_case "unattached faults" `Quick test_iommu_unattached_faults;
          Alcotest.test_case "unmapped dma rejected" `Quick test_iommu_unmapped_dma_rejected;
          Alcotest.test_case "typed dma errors" `Quick test_iommu_typed_dma_errors;
          Alcotest.test_case "detach" `Quick test_iommu_detach;
          Alcotest.test_case "dma matches the two-pass oracle" `Quick
            test_dma_matches_two_pass_oracle;
          Alcotest.test_case "in-page dma allocation floor" `Quick
            test_dma_in_page_allocation_floor;
        ] );
      ( "e820",
        [
          Alcotest.test_case "typical map valid" `Quick test_e820_typical_valid;
          Alcotest.test_case "largest usable" `Quick test_e820_largest_usable;
          Alcotest.test_case "rejects overlap" `Quick test_e820_rejects_overlap;
          Alcotest.test_case "partial frames" `Quick test_e820_partial_frames;
        ] );
      ("clock", [ Alcotest.test_case "advance/seconds" `Quick test_clock ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_mem_rw; prop_pte_round_trip; prop_va_indices ] );
    ]
