(* Software TLB: bit-identity of warm resolves against the cold-walk
   oracle under randomized map/unmap/protect sequences, shootdown
   precision, ASID isolation across address-space switches, and the
   IOTLB invalidation protocol. *)

module Phys_mem = Atmo_hw.Phys_mem
module Mmu = Atmo_hw.Mmu
module Tlb = Atmo_hw.Tlb
module Iommu = Atmo_hw.Iommu
module Pte = Atmo_hw.Pte_bits
module Page_state = Atmo_pmem.Page_state
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let expect what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Page_table.pp_error e

let mk_pt ?(frames = 4096) () =
  let mem = Phys_mem.create ~page_count:frames in
  let alloc = Page_alloc.create mem ~reserved_frames:0 in
  let pt = expect "create" (Page_table.create mem alloc) in
  (mem, alloc, pt)

let user_frame alloc =
  match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User with
  | Some f -> f
  | None -> Alcotest.fail "no user frame"

let eq_translation a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Mmu.translation), Some (y : Mmu.translation) ->
    x.Mmu.paddr = y.Mmu.paddr && x.Mmu.frame = y.Mmu.frame
    && x.Mmu.size = y.Mmu.size
    && Pte.equal_perm x.Mmu.perm y.Mmu.perm
  | _ -> false

(* Every probe answers three ways — warm hot resolve, a second hot
   resolve (now guaranteed warm if the first filled the TLB), and the
   cold oracle — and all three must agree bit for bit. *)
let probe_identical what pt ~vaddr =
  let hot1 = Page_table.resolve pt ~vaddr in
  let hot2 = Page_table.resolve pt ~vaddr in
  let cold = Page_table.resolve_cold pt ~vaddr in
  if not (eq_translation hot1 cold && eq_translation hot2 cold) then
    Alcotest.failf "%s: hot resolve of 0x%x diverges from the cold walk" what vaddr

let test_oracle_randomized () =
  let _, alloc, pt = mk_pt () in
  let rng = Random.State.make [| 0xA51D |] in
  let pages = 48 in
  let base = 0x4000_0000 in
  let va i = base + (i * Phys_mem.page_size) in
  let frames = Array.init pages (fun _ -> user_frame alloc) in
  let mapped = Array.make pages false in
  for _step = 1 to 600 do
    let i = Random.State.int rng pages in
    (match Random.State.int rng 4 with
     | 0 ->
       if not mapped.(i) then begin
         expect "map"
           (Page_table.map_4k pt ~vaddr:(va i) ~frame:frames.(i) ~perm:Pte.perm_rw);
         mapped.(i) <- true
       end
     | 1 ->
       if mapped.(i) then begin
         ignore (expect "unmap" (Page_table.unmap pt ~vaddr:(va i)));
         mapped.(i) <- false
       end
     | 2 ->
       if mapped.(i) then
         expect "protect"
           (Page_table.update_perm pt ~vaddr:(va i)
              ~perm:(if Random.State.bool rng then Pte.perm_ro else Pte.perm_rw))
     | _ -> ());
    (* probe the mutated page plus a couple of random others *)
    probe_identical "mutated" pt ~vaddr:(va i + Random.State.int rng Phys_mem.page_size);
    probe_identical "other" pt ~vaddr:(va (Random.State.int rng pages));
    probe_identical "unmapped-region" pt ~vaddr:0x7000_0000
  done;
  (* final sweep: every page agrees, mapped or not *)
  for i = 0 to pages - 1 do
    checkb "mapped state agrees" mapped.(i) (Page_table.resolve pt ~vaddr:(va i) <> None);
    probe_identical "sweep" pt ~vaddr:(va i)
  done

let test_hit_and_shootdown () =
  let _, alloc, pt = mk_pt () in
  let frame = user_frame alloc in
  let vaddr = 0x4000_0000 in
  expect "map" (Page_table.map_4k pt ~vaddr ~frame ~perm:Pte.perm_rw);
  let s0 = Tlb.cpu_stats () in
  checkb "first resolve ok" true (Page_table.resolve pt ~vaddr <> None);
  let s1 = Tlb.cpu_stats () in
  checki "first resolve misses" (s0.Tlb.misses + 1) s1.Tlb.misses;
  checkb "second resolve ok" true (Page_table.resolve pt ~vaddr <> None);
  let s2 = Tlb.cpu_stats () in
  checki "second resolve hits" (s1.Tlb.hits + 1) s2.Tlb.hits;
  (* shootdown: the cached entry must not survive the unmap *)
  ignore (expect "unmap" (Page_table.unmap pt ~vaddr));
  checkb "faults hot after unmap" true (Page_table.resolve pt ~vaddr = None);
  checkb "faults cold after unmap" true (Page_table.resolve_cold pt ~vaddr = None)

let test_protect_shootdown () =
  let _, alloc, pt = mk_pt () in
  let frame = user_frame alloc in
  let vaddr = 0x4000_0000 in
  expect "map" (Page_table.map_4k pt ~vaddr ~frame ~perm:Pte.perm_rw);
  checkb "warm writable" true
    (match Page_table.resolve pt ~vaddr with
     | Some tr -> tr.Mmu.perm.Pte.write
     | None -> false);
  expect "protect" (Page_table.update_perm pt ~vaddr ~perm:Pte.perm_ro);
  checkb "read-only immediately" true
    (match Page_table.resolve pt ~vaddr with
     | Some tr -> not tr.Mmu.perm.Pte.write
     | None -> false)

(* The allocation-free probe under [lookup]: a miss is -1 and counts a
   miss, a hit is a slot whose accessors return what was inserted and
   counts a hit, and [lookup] reports exactly the same. *)
let test_probe () =
  let mem = Phys_mem.create ~page_count:16 in
  let tlb = Tlb.create mem ~asid:0x1000 ~kind:`Io in
  let stats () = Tlb.io_stats () in
  let s0 = stats () in
  checki "cold probe misses" (-1) (Tlb.probe tlb ~vaddr:0x20_0123);
  checki "miss counted" (s0.Tlb.misses + 1) (stats ()).Tlb.misses;
  Tlb.insert tlb ~vaddr:0x20_0000 ~frame:0x20_0000 ~size:Phys_mem.page_size_2m ~perm:Pte.perm_ro;
  let s1 = stats () in
  let i = Tlb.probe tlb ~vaddr:0x20_0123 in
  checkb "warm probe hits" true (i >= 0);
  checki "hit counted" (s1.Tlb.hits + 1) (stats ()).Tlb.hits;
  checki "no miss on a hit" s1.Tlb.misses (stats ()).Tlb.misses;
  checki "slot frame" 0x20_0000 (Tlb.slot_frame tlb i);
  checki "slot size" Phys_mem.page_size_2m (Tlb.slot_size tlb i);
  checkb "slot perm" true (Pte.equal_perm Pte.perm_ro (Tlb.slot_perm tlb i));
  checkb "lookup agrees" true
    (Tlb.lookup tlb ~vaddr:0x20_0123 = Some (0x20_0000, Phys_mem.page_size_2m, Pte.perm_ro));
  checkb "other page still misses" true (Tlb.probe tlb ~vaddr:0x20_1000 < 0)

let test_superpage () =
  let _, alloc, pt = mk_pt () in
  let frame =
    match Page_alloc.alloc_2m alloc ~purpose:Page_alloc.User with
    | Some f -> f
    | None -> Alcotest.fail "no 2M block"
  in
  let vaddr = 0x8000_0000 in
  expect "map 2m" (Page_table.map_2m pt ~vaddr ~frame ~perm:Pte.perm_rw);
  (* interior offsets of the superpage resolve through one cached entry
     per probed 4 KiB page, all rebuilt from the superpage base *)
  List.iter
    (fun off ->
      probe_identical "2m interior" pt ~vaddr:(vaddr + off);
      match Page_table.resolve pt ~vaddr:(vaddr + off) with
      | Some tr ->
        checki "paddr from superpage base" (frame + off) tr.Mmu.paddr;
        checki "size is 2 MiB" Phys_mem.page_size_2m tr.Mmu.size
      | None -> Alcotest.fail "2m interior faults")
    [ 0; 5; 0x3000; 0x1f_f000 ];
  ignore (expect "unmap 2m" (Page_table.unmap pt ~vaddr));
  List.iter
    (fun off -> checkb "2m gone" true (Page_table.resolve pt ~vaddr:(vaddr + off) = None))
    [ 0; 0x3000; 0x1f_f000 ]

let test_asid_isolation () =
  (* Two address spaces over the same memory map the same virtual page
     to different frames.  Warm both; each must keep seeing its own
     frame — cached translations are ASID-tagged, so the "switch" (just
     resolving through the other root) needs no flush, which is the
     executable form of the isolation argument. *)
  let mem = Phys_mem.create ~page_count:4096 in
  let alloc = Page_alloc.create mem ~reserved_frames:0 in
  let pt_a = expect "create a" (Page_table.create mem alloc) in
  let pt_b = expect "create b" (Page_table.create mem alloc) in
  let vaddr = 0x4000_0000 in
  let frame_a = user_frame alloc and frame_b = user_frame alloc in
  expect "map a" (Page_table.map_4k pt_a ~vaddr ~frame:frame_a ~perm:Pte.perm_rw);
  expect "map b" (Page_table.map_4k pt_b ~vaddr ~frame:frame_b ~perm:Pte.perm_ro);
  for _round = 1 to 3 do
    (match Page_table.resolve pt_a ~vaddr with
     | Some tr ->
       checki "A sees its frame" frame_a tr.Mmu.frame;
       checkb "A's perm" true tr.Mmu.perm.Pte.write
     | None -> Alcotest.fail "A faults");
    match Page_table.resolve pt_b ~vaddr with
    | Some tr ->
      checki "B sees its frame" frame_b tr.Mmu.frame;
      checkb "B's perm" true (not tr.Mmu.perm.Pte.write)
    | None -> Alcotest.fail "B faults"
  done;
  (* container A goes away: its cached translations die with its ASID
     and B is untouched *)
  let cr3_a = Page_table.cr3 pt_a in
  ignore (Page_table.destroy pt_a);
  checkb "A's TLB retired" true (Tlb.space_opt mem ~cr3:cr3_a = None);
  (match Page_table.resolve pt_b ~vaddr with
   | Some tr -> checki "B survives A's teardown" frame_b tr.Mmu.frame
   | None -> Alcotest.fail "B faults after A's teardown")

let test_iotlb_protocol () =
  let mem = Phys_mem.create ~page_count:4096 in
  let alloc = Page_alloc.create mem ~reserved_frames:0 in
  let pt = expect "create" (Page_table.create mem alloc) in
  let iommu = Iommu.create mem in
  let device = 3 in
  let iova = 0x1_0000 in
  let frame = user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:iova ~frame ~perm:Pte.perm_rw);
  Iommu.attach iommu ~device ~root:(Page_table.cr3 pt);
  (match Iommu.translate iommu ~device ~iova with
   | Some tr -> checki "iotlb fill" frame tr.Mmu.frame
   | None -> Alcotest.fail "translate faults");
  (* CPU-side shootdown does NOT reach the IOTLB: after the unmap the
     device still sees the stale translation until the kernel issues the
     explicit IOTLB invalidation — the window Tlb_lint flags. *)
  ignore (expect "unmap" (Page_table.unmap pt ~vaddr:iova));
  checkb "stale window" true (Iommu.translate iommu ~device ~iova <> None);
  Iommu.iotlb_invlpg iommu ~device ~iova;
  checkb "fault after invlpg" true (Iommu.translate iommu ~device ~iova = None);
  (* remap and detach: detach must flush *)
  expect "remap" (Page_table.map_4k pt ~vaddr:iova ~frame ~perm:Pte.perm_rw);
  checkb "warm again" true (Iommu.translate iommu ~device ~iova <> None);
  Iommu.detach iommu ~device;
  checkb "fault after detach" true (Iommu.translate iommu ~device ~iova = None)

let test_disable_restores_cold () =
  let _, alloc, pt = mk_pt () in
  let frame = user_frame alloc in
  let vaddr = 0x4000_0000 in
  expect "map" (Page_table.map_4k pt ~vaddr ~frame ~perm:Pte.perm_rw);
  checkb "warm" true (Page_table.resolve pt ~vaddr <> None);
  Tlb.set_enabled false;
  Fun.protect ~finally:(fun () -> Tlb.set_enabled true) (fun () ->
      checkb "cold resolve works" true (Page_table.resolve pt ~vaddr <> None);
      probe_identical "disabled" pt ~vaddr;
      (* with the TLB off, nothing is cached across the toggle *)
      checkb "registry empty" true (Tlb.space_opt (Page_table.mem pt) ~cr3:(Page_table.cr3 pt) = None))

let () =
  Atmo_san.Runtime.arm_of_env ();
  Alcotest.run "tlb"
    [
      ( "oracle",
        [
          Alcotest.test_case "randomized bit-identity" `Quick test_oracle_randomized;
          Alcotest.test_case "hit and shootdown" `Quick test_hit_and_shootdown;
          Alcotest.test_case "protect shootdown" `Quick test_protect_shootdown;
          Alcotest.test_case "superpage" `Quick test_superpage;
          Alcotest.test_case "probe" `Quick test_probe;
        ] );
      ( "isolation",
        [ Alcotest.test_case "asid tagging" `Quick test_asid_isolation ] );
      ( "iommu",
        [ Alcotest.test_case "iotlb protocol" `Quick test_iotlb_protocol ] );
      ( "toggle",
        [ Alcotest.test_case "disable restores cold" `Quick test_disable_restores_cold ] );
    ];
  Atmo_san.Runtime.exit_check ()
