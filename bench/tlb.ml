(* Software TLB: walk-vs-hit cost, end-to-end on/off, bit-identity. *)

open Common
module Tlb = Atmo_hw.Tlb
module Mmu = Atmo_hw.Mmu
module Pte = Atmo_hw.Pte_bits
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table

let walk_loads () = O.Metrics.(Counter.value (counter "mmu/walk_loads"))

(* [config] for [rotating], with the TLB switched on or off. *)
let tlb_config enabled config () =
  Tlb.set_enabled enabled;
  config ()

let run () =
  section "Software TLB: walk cost vs hit cost, on/off end-to-end, bit-identity";
  (* -- translation cost: page-table loads per warm resolve ----------- *)
  let pages = 32 and passes = 20 in
  let with_pt f =
    let mem = Atmo_hw.Phys_mem.create ~page_count:4096 in
    let alloc = Page_alloc.create mem ~reserved_frames:0 in
    match Page_table.create mem alloc with
    | Error _ -> 0
    | Ok pt ->
      for i = 0 to pages - 1 do
        match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User with
        | Some frame ->
          ignore
            (Page_table.map_4k pt ~vaddr:(0x4000_0000 + (i * 4096)) ~frame ~perm:Pte.perm_rw)
        | None -> ()
      done;
      f pt
  in
  let loads_of_loop pt =
    let before = walk_loads () in
    for _pass = 1 to passes do
      for i = 0 to pages - 1 do
        ignore (Page_table.resolve pt ~vaddr:(0x4000_0000 + (i * 4096)))
      done
    done;
    walk_loads () - before
  in
  Tlb.set_enabled false;
  let loads_off = with_pt loads_of_loop in
  Tlb.set_enabled true;
  let loads_on = with_pt loads_of_loop in
  let n = pages * passes in
  line "warm resolve loop (%d translations):" n;
  line "  TLB off: %6d page-table loads  (%.2f per translation)" loads_off
    (float_of_int loads_off /. float_of_int n);
  line "  TLB on:  %6d page-table loads  (%.2f per translation)" loads_on
    (float_of_int loads_on /. float_of_int n);
  line "  reduction: %.1fx fewer loads  (acceptance floor: 5x)"
    (float_of_int loads_off /. Float.max 1. (float_of_int loads_on));
  let s = Tlb.cpu_stats () in
  line "  cpu tlb counters: %d hits, %d misses, %d evictions, %d invlpgs, %d flushes"
    s.Tlb.hits s.Tlb.misses s.Tlb.evictions s.Tlb.invlpgs s.Tlb.flushes;
  (* -- IPC round-trip with the TLB on vs off ------------------------- *)
  let workload () =
    let w = Scenario.boot_pair () in
    (* a user arena the loop translates every round, as a data-carrying
       IPC path would *)
    ignore
      (Kernel.step w.kernel ~thread:w.init
         (Syscall.Mmap
            { va = 0x4000_0000; count = 8; size = Atmo_pmem.Page_state.S4k; perm = Pte.perm_rw }));
    smp_pingpong w ~send_call:(fun i ->
        for p = 0 to 7 do
          ignore (Kernel.resolve_user w.kernel ~thread:w.init ~vaddr:(0x4000_0000 + (p * 4096)))
        done;
        Scenario.send i)
  in
  let loads = Array.make 2 0 and cycles = Array.make 2 None in
  let ipc i () () =
    let w = walk_loads () in
    cycles.(i) <- workload ();
    loads.(i) <- loads.(i) + (walk_loads () - w)
  in
  let times = rotating [ tlb_config false (ipc 0); tlb_config true (ipc 1) ] in
  line "IPC round-trip with per-round user translations (%d runs each; host ms per run):"
    rounds;
  line "  TLB off: %a  %9d page-table loads" pp_timed (List.nth times 0) loads.(0);
  line "  TLB on:  %a  %9d page-table loads  (%.1fx fewer)" pp_timed (List.nth times 1)
    loads.(1)
    (float_of_int loads.(0) /. Float.max 1. (float_of_int loads.(1)));
  let ipc_identical = pingpong_identity ~indent:"  " cycles.(0) cycles.(1) in
  (* -- ixgbe forwarding with the IOTLB on vs off --------------------- *)
  let frames = 2000 in
  let received = Array.make 2 0 in
  let forward i () =
    let nic = ixgbe_rx () in
    fun () -> received.(i) <- ixgbe_forward nic ~frames
  in
  let fwd = rotating [ tlb_config false (forward 0); tlb_config true (forward 1) ] in
  let fwd_identical = received.(0) = received.(1) in
  line "ixgbe forwarding through the IOMMU (host ms per %d frames):" frames;
  line "  IOTLB off: %d/%d frames  %a" received.(0) frames pp_timed (List.nth fwd 0);
  line "  IOTLB on:  %d/%d frames  %a  (delivery identical: %b)" received.(1) frames pp_timed
    (List.nth fwd 1) fwd_identical;
  Tlb.set_enabled true;
  (* -- bit-identity: randomized replay, hot vs cold ------------------ *)
  let rng = Random.State.make [| 0x71B |] in
  let identical =
    with_pt (fun pt ->
        let ok = ref true in
        for _step = 1 to 2000 do
          let vaddr =
            0x4000_0000 + (Random.State.int rng (pages * 2) * 4096) + Random.State.int rng 4096
          in
          if Random.State.int rng 10 = 0 then
            ignore (Page_table.unmap pt ~vaddr:(vaddr land lnot 4095));
          let hot = Page_table.resolve pt ~vaddr in
          let cold = Page_table.resolve_cold pt ~vaddr in
          let same =
            match (hot, cold) with
            | None, None -> true
            | Some (a : Mmu.translation), Some b ->
              a.Mmu.paddr = b.Mmu.paddr && a.Mmu.frame = b.Mmu.frame && a.Mmu.size = b.Mmu.size
            | _ -> false
          in
          if not same then ok := false
        done;
        if !ok then 1 else 0)
  in
  line "bit-identity (randomized map/unmap replay, hot vs cold): %s"
    (if identical = 1 then "identical" else "DIVERGED");
  write_bench_json "BENCH_tlb.json"
    [
      ("bench", J.Str "tlb");
      ("warm_loads_off", J.Num (float_of_int loads_off));
      ("warm_loads_on", J.Num (float_of_int loads_on));
      ("load_reduction", J.Num (float_of_int loads_off /. Float.max 1. (float_of_int loads_on)));
      ("ipc_cycle_identity", J.Bool ipc_identical);
      ("ixgbe_delivery_identity", J.Bool fwd_identical);
      ("replay_identity", J.Bool (identical = 1));
    ]
