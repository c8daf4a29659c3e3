(* Device models: ixgbe descriptor rings with IOMMU-mediated DMA, and
   the NVMe queue-pair model. *)

module Phys_mem = Atmo_hw.Phys_mem
module Iommu = Atmo_hw.Iommu
module Clock = Atmo_hw.Clock
module Pte = Atmo_hw.Pte_bits
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Cost = Atmo_sim.Cost
module Ixgbe = Atmo_drivers.Ixgbe
module Nvme = Atmo_drivers.Nvme
module Packet = Atmo_net.Packet

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let cost = Cost.default

(* A driver environment: memory, identity-mapped page table attached to
   the IOMMU as device 0, a descriptor ring page and N buffer pages. *)
let mk_env ?(bufs = 8) () =
  let mem = Phys_mem.create ~page_count:256 in
  let alloc = Page_alloc.create mem ~reserved_frames:0 in
  let iommu = Iommu.create mem in
  let clock = Clock.create () in
  let pt = Result.get_ok (Page_table.create mem alloc) in
  let page () =
    let a = Option.get (Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User) in
    (match Page_table.map_4k pt ~vaddr:a ~frame:a ~perm:Pte.perm_rw with
     | Ok () -> ()
     | Error _ -> Alcotest.fail "map");
    a
  in
  let ring = page () in
  let buffers = Array.init bufs (fun _ -> (page (), 2048)) in
  Iommu.attach iommu ~device:0 ~root:(Page_table.cr3 pt);
  let nic = Ixgbe.create mem iommu ~device:0 ~clock ~cost in
  (mem, iommu, clock, nic, ring, buffers)

let frame_of_text text =
  Packet.build
    (Packet.flow_of_ints ~src:1 ~dst:2 ~sport:1111 ~dport:2222)
    ~payload:(Bytes.of_string text)

(* ------------------------------------------------------------------ *)
(* Ixgbe                                                               *)

let test_rx_path () =
  let _, _, _, nic, ring, buffers = mk_env () in
  (match Ixgbe.setup_rx nic ~ring_iova:ring ~buffers with
   | Ok () -> ()
   | Error m -> Alcotest.fail (Atmo_devmodel.Fault.error_to_string m));
  checkb "frame accepted" true (Ixgbe.wire_deliver nic (frame_of_text "one"));
  checkb "second frame" true (Ixgbe.wire_deliver nic (frame_of_text "two"));
  (match Ixgbe.rx_burst nic ~max:8 with
   | [ f1; f2 ] ->
     checkb "payload 1" true
       (Packet.payload f1 = Some (Bytes.of_string "one"));
     checkb "payload 2" true (Packet.payload f2 = Some (Bytes.of_string "two"))
   | l -> Alcotest.failf "expected 2 frames, got %d" (List.length l))

let test_rx_ring_wraps () =
  let _, _, _, nic, ring, buffers = mk_env ~bufs:4 () in
  (match Ixgbe.setup_rx nic ~ring_iova:ring ~buffers with
   | Ok () -> ()
   | Error m -> Alcotest.fail (Atmo_devmodel.Fault.error_to_string m));
  (* run 3 full laps around the 4-slot ring *)
  for lap = 0 to 11 do
    checkb "deliver" true (Ixgbe.wire_deliver nic (frame_of_text (string_of_int lap)));
    checki "harvest one" 1 (List.length (Ixgbe.rx_burst nic ~max:4))
  done;
  let rx, _ = Ixgbe.stats nic in
  checki "12 frames" 12 rx;
  checki "no drops" 0 (Ixgbe.rx_drops nic)

let test_rx_overflow_drops () =
  let _, _, _, nic, ring, buffers = mk_env ~bufs:2 () in
  (match Ixgbe.setup_rx nic ~ring_iova:ring ~buffers with
   | Ok () -> ()
   | Error m -> Alcotest.fail (Atmo_devmodel.Fault.error_to_string m));
  checkb "1 ok" true (Ixgbe.wire_deliver nic (frame_of_text "a"));
  checkb "2 ok" true (Ixgbe.wire_deliver nic (frame_of_text "b"));
  checkb "3 dropped (no free descriptor)" false (Ixgbe.wire_deliver nic (frame_of_text "c"));
  checki "drop counted" 1 (Ixgbe.rx_drops nic)

let test_rx_requires_iommu_mapping () =
  (* a ring page the device is NOT allowed to touch: setup must fail *)
  let mem = Phys_mem.create ~page_count:64 in
  let alloc = Page_alloc.create mem ~reserved_frames:0 in
  let iommu = Iommu.create mem in
  let clock = Clock.create () in
  let pt = Result.get_ok (Page_table.create mem alloc) in
  Iommu.attach iommu ~device:0 ~root:(Page_table.cr3 pt);
  let nic = Ixgbe.create mem iommu ~device:0 ~clock ~cost in
  let unmapped = Option.get (Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User) in
  (match Ixgbe.setup_rx nic ~ring_iova:unmapped ~buffers:[| (unmapped, 2048) |] with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "setup through unmapped IOMMU region must fail");
  checkb "faults recorded" true (Iommu.faults iommu > 0)

let test_rx_unmapped_buffer_drops () =
  (* ring mapped, but one buffer missing from the IOMMU domain: frames
     landing there are dropped, not silently written *)
  let mem = Phys_mem.create ~page_count:64 in
  let alloc = Page_alloc.create mem ~reserved_frames:0 in
  let iommu = Iommu.create mem in
  let clock = Clock.create () in
  let pt = Result.get_ok (Page_table.create mem alloc) in
  let page map =
    let a = Option.get (Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User) in
    if map then
      (match Page_table.map_4k pt ~vaddr:a ~frame:a ~perm:Pte.perm_rw with
       | Ok () -> ()
       | Error _ -> Alcotest.fail "map");
    a
  in
  let ring = page true in
  let good = page true in
  let evil = page false in
  Iommu.attach iommu ~device:0 ~root:(Page_table.cr3 pt);
  let nic = Ixgbe.create mem iommu ~device:0 ~clock ~cost in
  (match Ixgbe.setup_rx nic ~ring_iova:ring ~buffers:[| (good, 2048); (evil, 2048) |] with
   | Ok () -> ()
   | Error m -> Alcotest.fail (Atmo_devmodel.Fault.error_to_string m));
  checkb "first frame lands in good buffer" true (Ixgbe.wire_deliver nic (frame_of_text "a"));
  checkb "second frame dropped by IOMMU" false (Ixgbe.wire_deliver nic (frame_of_text "b"));
  (* and nothing was written to the unmapped frame *)
  checkb "unmapped frame untouched" true
    (Bytes.equal (Phys_mem.blit_from mem ~addr:evil ~len:64) (Bytes.make 64 '\000'))

let test_tx_path () =
  let _, _, _, nic, ring, buffers = mk_env () in
  (match Ixgbe.setup_tx nic ~ring_iova:ring ~buffers with
   | Ok () -> ()
   | Error m -> Alcotest.fail (Atmo_devmodel.Fault.error_to_string m));
  checki "accepted" 2 (Ixgbe.tx_burst nic [ frame_of_text "x"; frame_of_text "y" ]);
  (match Ixgbe.wire_collect nic with
   | [ a; b ] ->
     checkb "order preserved" true
       (Packet.payload a = Some (Bytes.of_string "x")
        && Packet.payload b = Some (Bytes.of_string "y"))
   | l -> Alcotest.failf "expected 2 on the wire, got %d" (List.length l));
  checkb "wire drained" true (Ixgbe.wire_collect nic = [])

let test_driver_cycles_charged () =
  let _, _, clock, nic, ring, buffers = mk_env () in
  (match Ixgbe.setup_rx nic ~ring_iova:ring ~buffers with
   | Ok () -> ()
   | Error m -> Alcotest.fail (Atmo_devmodel.Fault.error_to_string m));
  ignore (Ixgbe.wire_deliver nic (frame_of_text "a"));
  let before = Clock.now clock in
  ignore (Ixgbe.rx_burst nic ~max:1);
  checki "per-packet driver cost" cost.Cost.driver_per_packet (Clock.now clock - before)

(* One request's NIC leg as the kv deployment runs it: tx burst, the
   wire, rx DMA, rx burst, with the flight recorder armed.  Descriptors
   move through per-device scratch buffers and each DMA page resolves
   once, so what is left is the frame copies the datapath hands out (the
   wire copy and the harvested frame) and the lists around them.  A
   boxed descriptor per read, a scratch buffer per copy and a second
   translation per page come to about 1,050 words. *)
let test_transfer_allocation_floor () =
  let _, _, _, nic, ring, buffers = mk_env () in
  let tx_ring = fst buffers.(0) and tx_bufs = Array.sub buffers 1 3 in
  let rx_bufs = Array.sub buffers 4 4 in
  (match Ixgbe.setup_rx nic ~ring_iova:ring ~buffers:rx_bufs with
   | Ok () -> ()
   | Error m -> Alcotest.fail (Atmo_devmodel.Fault.error_to_string m));
  (match Ixgbe.setup_tx nic ~ring_iova:tx_ring ~buffers:tx_bufs with
   | Ok () -> ()
   | Error m -> Alcotest.fail (Atmo_devmodel.Fault.error_to_string m));
  let frame = frame_of_text (String.make 40 'k') in
  let transfer () =
    let sent = Ixgbe.tx_burst nic [ frame ] in
    let wire = Ixgbe.wire_collect nic in
    List.iter (fun f -> ignore (Ixgbe.wire_deliver nic f)) wire;
    match (sent, Ixgbe.rx_burst nic ~max:8) with
    | 1, [ _ ] -> ()
    | _ -> Alcotest.fail "transfer lost the frame"
  in
  Atmo_obs.Metrics.reset ();
  Atmo_obs.Span.reset ();
  Atmo_obs.Sink.install
    (Atmo_obs.Sink.Flight
       (Atmo_obs.Flight.create ~cpus:2 ~slots:1024 ~slot_size:Atmo_obs.Event.slot_bytes));
  Fun.protect
    ~finally:(fun () ->
      Atmo_obs.Sink.install Atmo_obs.Sink.Disabled;
      Atmo_obs.Span.reset ())
    (fun () ->
      for _ = 1 to 16 do
        transfer ()
      done;
      Alloc.check_at_most "an ixgbe tx/wire/rx transfer" ~limit:300.
        (Alloc.per_call transfer))

(* ------------------------------------------------------------------ *)
(* Nvme                                                                *)

let test_nvme_write_read () =
  let clock = Clock.create () in
  let dev = Nvme.create ~clock ~cost ~capacity_blocks:64 in
  let data = Bytes.make Nvme.block_bytes 'z' in
  (match Nvme.submit_write dev ~lba:5 ~data with
   | Ok _ -> ()
   | Error m -> Alcotest.fail (Atmo_devmodel.Fault.error_to_string m));
  ignore (Nvme.wait_all dev);
  (match Nvme.submit_read dev ~lba:5 with
   | Ok _ -> ()
   | Error m -> Alcotest.fail (Atmo_devmodel.Fault.error_to_string m));
  (match Nvme.wait_all dev with
   | [ c ] ->
     checkb "read ok" true c.Nvme.ok;
     checkb "data round-trips" true (c.Nvme.data = Some data)
   | l -> Alcotest.failf "expected 1 completion, got %d" (List.length l))

let test_nvme_unwritten_reads_zero () =
  let clock = Clock.create () in
  let dev = Nvme.create ~clock ~cost ~capacity_blocks:8 in
  ignore (Nvme.submit_read dev ~lba:3);
  match Nvme.wait_all dev with
  | [ c ] -> checkb "zero block" true (c.Nvme.data = Some (Bytes.make Nvme.block_bytes '\000'))
  | _ -> Alcotest.fail "completion"

let test_nvme_bad_args () =
  let clock = Clock.create () in
  let dev = Nvme.create ~clock ~cost ~capacity_blocks:8 in
  checkb "lba range" true (Result.is_error (Nvme.submit_read dev ~lba:99));
  checkb "negative lba" true (Result.is_error (Nvme.submit_read dev ~lba:(-1)));
  checkb "short write" true
    (Result.is_error (Nvme.submit_write dev ~lba:0 ~data:(Bytes.make 100 'x')))

let test_nvme_latency_and_cap () =
  (* completions appear only after the device latency, and a burst is
     spaced by the rate cap *)
  let clock = Clock.create () in
  let dev = Nvme.create ~clock ~cost ~capacity_blocks:1024 in
  for lba = 0 to 99 do
    ignore (Nvme.submit_read dev ~lba)
  done;
  checki "nothing before latency" 0 (List.length (Nvme.poll dev));
  ignore (Nvme.wait_all dev);
  (* the 100 reads must take at least 100/cap seconds of device time *)
  let min_seconds = 100. /. cost.Cost.nvme_read_cap_iops in
  checkb "rate cap respected" true (Clock.seconds clock >= min_seconds)

let test_nvme_completion_order () =
  let clock = Clock.create () in
  let dev = Nvme.create ~clock ~cost ~capacity_blocks:64 in
  let tags = List.init 5 (fun lba -> Result.get_ok (Nvme.submit_read dev ~lba)) in
  let completions = Nvme.wait_all dev in
  Alcotest.(check (list int)) "FIFO completion for same-kind ops" tags
    (List.map (fun c -> c.Nvme.tag) completions)

let () =
  Alcotest.run "drivers"
    [
      ( "ixgbe",
        [
          Alcotest.test_case "rx path" `Quick test_rx_path;
          Alcotest.test_case "ring wraps" `Quick test_rx_ring_wraps;
          Alcotest.test_case "overflow drops" `Quick test_rx_overflow_drops;
          Alcotest.test_case "iommu required" `Quick test_rx_requires_iommu_mapping;
          Alcotest.test_case "unmapped buffer drops" `Quick test_rx_unmapped_buffer_drops;
          Alcotest.test_case "tx path" `Quick test_tx_path;
          Alcotest.test_case "cycles charged" `Quick test_driver_cycles_charged;
          Alcotest.test_case "transfer allocation floor" `Quick
            test_transfer_allocation_floor;
        ] );
      ( "nvme",
        [
          Alcotest.test_case "write/read" `Quick test_nvme_write_read;
          Alcotest.test_case "unwritten zero" `Quick test_nvme_unwritten_reads_zero;
          Alcotest.test_case "bad args" `Quick test_nvme_bad_args;
          Alcotest.test_case "latency and cap" `Quick test_nvme_latency_and_cap;
          Alcotest.test_case "completion order" `Quick test_nvme_completion_order;
        ] );
    ]
