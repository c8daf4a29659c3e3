(* Device-model subsystem tests: the seeded hostile-mode engine, the
   per-device state machines, and the paper's driver-survival claim in
   executable form — under fault injection no driver raises, every
   misbehaviour is absorbed as a typed error, and Driver_lint finds
   nothing to flag once the rings are drained.  Also the backend
   interchange oracle: virtio and ixgbe/nvme backends are bit-identical
   on the fault-free path. *)

module Fault = Atmo_devmodel.Fault
module Hostile = Atmo_devmodel.Hostile
module Model = Atmo_devmodel.Model
module Ixgbe = Atmo_drivers.Ixgbe
module Virtio_net = Atmo_drivers.Virtio_net
module Virtio_blk = Atmo_drivers.Virtio_blk
module Virtio_ring = Atmo_drivers.Virtio_ring
module Phys_mem = Atmo_hw.Phys_mem
module Clock = Atmo_hw.Clock
module Kernel = Atmo_core.Kernel
module Event = Atmo_obs.Event
module Sink = Atmo_obs.Sink
module Flight = Atmo_obs.Flight
module San_report = Atmo_san.Report
module Driver_lint = Atmo_san.Driver_lint
module Kv_demo = Atmo_workloads.Kv_demo
module Device_env = Atmo_workloads.Device_env

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let boot () =
  match Kernel.boot Kernel.default_boot with
  | Ok (k, _init) -> k
  | Error e -> Alcotest.failf "boot: %a" Atmo_util.Errno.pp e

(* Run [f] with a clean model registry and report table on both sides,
   so no test leaks device models into another. *)
let with_clean_models f =
  Model.reset ();
  San_report.clear ();
  Fun.protect
    ~finally:(fun () ->
      Model.reset ();
      San_report.clear ())
    f

(* ------------------------------------------------------------------ *)
(* Fault taxonomy: codes, names, and obs events agree. *)

let test_fault_codes () =
  (* the names are spelled out here, not read back from [Event]: a
     fault recoded against the name table prints the wrong name *)
  let names =
    [
      (Fault.Malformed_desc, "malformed-desc");
      (Fault.Short_desc, "short-desc");
      (Fault.Spurious_irq, "spurious-irq");
      (Fault.Irq_storm, "irq-storm");
      (Fault.Reorder_completion, "reorder-completion");
      (Fault.Duplicate_completion, "duplicate-completion");
      (Fault.Dma_escape, "dma-escape");
    ]
  in
  checkb "one name per fault" true (List.map fst names = Fault.all);
  List.iter
    (fun (k, name) ->
      let code = Fault.code k in
      checkb "of_code round trip" true (Fault.of_code code = Some k);
      checkb "of_name round trip" true (Fault.of_name (Fault.name k) = Some k);
      Alcotest.(check string) (Printf.sprintf "code %d" code) name (Fault.name k))
    names;
  checkb "unknown code rejected" true (Fault.of_code 0 = None);
  checkb "unknown name rejected" true (Fault.of_name "no-such-fault" = None)

(* ------------------------------------------------------------------ *)
(* Hostile engine: same seed, same faults — and the budget binds. *)

let drive_engine t n =
  let log = ref [] in
  for i = 1 to n do
    let site = Printf.sprintf "site%d" (i mod 7) in
    (match Hostile.pick t ~site Fault.all with
    | Some k -> log := (site, k) :: !log
    | None -> ());
    ignore (Hostile.rand t 16)
  done;
  List.rev !log

let test_hostile_determinism () =
  let a = Hostile.create ~budget:32 ~seed:2026 () in
  let b = Hostile.create ~budget:32 ~seed:2026 () in
  let la = drive_engine a 500 and lb = drive_engine b 500 in
  checkb "same seed, same injections" true (la = lb);
  checkb "pick log matches injected log" true (la = Hostile.injected a);
  checkb "budget binds" true (Hostile.injected_count a <= 32);
  checki "budget accounting" 32
    (Hostile.budget_left a + Hostile.injected_count a);
  let c = Hostile.create ~budget:32 ~seed:2027 () in
  let lc = drive_engine c 500 in
  checkb "different seed, different run" true (la <> lc)

(* ------------------------------------------------------------------ *)
(* IRQ storms: auto-mask keeps pending bounded; without it the lint
   files drv-irq-storm. *)

let test_irq_storm_auto_mask () =
  with_clean_models (fun () ->
      let k = boot () in
      let masked = Model.register ~name:"stormA" ~device:31 ~initial:Model.Active in
      for _ = 1 to Model.storm_threshold + 8 do
        Model.raise_irq masked
      done;
      checkb "auto-mask bounds pending" true
        (Model.pending_irqs masked <= Model.storm_threshold);
      checki "masked vector is lint-clean" 0 (Driver_lint.lint k);
      Model.ack_irqs masked;
      let unmasked = Model.register ~name:"stormB" ~device:32 ~initial:Model.Active in
      Model.set_auto_mask unmasked false;
      for _ = 1 to Model.storm_threshold + 8 do
        Model.raise_irq unmasked
      done;
      checkb "unmasked vector storms" true
        (Model.pending_irqs unmasked > Model.storm_threshold);
      checkb "lint fires" true (Driver_lint.lint k > 0);
      match
        List.find_opt
          (fun r -> r.San_report.rule = San_report.Drv_irq_storm)
          (San_report.reports ())
      with
      | None -> Alcotest.fail "drv-irq-storm not filed"
      | Some _ -> ())

(* The headline property: a full seeded fault sweep over all four
   devices never raises, and after the drain Driver_lint has nothing to
   say — no undefined state, no escaped DMA, no storm, no lost
   completion. *)
let test_hostile_sweep_survives () =
  let k = boot () in
  List.iter
    (fun seed ->
      with_clean_models (fun () ->
          let absorbed = Device_env.hostile_sweep ~seed ~steps:200 in
          checkb "some faults were absorbed as typed errors" true (absorbed > 0);
          checki "lint clean after drain" 0 (Driver_lint.lint k);
          checkb "no device left non-quiescent" true
            (List.for_all
               (fun m ->
                 m.Model.state <> Model.Undefined
                 && m.Model.delivered = m.Model.harvested)
               (Model.all ()))))
    [ 7; 101; 2026 ]

(* Hostile faults surface as Dev_fault flight-recorder events. *)
let test_hostile_faults_traced () =
  with_clean_models (fun () ->
      let recorder = Flight.create ~cpus:1 ~slots:256 ~slot_size:Event.slot_bytes in
      Sink.install (Sink.Flight recorder);
      Fun.protect
        ~finally:(fun () -> Sink.install Sink.Disabled)
        (fun () ->
          let absorbed = Device_env.hostile_blk_sweep ~seed:5 ~steps:64 ~kind:`Nvme in
          let faults =
            List.filter
              (fun r ->
                match r.Event.ev with
                | Event.Dev_fault { device = 12; _ } -> true
                | _ -> false)
              (Sink.records ())
          in
          checkb "absorbed faults traced" true (absorbed > 0);
          checkb "Dev_fault events recorded" true (List.length faults > 0)))

(* ------------------------------------------------------------------ *)
(* Backend interchange: fault-free, virtio-net delivers exactly what
   ixgbe delivers, on the same virtual-clock timeline. *)

let nic_pump ~kind ~frames =
  let cost = Atmo_sim.Cost.default in
  let clock = Clock.create () in
  let slots = 8 in
  let device = match kind with `Ixgbe -> 11 | `Virtio -> 14 in
  let mem, iommu, span = Device_env.mk_dma_env ~page_count:128 ~device in
  let buffers () = Array.init slots (fun _ -> (span 2048, 2048)) in
  let deliver, rx =
    match kind with
    | `Ixgbe ->
      let nic = Ixgbe.create mem iommu ~device ~clock ~cost in
      (match Ixgbe.setup_rx nic ~ring_iova:(span Phys_mem.page_size) ~buffers:(buffers ()) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Fault.error_to_string e));
      ((fun f -> Ixgbe.wire_deliver nic f), fun () -> Ixgbe.rx_burst nic ~max:slots)
    | `Virtio ->
      let nic = Virtio_net.create mem iommu ~device ~clock ~cost in
      (match Virtio_net.setup_rx nic ~ring_iova:(span Phys_mem.page_size) ~buffers:(buffers ()) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Fault.error_to_string e));
      ((fun f -> Virtio_net.wire_deliver nic f), fun () -> Virtio_net.rx_burst nic ~max:slots)
  in
  let got = ref [] in
  for i = 1 to frames do
    let frame = Bytes.make 64 (Char.chr (i mod 256)) in
    checkb "fault-free delivery accepted" true (deliver frame);
    if i mod 4 = 0 then got := List.rev_append (rx ()) !got
  done;
  let rec drain () =
    match rx () with
    | [] -> ()
    | fs ->
      got := List.rev_append fs !got;
      drain ()
  in
  drain ();
  (List.rev !got, Clock.now clock)

let test_nic_delivery_identity () =
  with_clean_models (fun () ->
      let ixg, ixg_cycles = nic_pump ~kind:`Ixgbe ~frames:64 in
      let vio, vio_cycles = nic_pump ~kind:`Virtio ~frames:64 in
      checki "ixgbe delivers every frame" 64 (List.length ixg);
      checkb "payloads bit-identical" true (ixg = vio);
      checki "cycle timelines identical" ixg_cycles vio_cycles)

(* The kv/Maglev workload is backend-agnostic: swapping nvme→virtio-blk
   or ixgbe→virtio-net moves neither a cycle nor a reply byte. *)
let test_kv_backend_identity () =
  with_clean_models (fun () ->
      let base = Kv_demo.run ~requests:8 () in
      let vblk = Kv_demo.run ~requests:8 ~blk:`Virtio () in
      let nixg = Kv_demo.run ~requests:8 ~nic:`Ixgbe () in
      let nvio = Kv_demo.run ~requests:8 ~nic:`Virtio () in
      checki "virtio-blk: same end cycles" base.Kv_demo.end_cycles vblk.Kv_demo.end_cycles;
      checkb "virtio-blk: same latencies" true
        (base.Kv_demo.latencies = vblk.Kv_demo.latencies);
      checkb "virtio-blk: same replies" true (base.Kv_demo.replies = vblk.Kv_demo.replies);
      checki "nic backends: same end cycles" nixg.Kv_demo.end_cycles nvio.Kv_demo.end_cycles;
      checkb "nic backends: same latencies" true
        (nixg.Kv_demo.latencies = nvio.Kv_demo.latencies);
      checkb "nic backends: same replies" true
        (nixg.Kv_demo.replies = nvio.Kv_demo.replies);
      checkb "wire path does not change reply bytes" true
        (base.Kv_demo.replies = nixg.Kv_demo.replies))

(* ------------------------------------------------------------------ *)
(* Virtio-blk basics: data round trip and the Queue_full typed error. *)

let test_virtio_blk_roundtrip () =
  with_clean_models (fun () ->
      let cost = Atmo_sim.Cost.default in
      let clock = Clock.create () in
      let mem, iommu, span = Device_env.mk_dma_env ~page_count:128 ~device:13 in
      let dev = Virtio_blk.create mem iommu ~device:13 ~clock ~cost ~capacity_blocks:32 in
      let depth = 4 in
      let _, _, _, ring_bytes = Virtio_ring.layout ~qsz:(3 * depth) ~base:0 in
      (match
         Virtio_blk.setup dev
           ~ring_iova:(span ring_bytes)
           ~arena_iova:(span (depth * Virtio_blk.slot_bytes))
           ~depth
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Fault.error_to_string e));
      let block = Bytes.init Virtio_blk.block_bytes (fun i -> Char.chr (i mod 251)) in
      (match Virtio_blk.submit_write dev ~lba:3 ~data:block with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Fault.error_to_string e));
      ignore (Virtio_blk.wait_all dev);
      (match Virtio_blk.submit_read dev ~lba:3 with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Fault.error_to_string e));
      (match Virtio_blk.wait_all dev with
      | [ c ] ->
        checkb "read ok" true c.Virtio_blk.ok;
        checkb "read returns written block" true (c.Virtio_blk.data = Some block)
      | cs -> Alcotest.failf "expected one completion, got %d" (List.length cs));
      (* fill the queue: depth submissions fit, one more is Queue_full *)
      for lba = 0 to depth - 1 do
        match Virtio_blk.submit_read dev ~lba with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Fault.error_to_string e)
      done;
      (match Virtio_blk.submit_read dev ~lba:9 with
      | Error Fault.Queue_full -> ()
      | Ok _ -> Alcotest.fail "over-depth submit accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Fault.error_to_string e));
      ignore (Virtio_blk.wait_all dev);
      (* lba bounds are typed errors, not exceptions *)
      match Virtio_blk.submit_read dev ~lba:99 with
      | Error (Fault.Lba_out_of_range _) -> ()
      | Ok _ -> Alcotest.fail "out-of-range lba accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Fault.error_to_string e))

let () =
  Alcotest.run "devmodel"
    [
      ( "fault",
        [
          Alcotest.test_case "codes and names" `Quick test_fault_codes;
          Alcotest.test_case "hostile determinism" `Quick test_hostile_determinism;
        ] );
      ("model", [ Alcotest.test_case "irq storm auto-mask" `Quick test_irq_storm_auto_mask ]);
      ( "hostile",
        [
          Alcotest.test_case "sweep survives" `Quick test_hostile_sweep_survives;
          Alcotest.test_case "faults traced" `Quick test_hostile_faults_traced;
        ] );
      ( "identity",
        [
          Alcotest.test_case "nic delivery" `Quick test_nic_delivery_identity;
          Alcotest.test_case "kv backends" `Quick test_kv_backend_identity;
        ] );
      ( "virtio-blk",
        [ Alcotest.test_case "roundtrip and typed errors" `Quick test_virtio_blk_roundtrip ] );
    ]
