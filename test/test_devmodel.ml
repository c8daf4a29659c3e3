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
module Block = Atmo_drivers.Block
module Clock = Atmo_hw.Clock
module Kernel = Atmo_core.Kernel
module Event = Atmo_obs.Event
module Sink = Atmo_obs.Sink
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
(* IRQ storms: auto-mask keeps pending bounded.  Without it the lint
   files drv-irq-storm: that is the irq-storm plant's table case in
   test_mutations. *)

let test_irq_storm_auto_mask () =
  with_clean_models (fun () ->
      let k = boot () in
      let masked = Model.register ~name:"stormA" ~device:31 ~initial:Model.Active in
      for _ = 1 to Model.storm_threshold + 8 do
        Model.raise_irq masked
      done;
      checkb "auto-mask bounds pending" true
        (Model.pending_irqs masked <= Model.storm_threshold);
      checki "masked vector is lint-clean" 0 (Driver_lint.lint k))

(* One device after its hostile sweep: its model's name and state, the
   typed errors its driver absorbed, then the model's ledger —
   submitted, delivered, harvested, duplicates, IRQs raised/acked, DMA
   escapes attempted/blocked, faults, recoveries. *)
let ledger absorbed (m : Model.t) =
  Printf.sprintf
    "%s %s absorbed=%d sub=%d del=%d harv=%d dup=%d irq=%d/%d esc=%d/%d faults=%d rec=%d"
    m.Model.name (Model.state_name m.Model.state) absorbed m.Model.submitted
    m.Model.delivered m.Model.harvested m.Model.dup_delivered m.Model.irq_raised
    m.Model.irq_acked m.Model.escape_attempts m.Model.escape_blocked m.Model.faults
    m.Model.recoveries

(* Each device's 200-step sweep at the seed [Device_env.hostile_sweep
   ~seed] gives it.  Literals, so that a change to one driver's fault
   handling, to the shared error ledger or to the interrupt faults
   shows up as the device and figure it moved. *)
let sweep_pins =
  [
    ( 7,
      [
        "ixgbe11 active absorbed=10 sub=50 del=251 harv=251 dup=8 irq=519/519 esc=7/7 faults=40 rec=32";
        "virtio-net14 recovering absorbed=20 sub=50 del=250 harv=250 dup=5 irq=650/650 esc=5/5 faults=50 rec=45";
        "nvme12 active absorbed=22 sub=200 del=200 harv=200 dup=8 irq=64/64 esc=0/0 faults=50 rec=39";
        "virtio-blk13 active absorbed=14 sub=189 del=189 harv=189 dup=9 irq=325/325 esc=5/5 faults=38 rec=38";
      ] );
    ( 101,
      [
        "ixgbe11 active absorbed=18 sub=50 del=249 harv=249 dup=7 irq=519/519 esc=8/8 faults=48 rec=41";
        "virtio-net14 active absorbed=18 sub=50 del=250 harv=250 dup=4 irq=461/461 esc=4/4 faults=46 rec=42";
        "nvme12 active absorbed=21 sub=200 del=200 harv=200 dup=14 irq=64/64 esc=0/0 faults=48 rec=35";
        "virtio-blk13 active absorbed=13 sub=189 del=189 harv=189 dup=8 irq=579/579 esc=11/11 faults=48 rec=46";
      ] );
    ( 2026,
      [
        "ixgbe11 active absorbed=19 sub=50 del=253 harv=253 dup=10 irq=774/774 esc=7/7 faults=54 rec=44";
        "virtio-net14 recovering absorbed=16 sub=50 del=247 harv=247 dup=6 irq=454/454 esc=9/9 faults=44 rec=38";
        "nvme12 active absorbed=28 sub=200 del=200 harv=200 dup=17 irq=64/64 esc=0/0 faults=54 rec=46";
        "virtio-blk13 active absorbed=17 sub=189 del=189 harv=189 dup=10 irq=387/387 esc=4/4 faults=44 rec=43";
      ] );
  ]

(* The headline property: a full seeded fault sweep over all four
   devices never raises, absorbs exactly the pinned typed errors, and
   after the drain Driver_lint has nothing to say — no undefined state,
   no escaped DMA, no storm, no lost completion. *)
let test_hostile_sweep_survives () =
  let k = boot () in
  List.iter
    (fun (seed, pins) ->
      with_clean_models (fun () ->
          let absorbed =
            List.map
              (fun sweep -> sweep ~steps:200)
              [
                Device_env.hostile_nic_sweep ~seed ~kind:`Ixgbe;
                Device_env.hostile_nic_sweep ~seed:(seed + 1) ~kind:`Virtio;
                Device_env.hostile_blk_sweep ~seed:(seed + 2) ~kind:`Nvme;
                Device_env.hostile_blk_sweep ~seed:(seed + 3) ~kind:`Virtio;
              ]
          in
          Alcotest.(check (list string))
            (Printf.sprintf "seed %d ledgers" seed)
            pins
            (List.map2 ledger absorbed (Model.all ()));
          checki "lint clean after drain" 0 (Driver_lint.lint k);
          checkb "no device left non-quiescent" true
            (List.for_all
               (fun m ->
                 m.Model.state <> Model.Undefined
                 && m.Model.delivered = m.Model.harvested)
               (Model.all ()))))
    sweep_pins

(* Hostile faults surface as Dev_fault flight-recorder events. *)
let test_hostile_faults_traced () =
  with_clean_models (fun () ->
      Atmo_obs.Span.with_recorder ~cpus:1 ~slots:256 (fun _ ->
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
  let clock = Clock.create () in
  let slots = 8 in
  let nic = Device_env.nic ~kind ~device:11 ~slots ~clock ~cost:Atmo_sim.Cost.default in
  let deliver = Device_env.nic_deliver nic and rx () = Device_env.nic_rx nic ~max:slots in
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

let digest_of to_s l = Digest.to_hex (Digest.string (String.concat "," (List.map to_s l)))

let kv_digest (r : Kv_demo.result) =
  Printf.sprintf "end=%d latencies=%s replies=%s" r.Kv_demo.end_cycles
    (digest_of string_of_int r.Kv_demo.latencies)
    (digest_of Bytes.to_string r.Kv_demo.replies)

(* An 8-request run on each backend combination: end clock, and digests
   of the latencies and of the reply bytes.  Equal rows are the
   backend identity; literals, so that a change moving every backend
   alike shows up too. *)
let kv_pins =
  let ipc_only = "end=1858293 latencies=7cd13213a57467ef31fc7d583b4fbe02"
  and with_nic = "end=1860725 latencies=4c10ba51ebc11af3e986e0e98997e094"
  and replies = " replies=b27eaa31e3dada8262106e0ce2ff3c01" in
  [
    ((`Nvme, None), ipc_only ^ replies);
    ((`Virtio, None), ipc_only ^ replies);
    ((`Nvme, Some `Ixgbe), with_nic ^ replies);
    ((`Nvme, Some `Virtio), with_nic ^ replies);
    ((`Virtio, Some `Ixgbe), with_nic ^ replies);
    ((`Virtio, Some `Virtio), with_nic ^ replies);
  ]

(* The kv/Maglev workload is backend-agnostic: swapping nvme→virtio-blk
   or ixgbe→virtio-net moves neither a cycle nor a reply byte, and each
   combination's figures are the pinned ones. *)
let test_kv_backend_identity () =
  with_clean_models (fun () ->
      let run ?nic blk =
        let r = Kv_demo.run ~requests:8 ~blk ?nic () in
        Alcotest.(check string) "pinned run" (List.assoc (blk, nic) kv_pins) (kv_digest r);
        r
      in
      let base = run `Nvme in
      let vblk = run `Virtio in
      let nixg = run ~nic:`Ixgbe `Nvme in
      let nvio = run ~nic:`Virtio `Nvme in
      ignore (run ~nic:`Ixgbe `Virtio);
      ignore (run ~nic:`Virtio `Virtio);
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
      let depth = 4 in
      let dev =
        Device_env.blk ~kind:`Virtio ~device:13 ~depth ~capacity_blocks:32
          ~clock:(Clock.create ()) ~cost:Atmo_sim.Cost.default
      in
      let block = Bytes.init Block.block_bytes (fun i -> Char.chr (i mod 251)) in
      (match Device_env.blk_write dev ~lba:3 ~data:block with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Fault.error_to_string e));
      ignore (Device_env.blk_wait dev);
      (match Device_env.blk_read dev ~lba:3 with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Fault.error_to_string e));
      (match Device_env.blk_wait dev with
      | [ c ] ->
        checkb "read ok" true c.Block.ok;
        checkb "read returns written block" true (c.Block.data = Some block)
      | cs -> Alcotest.failf "expected one completion, got %d" (List.length cs));
      (* fill the queue: depth submissions fit, one more is Queue_full *)
      for lba = 0 to depth - 1 do
        match Device_env.blk_read dev ~lba with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Fault.error_to_string e)
      done;
      (match Device_env.blk_read dev ~lba:9 with
      | Error Fault.Queue_full -> ()
      | Ok _ -> Alcotest.fail "over-depth submit accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Fault.error_to_string e));
      ignore (Device_env.blk_wait dev);
      (* lba bounds are typed errors, not exceptions *)
      match Device_env.blk_read dev ~lba:99 with
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
