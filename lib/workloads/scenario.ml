module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Smp = Atmo_sim.Smp
module Clock = Atmo_hw.Clock
module Nvme = Atmo_drivers.Nvme
module Sink = Atmo_obs.Sink
module Page_state = Atmo_pmem.Page_state
module Pte_bits = Atmo_hw.Pte_bits

type step = thread:int -> Syscall.t -> Syscall.ret

let cost = Atmo_sim.Cost.default

let locked k ~thread call =
  Atmo_san.Lockcheck.locked ~site:"san.harness" ~cpu:0 (fun () -> Kernel.step k ~thread call)

let boot () =
  match Kernel.boot Kernel.default_boot with
  | Ok v -> v
  | Error e -> Fmt.failwith "boot: %a" Atmo_util.Errno.pp e

let expect what want (r : Syscall.ret) =
  match want r with Some v -> v | None -> Fmt.failwith "%s -> %a" what Syscall.pp_ret r

let ptr = function Syscall.Rptr p -> Some p | _ -> None

(* ------------------------------------------------------------------ *)
(* The endpoint pair *)

type pair = { kernel : Kernel.t; init : int; peer : int }

let pair k ~init ~(step : step) =
  let peer = expect "new_thread" ptr (step ~thread:init Syscall.New_thread) in
  let ep = expect "new_endpoint" ptr (step ~thread:init (Syscall.New_endpoint { slot = 0 })) in
  Atmo_pm.Proc_mgr.install_descriptor k.Kernel.pm ~thread:peer ~slot:0 ~endpoint:ep;
  { kernel = k; init; peer }

let boot_pair () =
  let k, init = boot () in
  pair k ~init ~step:(Kernel.step k)

let send i = Syscall.Send { slot = 0; msg = Atmo_pm.Message.scalars_only [ i ] }
let recv = Syscall.Recv { slot = 0 }

let pingpong w ~send_call ~iterations =
  let programs =
    [
      { Smp.thread = w.peer; think_cycles = 600; call_of = (fun _ -> recv) };
      { Smp.thread = w.init; think_cycles = 800; call_of = send_call };
    ]
  in
  Smp.run w.kernel ~cost ~cpus:2 ~programs ~iterations

let smp_phase w ~iterations =
  match pingpong w ~send_call:send ~iterations with
  | Ok s -> s
  | Error msg -> Fmt.failwith "smp phase failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Phases *)

let small_pages = 0x4000_0000

let memory w ~(step : step) ~loaded =
  let s4k = Page_state.S4k and s2m = Page_state.S2m and rw = Pte_bits.perm_rw in
  let map va count size = Syscall.Mmap { va; count; size; perm = rw } in
  ignore (step ~thread:w.init (map small_pages 8 s4k));
  (* user-level loads: real MMU walks through the new page tables *)
  for i = 0 to 7 do
    ignore (Kernel.resolve_user w.kernel ~thread:w.init ~vaddr:(small_pages + (i * 0x1000)))
  done;
  loaded ();
  ignore (step ~thread:w.init (Syscall.Munmap { va = small_pages; count = 8; size = s4k }));
  ignore (step ~thread:w.init (map 0x8000_0000 1 s2m));
  ignore (step ~thread:w.init (Syscall.Munmap { va = 0x8000_0000; count = 1; size = s2m }))

let nvme ~clock ~reads =
  let dev = Nvme.create ~clock ~cost ~capacity_blocks:1024 in
  Nvme.set_device dev 7;
  let block = Bytes.make Nvme.block_bytes 'a' in
  for lba = 0 to 7 do
    ignore (Nvme.submit_write dev ~lba ~data:block)
  done;
  ignore (Nvme.wait_all dev);
  if reads > 0 then begin
    for lba = 0 to reads - 1 do
      ignore (Nvme.submit_read dev ~lba)
    done;
    ignore (Nvme.wait_all dev)
  end

(* ------------------------------------------------------------------ *)
(* The scripted workloads *)

type trace = { smp : Smp.stats; memory_end : int; driver_end : int }

let trace ~iterations =
  let k, init = boot () in
  let w = pair k ~init ~step:(Kernel.step k) in
  let smp = smp_phase w ~iterations in
  (* the memory phase runs on a virtual clock that continues where the
     SMP timeline stopped *)
  let vnow = ref smp.Smp.wall_cycles in
  if Sink.tracing () then Sink.set_clock (fun () -> !vnow);
  let clocked ~thread call =
    let c = Smp.syscall_cycles cost call in
    let r = Kernel.step k ~thread call in
    vnow := !vnow + c;
    if Sink.tracing () then Atmo_obs.Metrics.observe ("lat/syscall/" ^ Syscall.name call) c;
    r
  in
  memory w ~step:clocked ~loaded:(fun () ->
      ignore (Kernel.resolve_user k ~thread:init ~vaddr:0x7fff_0000));
  (* one last rendezvous the other way round: the sender blocks and the
     receiver harvests it *)
  ignore (clocked ~thread:init (send 99));
  ignore (clocked ~thread:w.peer recv);
  let clock = Clock.create () in
  Clock.advance clock !vnow;
  if Sink.tracing () then Sink.set_clock (fun () -> Clock.now clock);
  nvme ~clock ~reads:4;
  { smp; memory_end = !vnow; driver_end = Clock.now clock }

let sanitized k ~init ~iterations =
  let step = locked k in
  let w = pair k ~init ~step in
  let smp = smp_phase w ~iterations in
  memory w ~step ~loaded:(fun () ->
      ignore (step ~thread:init (Syscall.Mprotect { va = small_pages; perm = Pte_bits.perm_ro })));
  let unit = function Syscall.Runit -> Some () | _ -> None in
  (* an IOMMU domain with a live DMA window, its interrupt routed
     through the shared endpoint *)
  let window =
    Syscall.Mmap { va = 0x5000_0000; count = 1; size = Page_state.S4k; perm = Pte_bits.perm_rw }
  in
  ignore (step ~thread:init window);
  expect "assign_device" unit (step ~thread:init (Syscall.Assign_device { device = 7 }));
  ignore (step ~thread:init (Syscall.Io_map { device = 7; iova = 0x1_0000; va = 0x5000_0000 }));
  ignore (step ~thread:init (Syscall.Register_irq { device = 7; slot = 0 }));
  ignore (step ~thread:w.peer recv);
  ignore (step ~thread:init (Syscall.Irq_fire { device = 7 }));
  ignore (step ~thread:init (Syscall.Io_unmap { device = 7; iova = 0x1_0000 }));
  (* container lifecycle: delegate quota, then revoke it wholesale *)
  let c =
    expect "new_container" ptr
      (step ~thread:init (Syscall.New_container { quota = 64; cpus = Atmo_util.Iset.empty }))
  in
  ignore (step ~thread:init (Syscall.Terminate_container { container = c }));
  (* driver-private buffers: exercises the cost model and the flight
     recorder, not the shadow map *)
  nvme ~clock:(Clock.create ()) ~reads:0;
  (w, smp)
