module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Proc_mgr = Atmo_pm.Proc_mgr
module Page_table = Atmo_pt.Page_table
module Phys_mem = Atmo_hw.Phys_mem
module Model = Atmo_devmodel.Model
module Nvme = Atmo_drivers.Nvme
module Report = Atmo_san.Report
module Runtime = Atmo_san.Runtime
module Lockcheck = Atmo_san.Lockcheck
module Incremental = Atmo_verif.Incremental
module Page_state = Atmo_pmem.Page_state
module Page_alloc = Atmo_pmem.Page_alloc

type mark = Page of int | Site of string

type body =
  | After_workload of (Scenario.pair -> mark)
  | On_verifier of (Kernel.t -> init:int -> mark)

type t = {
  name : string;
  help : string;
  body : body;
  rule : Report.rule;
  surgical : bool;
}

let step (w : Scenario.pair) = Scenario.locked w.kernel

let expect what want (r : Syscall.ret) =
  match want r with Some v -> v | None -> Fmt.failwith "plant %s -> %a" what Syscall.pp_ret r

let unit = function Syscall.Runit -> Some () | _ -> None
let ptr = function Syscall.Rptr p -> Some p | _ -> None

(* init maps one 4 KiB page at [va]; returns its frame. *)
let map_page (w : Scenario.pair) ~va =
  let mmap =
    Syscall.Mmap { va; count = 1; size = Page_state.S4k; perm = Atmo_hw.Pte_bits.perm_rw }
  in
  expect "mmap" (function Syscall.Rmapped [ f ] -> Some f | _ -> None) (step w ~thread:w.init mmap)

(* The memory and physical address of the leaf entry mapping [va] in
   init's address space. *)
let leaf_entry (w : Scenario.pair) ~va =
  let proc = Option.get (Kernel.proc_of_thread w.kernel ~thread:w.init) in
  let pt =
    (Atmo_pm.Perm_map.borrow w.kernel.Kernel.pm.Proc_mgr.proc_perms ~ptr:proc).Atmo_pm.Process.pt
  in
  match Page_table.find_leaf pt ~vaddr:va with
  | Ok (table, index, _) -> (Page_table.mem pt, Atmo_hw.Mmu.entry_addr ~table ~index)
  | Error e -> Fmt.failwith "plant: no leaf entry at 0x%x: %a" va Page_table.pp_error e

(* Park [peer] in a receive on the shared endpoint, draining any
   messages left over first, so init's next send finds a partner. *)
let park (w : Scenario.pair) =
  let rec go n =
    if n = 0 then failwith "plant: could not park the receiver"
    else
      match step w ~thread:w.peer Scenario.recv with
      | Syscall.Rblocked -> ()
      | Syscall.Rmsg _ -> go (n - 1)
      | r -> Fmt.failwith "plant: park recv -> %a" Syscall.pp_ret r
  in
  go 8

(* ------------------------------------------------------------------ *)
(* Memory and page tables *)

let double_free (w : Scenario.pair) =
  let alloc = w.kernel.Kernel.alloc in
  match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.Kernel with
  | None -> failwith "plant: allocation failed"
  | Some addr ->
    Page_alloc.free_kernel_page alloc ~addr;
    (* the allocator's own guard raises on the second free, but the
       sanitizer must already have classified the request *)
    (try Page_alloc.free_kernel_page alloc ~addr with Invalid_argument _ -> ());
    Page addr

let unlocked (w : Scenario.pair) =
  (* a bare Kernel.step: kernel state mutates inside a syscall with the
     big lock free *)
  ignore
    (Kernel.step w.kernel ~thread:w.init
       (Syscall.Mmap
          { va = 0x6000_0000; count = 1; size = Page_state.S4k; perm = Atmo_hw.Pte_bits.perm_rw }));
  Site "pm.cntr_perms.update"

let bad_pte (w : Scenario.pair) =
  let frame = map_page w ~va:0x7000_0000 in
  let mem, slot = leaf_entry w ~va:0x7000_0000 in
  (* set a bit the kernel never programs (bit 9, "available") *)
  Phys_mem.write_u64 mem ~addr:slot (Int64.logor (Phys_mem.read_u64 mem ~addr:slot) 0x200L);
  ignore (Runtime.wf_check w.kernel);
  Page frame

let stale_tlb (w : Scenario.pair) =
  let frame = map_page w ~va:0x7800_0000 in
  (* warm the TLB with the translation... *)
  ignore (Kernel.resolve_user w.kernel ~thread:w.init ~vaddr:0x7800_0000);
  (* ...then rip the leaf out from under it with no shootdown: the
     missing-invlpg bug class the coherence lint exists to catch *)
  let mem, slot = leaf_entry w ~va:0x7800_0000 in
  Phys_mem.write_u64 mem ~addr:slot 0L;
  ignore (Atmo_san.Tlb_lint.lint w.kernel);
  Page frame

(* ------------------------------------------------------------------ *)
(* IPC *)

let fastpath_skip (w : Scenario.pair) =
  let pm = w.kernel.Kernel.pm in
  park w;
  (* put the sender alone on the CPU: with the receiver parked, init is
     the only schedulable thread left *)
  if Proc_mgr.current pm = None then ignore (Proc_mgr.dequeue_next pm);
  if
    Proc_mgr.current pm <> Some w.init
    || not (Atmo_pm.Sched_queue.is_empty (Proc_mgr.cur_queue pm))
  then failwith "plant: fastpath guard could not be established";
  (* one rendezvous through the fastpath with the requeue skipped: the
     preempted sender ends up Runnable but queued nowhere *)
  Kernel.set_fastpath_skip_plant true;
  Fun.protect
    ~finally:(fun () -> Kernel.set_fastpath_skip_plant false)
    (fun () -> expect "send" unit (step w ~thread:w.init (Scenario.send 0xdead)));
  ignore (Runtime.wf_check w.kernel);
  Page w.init

let span_leak (w : Scenario.pair) =
  (* force init's rendezvous onto the slowpath and make it drop the
     span's end: the open-span stack is left unbalanced at quiescence *)
  park w;
  Kernel.set_fastpath false;
  Kernel.set_span_leak_plant true;
  Fun.protect
    ~finally:(fun () ->
      Kernel.set_span_leak_plant false;
      Kernel.set_fastpath true)
    (fun () -> expect "send" unit (step w ~thread:w.init (Scenario.send 0xbeef)));
  ignore (Atmo_san.Span_lint.lint w.kernel);
  Site "span_lint.open"

(* ------------------------------------------------------------------ *)
(* The fine-grained lock regime: the cross-CPU failure classes the
   broken-up big lock introduces *)

let lock_order (_ : Scenario.pair) =
  (* an endpoint shard is rank 1 and a CPU queue rank 0, so taking the
     queue lock second inverts the order every kernel entry follows
     (cpu-queue < endpoint < map-writer) *)
  let ep = Lockcheck.Endpoint_shard 3 and q = Lockcheck.Cpu_queue 0 in
  Lockcheck.acquire_class ~site:"plant.lock_order" ~cpu:0 ep;
  Lockcheck.acquire_class ~site:"plant.lock_order" ~cpu:0 q;
  Lockcheck.release_class ~cpu:0 q;
  Lockcheck.release_class ~cpu:0 ep;
  Site "plant.lock_order"

let queue_corrupt (w : Scenario.pair) =
  let pm = w.kernel.Kernel.pm in
  if Proc_mgr.sched_cpus pm < 2 then failwith "plant: queue-corrupt needs >= 2 run queues";
  (* a fresh Runnable thread sits on its home queue (cpu 0), and a buggy
     wakeup path enqueues it on cpu 1 as well; each deque stays
     individually well-formed, only the global census sees it *)
  let t3 = expect "new_thread" ptr (step w ~thread:w.init Syscall.New_thread) in
  Atmo_pm.Sched_queue.push_back (Proc_mgr.queue pm ~cpu:1) t3;
  ignore (Runtime.wf_check w.kernel);
  Page t3

let lost_steal (w : Scenario.pair) =
  let pm = w.kernel.Kernel.pm in
  if Proc_mgr.sched_cpus pm < 2 then failwith "plant: lost-steal needs >= 2 run queues";
  if Proc_mgr.current_of pm ~cpu:1 <> None then failwith "plant: lost-steal needs cpu 1 idle";
  (* a Runnable thread homed on cpu 0, alone in a child process, and
     nothing else to run *)
  let proc = expect "new_process" ptr (step w ~thread:w.init Syscall.New_process) in
  let t3 =
    match Proc_mgr.new_thread pm ~proc with
    | Ok t -> t
    | Error e -> Fmt.failwith "plant new_thread: %a" Atmo_util.Errno.pp e
  in
  (* idle cpu 1 steals it: the ledger records (thief, victim, thread) *)
  Proc_mgr.set_cpu pm 1;
  let stole = Proc_mgr.dequeue_next pm in
  Proc_mgr.set_cpu pm 0;
  if stole <> Some t3 then failwith "plant: lost-steal: the steal did not happen";
  if not (List.exists (fun (_, _, th) -> th = t3) (Proc_mgr.steal_ledger pm)) then
    failwith "plant: lost-steal: the steal left no ledger entry";
  (* terminating its process races the in-flight steal: the buggy
     teardown skips only the ledger scrub, leaving the thief a dead
     reference *)
  Proc_mgr.set_lost_steal_plant pm true;
  Fun.protect
    ~finally:(fun () -> Proc_mgr.set_lost_steal_plant pm false)
    (fun () ->
      expect "terminate_process" unit (step w ~thread:w.init (Syscall.Terminate_process { proc })));
  ignore (Runtime.wf_check w.kernel);
  Page t3

(* ------------------------------------------------------------------ *)
(* Drivers: each must trip exactly its Driver_lint rule *)

let driver_lint (w : Scenario.pair) name =
  ignore (Atmo_san.Driver_lint.lint w.kernel);
  Site ("driver_lint." ^ name)

let undefined_state w =
  (match Model.find ~device:7 with
   | Some m -> Model.force_undefined m ~why:"planted by atmo san"
   | None -> failwith "plant: no device model registered for device 7");
  driver_lint w "nvme7"

let dma_escape w =
  (* an IOMMU window left mapped over the device's escape target: the
     stray write reaches memory, and the ledger records it unblocked *)
  let m = Model.register ~name:"rogue21" ~device:21 ~initial:Model.Active in
  Model.note_escape m ~blocked:false;
  driver_lint w "rogue21"

let irq_storm w =
  (* a driver that disabled its storm auto-mask and stopped acking *)
  let m = Model.register ~name:"storm22" ~device:22 ~initial:Model.Active in
  Model.set_auto_mask m false;
  for _ = 1 to Model.storm_threshold + 8 do
    Model.raise_irq m
  done;
  driver_lint w "storm22"

let lost_completion w =
  let dev =
    Nvme.create ~clock:(Atmo_hw.Clock.create ()) ~cost:Atmo_sim.Cost.default ~capacity_blocks:16
  in
  Nvme.set_device dev 23;
  Nvme.set_drop_completion_plant dev true;
  (match Nvme.submit_read dev ~lba:1 with
   | Ok _ -> ()
   | Error e -> Fmt.failwith "plant submit: %s" (Atmo_devmodel.Fault.error_to_string e));
  ignore (Nvme.wait_all dev);
  driver_lint w "nvme23"

(* ------------------------------------------------------------------ *)
(* Liveness and proofs *)

let stalled_cpu (w : Scenario.pair) =
  (* under an armed SLO monitor both CPUs beat (spans close, heartbeat
     counters advance) through several rollup windows, then CPU 1 goes
     quiet while CPU 0 keeps working; no kernel state is touched *)
  let module Span = Atmo_obs.Span in
  let module Monitor = Atmo_obs.Monitor in
  let window = 2_000 in
  let vnow = ref 0 in
  let m = Monitor.arm ~windows:16 ~window_cycles:window ~now:0 ~specs:[] () in
  let beat cpu =
    Atmo_obs.Sink.set_cpu cpu;
    let sid = Span.begin_ ~ts:!vnow Span.User in
    vnow := !vnow + 250;
    Span.end_ ~ts:!vnow sid
  in
  while !vnow < 6 * window do
    beat 0;
    beat 1
  done;
  while !vnow < 12 * window do
    beat 0
  done;
  Monitor.finish m ~now:!vnow;
  ignore (Atmo_san.Watchdog_lint.lint w.kernel);
  Monitor.disarm ();
  Site "watchdog.cpu1"

let stale_proof k ~init =
  (* drop the tracker's dirty marks while a syscall mutates the kernel:
     the always-on intrinsic counters keep advancing *)
  Incremental.set_miss_plant true;
  Fun.protect
    ~finally:(fun () -> Incremental.set_miss_plant false)
    (fun () -> ignore (Kernel.step k ~thread:init Syscall.Yield));
  ignore (Atmo_san.Proof_lint.lint k);
  Site "proof_lint"

let table =
  let plant name help body rule ~surgical =
    { name; help; body = After_workload body; rule; surgical }
  in
  [
    plant "double-free" "a kernel page freed twice" double_free Report.Double_free ~surgical:false;
    plant "unlocked" "mutation without the big lock" unlocked Report.Unlocked_mutation
      ~surgical:false;
    plant "bad-pte" "reserved bits in a leaf entry" bad_pte Report.Malformed_pte ~surgical:true;
    plant "stale-tlb" "a PTE torn out without a TLB shootdown" stale_tlb Report.Tlb_stale
      ~surgical:false;
    plant "fastpath-skip" "the IPC fastpath forgets to requeue the preempted sender"
      fastpath_skip Report.Sched_incoherent ~surgical:true;
    plant "span-leak" "the IPC slowpath opens its rendezvous span and never closes it" span_leak
      Report.Span_leak ~surgical:false;
    plant "lock-order"
      "a kernel path acquires a cpu-queue lock while holding an endpoint shard, inverting the \
       hierarchy"
      lock_order Report.Lock_order ~surgical:false;
    plant "queue-corrupt" "a thread enqueued on two CPUs' run queues at once" queue_corrupt
      Report.Queue_corrupt ~surgical:true;
    plant "lost-steal"
      "a terminate races an in-flight work steal, leaving the thief a dead thread reference"
      lost_steal Report.Lost_steal ~surgical:true;
    plant "undefined-state" "a device model pushed into the state the driver theorems forbid"
      undefined_state Report.Drv_undefined_state ~surgical:true;
    plant "dma-escape" "device DMA outside its IOMMU window reaches memory" dma_escape
      Report.Drv_dma_escape ~surgical:true;
    plant "irq-storm" "auto-mask disabled, vector never acked" irq_storm Report.Drv_irq_storm
      ~surgical:true;
    plant "lost-completion" "the NVMe driver silently drops a completion" lost_completion
      Report.Drv_lost_completion ~surgical:true;
    plant "stalled-cpu" "a CPU silently stops scheduling under an armed SLO monitor" stalled_cpu
      Report.Watchdog_silent ~surgical:true;
    {
      name = "stale-proof";
      help = "a syscall mutated the kernel behind the dirty tracker";
      body = On_verifier stale_proof;
      rule = Report.Stale_proof;
      surgical = true;
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) table

(* ------------------------------------------------------------------ *)
(* Drivers *)

type verdict = Detected of Report.t | Collateral of int | Missed
type outcome = Clean | Unclean | Planted of verdict

let names mark (r : Report.t) =
  match mark with Page p -> r.Report.page = p | Site s -> r.Report.site = s

let classify e mark =
  let hit (r : Report.t) = r.Report.rule = e.rule && names mark r in
  let hits, others = List.partition hit (Report.reports ()) in
  match hits with
  | [] -> Missed
  | _ when e.surgical && others <> [] -> Collateral (List.length others)
  | r :: _ -> Detected r

type san = {
  world : Scenario.pair;
  smp : Atmo_sim.Smp.stats;
  accesses : int;
  absorbed : int;
  sweep_accesses : int;
  structural : int;
  outcome : outcome;
}

let san ~seed ~iterations plant =
  let after_workload e =
    match e.body with
    | After_workload body -> body
    | On_verifier _ -> invalid_arg ("Plants.san: " ^ e.name ^ " is planted on the verifier")
  in
  let plant = Option.map (fun e -> (e, after_workload e)) plant in
  Atmo_obs.Metrics.reset ();
  Model.reset ();
  Fun.protect ~finally:Model.reset (fun () ->
      (* a flight recorder, so reports carry the event trail leading up
         to them *)
      Atmo_obs.Span.with_recorder ~cpus:2 ~slots:256 (fun _ ->
          Runtime.arm ~poison:true ~lockcheck:true ~attribution:true ();
          Fun.protect ~finally:Runtime.disarm (fun () ->
              let k, init = Scenario.boot () in
              Runtime.attach k;
              let world, smp = Scenario.sanitized k ~init ~iterations in
              let accesses = Atmo_san.Memsan.checked () in
              (* every fault of the sweep must be absorbed as a typed
                 error, and every ledger must balance at quiescence:
                 Driver_lint runs inside [full_check] *)
              let absorbed = Device_env.hostile_sweep ~seed ~steps:200 in
              let sweep_accesses = Atmo_san.Memsan.checked () - accesses in
              let structural = Runtime.full_check k in
              let outcome =
                match plant with
                | _ when Report.count () <> 0 -> Unclean
                | None -> Clean
                | Some (e, body) -> Planted (classify e (body world))
              in
              { world; smp; accesses; absorbed; sweep_accesses; structural; outcome })))

type verify = { kernel : Kernel.t; reports : Report.t list; verdict : verdict }

let verify ~scale ~threads e =
  let body =
    match e.body with
    | On_verifier body -> body
    | After_workload _ -> invalid_arg ("Plants.verify: " ^ e.name ^ " is planted after a workload")
  in
  match Atmo_verif.Catalog.build_world ~scale with
  | Error msg -> Error msg
  | Ok (k, init) ->
    Incremental.arm ();
    Fun.protect ~finally:Incremental.disarm (fun () ->
        ignore (Incremental.run ~threads (Atmo_verif.Catalog.suite_for ~scale k));
        Report.clear ();
        let verdict = classify e (body k ~init) in
        Ok { kernel = k; reports = Report.reports (); verdict })
