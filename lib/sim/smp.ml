open Atmo_util
module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Proc_mgr = Atmo_pm.Proc_mgr
module Lockcheck = Atmo_san.Lockcheck

type regime = Big_lock | Fine_grained

type program = {
  thread : int;
  think_cycles : int;
  call_of : int -> Syscall.t;
}

type stats = {
  cpus : int;
  regime : regime;
  syscalls_executed : int;
  wall_cycles : int;
  lock_wait_cycles : int;
  lock_wait_by_cpu : int array;
  busy_cycles : int array;
  steals : int;
  placement : (int * int) list;
}

let syscall_cycles (cost : Cost.t) = function
  | Syscall.Send _ | Syscall.Recv _ | Syscall.Send_nb _ | Syscall.Recv_nb _
  | Syscall.Recv_reject _ ->
    Cost.atmo_call_reply cost
  | Syscall.Mmap { count; _ } -> cost.Cost.map_page * max 1 count
  | Syscall.Munmap { count; _ } -> (cost.Cost.map_page / 2) * max 1 count
  | Syscall.Io_map _ | Syscall.Io_unmap _ -> cost.Cost.map_page
  | Syscall.Yield -> cost.Cost.syscall_entry_exit + (2 * cost.Cost.ipc_oneway / 3)
  | Syscall.Irq_fire _ -> cost.Cost.ipc_oneway
  | Syscall.Mprotect _ | Syscall.New_container _ | Syscall.New_process
  | Syscall.New_thread | Syscall.New_endpoint _ | Syscall.Close_endpoint _
  | Syscall.Terminate_container _ | Syscall.Terminate_process _
  | Syscall.Assign_device _ | Syscall.Register_irq _ ->
    cost.Cost.syscall_entry_exit + 900

(* CPUs a thread may run on: its container's reservation intersected
   with the machine; an empty reservation means "any CPU". *)
let allowed_cpus k ~thread ~cpus =
  match Kernel.container_of_thread k ~thread with
  | None -> Iset.empty
  | Some cntr ->
    let c = Atmo_pm.Perm_map.borrow k.Kernel.pm.Proc_mgr.cntr_perms ~ptr:cntr in
    let machine = Iset.of_range ~lo:0 ~hi:cpus in
    let reserved = c.Atmo_pm.Container.cpus in
    if Iset.is_empty reserved then machine else Iset.inter reserved machine

(* The lock footprint of one kernel entry under the fine-grained
   regime, in hierarchy order (cpu-queue < endpoint < map-writer):

   - every entry touches the caller's CPU run queue;
   - IPC serializes only on its endpoint's shard — rendezvous on
     different endpoints proceed in parallel;
   - interrupt delivery serializes on the shard of its route;
   - address-space and lifecycle calls take the exclusive permission-
     map writer lock; a yield takes no lock beyond its queue. *)
let footprint k ~thread ~cpu call =
  let shards = Atmo_pm.Kconfig.endpoint_lock_shards in
  let shard_of_slot slot =
    match Atmo_pm.Perm_map.borrow_opt k.Kernel.pm.Proc_mgr.thrd_perms ~ptr:thread with
    | None -> 0
    | Some th ->
      (match Atmo_pm.Thread.slot th slot with
       | Some ep -> ep / Atmo_hw.Phys_mem.page_size mod shards
       | None -> 0)
  in
  match call with
  | Syscall.Send { slot; _ }
  | Syscall.Recv { slot }
  | Syscall.Send_nb { slot; _ }
  | Syscall.Recv_nb { slot }
  | Syscall.Recv_reject { slot } ->
    [ Lockcheck.Cpu_queue cpu; Lockcheck.Endpoint_shard (shard_of_slot slot) ]
  | Syscall.Irq_fire { device } ->
    [ Lockcheck.Cpu_queue cpu; Lockcheck.Endpoint_shard (device mod shards) ]
  | Syscall.Yield -> [ Lockcheck.Cpu_queue cpu ]
  | Syscall.Mmap _ | Syscall.Munmap _ | Syscall.Mprotect _ | Syscall.Io_map _
  | Syscall.Io_unmap _ | Syscall.New_container _ | Syscall.New_process
  | Syscall.New_thread | Syscall.New_endpoint _ | Syscall.Close_endpoint _
  | Syscall.Terminate_container _ | Syscall.Terminate_process _
  | Syscall.Assign_device _ | Syscall.Register_irq _ ->
    [ Lockcheck.Cpu_queue cpu; Lockcheck.Map_writer ]

let steal_metric = Atmo_obs.Metrics.counter "sched/steal"

(* Traced-path metrics are looked up once and fed through cached
   handles: a registry probe (string concat + hash) per kernel entry
   would dominate the zero-alloc emit path it sits next to. *)
let lock_wait_hist = lazy (Atmo_obs.Metrics.histogram "smp/lock_wait")

let syscall_lat : Atmo_obs.Metrics.Histogram.t option array = Array.make 32 None

let syscall_lat_hist call =
  let n = Syscall.number call in
  match syscall_lat.(n) with
  | Some h -> h
  | None ->
    let h = Atmo_obs.Metrics.histogram ("lat/syscall/" ^ Syscall.name call) in
    syscall_lat.(n) <- Some h;
    h

let run ?(regime = Big_lock) ?(steal_seed = 42) ?observe k ~cost ~cpus ~programs
    ~iterations =
  if cpus <= 0 then Error "Smp.run: cpus <= 0"
  else begin
    (* least-loaded placement over each thread's allowed CPUs *)
    let load = Array.make cpus 0 in
    let placement = ref [] in
    let place_err = ref None in
    List.iter
      (fun p ->
        let allowed = allowed_cpus k ~thread:p.thread ~cpus in
        if Iset.is_empty allowed then
          (if !place_err = None then
             place_err :=
               Some (Printf.sprintf "thread 0x%x has no allowed CPU" p.thread))
        else begin
          let best =
            Iset.fold
              (fun c acc ->
                match acc with
                | None -> Some c
                | Some b -> if load.(c) < load.(b) then Some c else acc)
              allowed None
          in
          let cpu = Option.get best in
          load.(cpu) <- load.(cpu) + 1;
          placement := (p.thread, cpu) :: !placement
        end)
      programs;
    match !place_err with
    | Some msg -> Error msg
    | None ->
      let placement = List.rev !placement in
      let cpu_of = Hashtbl.create 8 in
      List.iter (fun (th, c) -> Hashtbl.replace cpu_of th c) placement;
      (* The scheduler topology follows the machine: one run queue per
         CPU, each program's thread homed where it was placed.  Both
         regimes configure it identically — the regime changes the
         cycle model only, never a kernel decision, which is what makes
         the on/off oracle's bit-identity argument go through.  The
         double [set_sched_cpus] is deliberate: the first resize parks
         queued threads by their stale homes, setting homes and
         resizing again redistributes them deterministically. *)
      let pm = k.Kernel.pm in
      Proc_mgr.set_sched_cpus pm cpus;
      List.iter (fun (th, c) -> Proc_mgr.set_home pm ~thread:th ~cpu:c) placement;
      Proc_mgr.set_sched_cpus pm cpus;
      Proc_mgr.set_steal_seed pm steal_seed;
      let steals0 = Atmo_obs.Metrics.Counter.value steal_metric in
      (* per-CPU starvation accounting: the counter family is created
         up front for every CPU so a [Metrics.dump] is deterministic
         under any interleaving (zero-valued entries included, names
         sorted) *)
      let lw_ctrs =
        Array.init cpus (fun c ->
            Atmo_obs.Metrics.counter (Printf.sprintf "smp/lock_wait/%d" c))
      in
      (* event simulation: per-thread and per-CPU readiness plus the
         lock model.  Big_lock: one FIFO lock serializes kernel time
         machine-wide.  Fine_grained: each kernel entry waits only for
         its footprint — its CPU's queue lock, its endpoint's shard,
         the map-writer lock for address-space writers. *)
      let cpu_free = Array.make cpus 0 in
      let busy = Array.make cpus 0 in
      let lock_free = ref 0 in
      let cpuq_free = Array.make cpus 0 in
      let ep_free = Array.make Atmo_pm.Kconfig.endpoint_lock_shards 0 in
      let mapw_free = ref 0 in
      let lock_wait = ref 0 in
      let lock_wait_cpu = Array.make cpus 0 in
      let executed = ref 0 in
      let wall = ref 0 in
      (* When tracing, events recorded during kernel entries are stamped
         with the simulated lock-grant time and attributed to the
         entering CPU; the simulator owns the timeline, the kernel code
         stays clock-free. *)
      let tracing = Atmo_obs.Sink.tracing () in
      let sim_now = ref 0 in
      if tracing then Atmo_obs.Sink.set_clock (fun () -> !sim_now);
      let thread_ready = Hashtbl.create 8 in
      List.iter (fun p -> Hashtbl.replace thread_ready p.thread 0) programs;
      let free_of = function
        | Lockcheck.Cpu_queue c -> cpuq_free.(c)
        | Lockcheck.Endpoint_shard s -> ep_free.(s)
        | Lockcheck.Map_writer -> !mapw_free
      in
      let set_free kl v =
        match kl with
        | Lockcheck.Cpu_queue c -> cpuq_free.(c) <- v
        | Lockcheck.Endpoint_shard s -> ep_free.(s) <- v
        | Lockcheck.Map_writer -> mapw_free := v
      in
      for i = 0 to iterations - 1 do
        List.iter
          (fun p ->
            let cpu = Hashtbl.find cpu_of p.thread in
            let ready = Hashtbl.find thread_ready p.thread in
            (* user-mode think occupies the CPU *)
            let think_start = max ready cpu_free.(cpu) in
            let lock_request = think_start + p.think_cycles in
            let call = p.call_of i in
            let kcycles = syscall_cycles cost call in
            let fp =
              match regime with
              | Big_lock -> []
              | Fine_grained -> footprint k ~thread:p.thread ~cpu call
            in
            let grant =
              match regime with
              | Big_lock -> max lock_request !lock_free
              | Fine_grained ->
                List.fold_left (fun acc kl -> max acc (free_of kl)) lock_request fp
            in
            let waited = grant - lock_request in
            lock_wait := !lock_wait + waited;
            lock_wait_cpu.(cpu) <- lock_wait_cpu.(cpu) + waited;
            Atmo_obs.Metrics.Counter.incr ~by:waited lw_ctrs.(cpu);
            let span =
              if tracing then begin
                sim_now := grant;
                Atmo_obs.Sink.set_cpu cpu;
                (* spans carry the cycle-model interval boundaries: the
                   simulator owns the timeline, so think time, lock wait
                   and the kernel entry each get their exact extent and
                   are charged to the caller's container/process/thread *)
                let container = Kernel.container_of_thread k ~thread:p.thread in
                let proc = Kernel.proc_of_thread k ~thread:p.thread in
                let uspan =
                  Atmo_obs.Span.begin_ ~ts:think_start ?container ?proc
                    ~thread:p.thread Atmo_obs.Span.User
                in
                Atmo_obs.Span.end_ ~ts:lock_request uspan;
                if grant > lock_request then begin
                  let w =
                    Atmo_obs.Span.begin_ ~ts:lock_request ?container ?proc
                      ~thread:p.thread Atmo_obs.Span.Lock_wait
                  in
                  Atmo_obs.Span.end_ ~ts:grant w
                end;
                Atmo_obs.Sink.emit_lock_acquire ~cpu_id:cpu
                  ~wait_cycles:(grant - lock_request) ();
                Atmo_obs.Metrics.Histogram.observe (Lazy.force lock_wait_hist)
                  (grant - lock_request);
                Atmo_obs.Metrics.Histogram.observe (syscall_lat_hist call) kcycles;
                Atmo_obs.Span.begin_ ~ts:grant ?container ?proc ~thread:p.thread
                  (Atmo_obs.Span.Syscall (Syscall.number call))
              end
              else 0
            in
            (* the call really executes against the kernel, on the
               entering CPU, under the modelled lock regime (reported
               to the lock-discipline checker when atmo-san is armed) *)
            Proc_mgr.set_cpu pm cpu;
            let do_step () = Kernel.step k ~thread:p.thread call in
            let ret =
              if Lockcheck.armed () then
                match regime with
                | Big_lock -> Lockcheck.locked ~site:"smp.big_lock" ~cpu do_step
                | Fine_grained ->
                  Lockcheck.with_classes ~site:"smp.fine_grained" ~cpu fp do_step
              else do_step ()
            in
            (match observe with
             | Some f -> f ~cpu ~iter:i ~thread:p.thread ret
             | None -> ());
            incr executed;
            let finish = grant + kcycles in
            if span <> 0 then begin
              sim_now := finish;
              Atmo_obs.Span.end_ ~ts:finish span
            end;
            (match regime with
             | Big_lock -> lock_free := finish
             | Fine_grained -> List.iter (fun kl -> set_free kl finish) fp);
            (* kernel time also occupies the caller's CPU *)
            cpu_free.(cpu) <- finish;
            busy.(cpu) <- busy.(cpu) + p.think_cycles + kcycles;
            Hashtbl.replace thread_ready p.thread finish;
            if finish > !wall then wall := finish)
          programs
      done;
      Proc_mgr.set_cpu pm 0;
      Ok
        {
          cpus;
          regime;
          syscalls_executed = !executed;
          wall_cycles = !wall;
          lock_wait_cycles = !lock_wait;
          lock_wait_by_cpu = lock_wait_cpu;
          busy_cycles = busy;
          steals = Atmo_obs.Metrics.Counter.value steal_metric - steals0;
          placement;
        }
  end

let throughput s =
  if s.wall_cycles = 0 then 0.
  else float_of_int s.syscalls_executed /. float_of_int s.wall_cycles *. 2.2e9
