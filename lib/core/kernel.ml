open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
module Mmu = Atmo_hw.Mmu
module Iommu = Atmo_hw.Iommu
module Page_state = Atmo_pmem.Page_state
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Proc_mgr = Atmo_pm.Proc_mgr
module Sched_queue = Atmo_pm.Sched_queue
module Perm_map = Atmo_pm.Perm_map
module Container = Atmo_pm.Container
module Process = Atmo_pm.Process
module Thread = Atmo_pm.Thread
module Endpoint = Atmo_pm.Endpoint
module Message = Atmo_pm.Message
module Static_list = Atmo_pm.Static_list
module Kconfig = Atmo_pm.Kconfig
module Syscall = Atmo_spec.Syscall
module Obs = Atmo_obs.Sink
module Event = Atmo_obs.Event
module Span = Atmo_obs.Span

type device_info = {
  owner_proc : int;
  owner_container : int;
  io_pt : Page_table.t;
  irq_endpoint : int option;
  irq_pending : int;
}

type t = {
  mem : Phys_mem.t;
  alloc : Page_alloc.t;
  pm : Proc_mgr.t;
  iommu : Iommu.t;
  mutable devices : device_info Imap.t;
  mutable irq_backlog : int Imap.t;
      (* endpoint -> total pending interrupts across all devices routed
         to it; lets recv skip the device-table walk when nothing pends *)
}

type boot_params = {
  frames : int;
  reserved_frames : int;
  root_quota : int;
  cpus : Iset.t;
}

let default_boot =
  {
    frames = 4096;
    reserved_frames = 16;
    root_quota = 4000;
    cpus = Iset.of_range ~lo:0 ~hi:4;
  }

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let boot params =
  let mem = Phys_mem.create ~page_count:params.frames in
  let alloc = Page_alloc.create mem ~reserved_frames:params.reserved_frames in
  let* pm = Proc_mgr.create mem alloc ~root_quota:params.root_quota ~cpus:params.cpus in
  let t =
    { mem; alloc; pm; iommu = Iommu.create mem; devices = Imap.empty;
      irq_backlog = Imap.empty }
  in
  let* init_proc =
    Proc_mgr.new_process pm ~container:pm.Proc_mgr.root_container ~parent:None
  in
  let* init_thread = Proc_mgr.new_thread pm ~proc:init_proc in
  ignore (Proc_mgr.dequeue_next pm);
  Ok (t, init_thread)

(* Device-table changes on the mutation stream, for the incremental
   verifier: one event whenever [t.devices] or the per-endpoint IRQ
   backlog cache changes (the adjacent IOMMU attach/detach and io_pt
   teardown are page-table changes), after bumping the always-on
   [devices_id] counter. *)
type Mutation.event += Devices_changed

let devices_id = "kernel/devices"
let dev_muts = Mutation.counter Mutation.Devices devices_id

let note_dev () =
  if Mutation.tick dev_muts then Mutation.emit Mutation.Devices Devices_changed

(* Endpoint-freeing paths must clear stale interrupt routes; the sweep
   itself is defined with the interrupt machinery below. *)
let sweep_irqs_ref : (t -> unit) ref = ref (fun _ -> ())
let sweep_irqs_hook t = !sweep_irqs_ref t

(* ------------------------------------------------------------------ *)
(* Per-endpoint interrupt backlog                                      *)

(* Pending interrupts routed to [ep]: the cached total (invariants
   recompute it from the device table). *)
let irq_backlog_of t ~ep = Option.value ~default:0 (Imap.find_opt ep t.irq_backlog)

let irq_backlog_add t ~ep n =
  if n <> 0 then begin
    let v = irq_backlog_of t ~ep + n in
    t.irq_backlog <-
      (if v <= 0 then Imap.remove ep t.irq_backlog else Imap.add ep v t.irq_backlog);
    note_dev ()
  end

(* ------------------------------------------------------------------ *)
(* Common validation                                                   *)

let err e = Syscall.Rerr e

(* Every syscall starts here: the invoking thread must exist and must
   not be blocked inside the kernel (a blocked thread is not running
   user code, so it cannot trap). *)
let calling_thread t ~thread =
  match Perm_map.borrow_opt t.pm.Proc_mgr.thrd_perms ~ptr:thread with
  | None -> Error Errno.Esrch
  | Some th ->
    (match th.Thread.state with
     | Thread.Blocked_send _ | Thread.Blocked_recv _ -> Error Errno.Eperm
     | Thread.Running | Thread.Runnable -> Ok th)

let proc_of_thread t ~thread =
  Option.map
    (fun th -> th.Thread.owner_proc)
    (Perm_map.borrow_opt t.pm.Proc_mgr.thrd_perms ~ptr:thread)

let container_of_thread t ~thread =
  match proc_of_thread t ~thread with
  | None -> None
  | Some proc ->
    Option.map
      (fun p -> p.Process.owner_container)
      (Perm_map.borrow_opt t.pm.Proc_mgr.proc_perms ~ptr:proc)

let thread_alive t ~thread = Perm_map.mem t.pm.Proc_mgr.thrd_perms ~ptr:thread

let take_delivered t ~thread =
  match Perm_map.borrow_opt t.pm.Proc_mgr.thrd_perms ~ptr:thread with
  | None -> None
  | Some th -> th.Thread.msg_buf

let resolve_user t ~thread ~vaddr =
  match proc_of_thread t ~thread with
  | None -> None
  | Some proc ->
    let p = Perm_map.borrow t.pm.Proc_mgr.proc_perms ~ptr:proc in
    Page_table.resolve p.Process.pt ~vaddr

(* ------------------------------------------------------------------ *)
(* Memory system calls                                                 *)

let range_ok va count size =
  let bytes = Page_state.bytes_per size in
  count >= 1 && count <= 512
  && va land (bytes - 1) = 0
  && Mmu.canonical va
  && Mmu.canonical (va + (count * bytes) - 1)
  && (va >= 0) = (va + (count * bytes) - 1 >= 0)

let alloc_block t (size : Page_state.size) =
  match size with
  | Page_state.S4k -> Page_alloc.alloc_4k t.alloc ~purpose:Page_alloc.User
  | Page_state.S2m -> Page_alloc.alloc_2m t.alloc ~purpose:Page_alloc.User
  | Page_state.S1g -> Page_alloc.alloc_1g t.alloc ~purpose:Page_alloc.User

let errno_of_map = function Page_table.Oom -> Errno.Enomem | _ -> Errno.Einval

(* Unmap the pages at [vaddrs], in that order, and drop each frame's
   reference; or, when a leaf cannot be found, unmap none. *)
let unmap_pages t pt vaddrs =
  Page_table.unmap_all pt ~vaddrs (fun e ->
      ignore (Page_alloc.dec_ref t.alloc ~addr:e.Page_table.frame))

(* Undo the pages a failing mmap mapped: their leaves were just written
   through the tables the walk reads. *)
let unmap_mapped t pt vaddrs =
  match unmap_pages t pt vaddrs with Ok () -> () | Error _ -> assert false

(* The one way the kernel maps pages.  Count the table pages that
   mappings of [size] at [vaddrs] need, charge them and [frames] up
   front, then run [install].  When it fails, having undone its own
   mappings, free the table pages it added and refund the charge, so a
   failing call leaves no trace.  A superpage block may come from
   merging free frames (or splitting a larger block), so superpage
   installs run inside [Page_alloc.atomically], which undoes those
   reshapes after the rollback: a failing call also leaves every free
   set as it found it. *)
let charged_map t pt ~charge ~uncharge ~size ~vaddrs ~frames install =
  match Page_table.missing_tables pt ~vaddrs:(List.map (fun v -> (v, size)) vaddrs) with
  | Error e -> Error (errno_of_map e)
  | Ok n_tables ->
    let need = frames + n_tables in
    let* () = charge ~frames:need in
    let keep = Page_table.page_closure pt in
    let run () =
      match install () with
      | Ok _ as ok -> ok
      | Error _ as e ->
        ignore (Page_table.prune_empty_tables pt ~keep);
        uncharge ~frames:need;
        e
    in
    let r =
      match size with
      | Page_state.S4k -> run ()
      | Page_state.S2m | Page_state.S1g -> Page_alloc.atomically t.alloc run
    in
    (* The dry run must have predicted the table growth exactly; anything
       else is a kernel bug. *)
    if Result.is_ok r then
      assert (Iset.cardinal (Page_table.page_closure pt) - Iset.cardinal keep = n_tables);
    r

let sys_mmap t ~thread ~va ~count ~size ~perm =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    if not (range_ok va count size) then err Errno.Einval
    else begin
      let proc = th.Thread.owner_proc in
      let p = Perm_map.borrow t.pm.Proc_mgr.proc_perms ~ptr:proc in
      let container = p.Process.owner_container in
      let pt = p.Process.pt in
      let bytes = Page_state.bytes_per size in
      let vaddrs = List.init count (fun i -> va + (i * bytes)) in
      (* Refuse overlapping requests up front so the loop cannot fail on
         Already_mapped after partial progress. *)
      if Page_table.overlaps pt ~vaddr:va ~bytes:(count * bytes) then err Errno.Eexist
      else begin
        (* [mapped] holds the pages mapped so far, newest first *)
        let rec go mapped frames = function
          | [] -> Ok (List.rev frames)
          | v :: rest ->
            (match alloc_block t size with
             | None ->
               unmap_mapped t pt mapped;
               Error Errno.Enomem
             | Some frame ->
               (match Page_table.map pt ~size ~vaddr:v ~frame ~perm with
                | Ok () -> go (v :: mapped) (frame :: frames) rest
                | Error e ->
                  ignore (Page_alloc.dec_ref t.alloc ~addr:frame);
                  unmap_mapped t pt mapped;
                  Error (errno_of_map e)))
        in
        match
          charged_map t pt ~charge:(Proc_mgr.charge t.pm ~container)
            ~uncharge:(Proc_mgr.uncharge t.pm ~container) ~size ~vaddrs
            ~frames:(count * Page_state.frames_per size)
            (fun () -> go [] [] vaddrs)
        with
        | Error e -> err e
        | Ok frames -> Syscall.Rmapped frames
      end
    end

let sys_munmap t ~thread ~va ~count ~size =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    if not (range_ok va count size) then err Errno.Einval
    else begin
      let proc = th.Thread.owner_proc in
      let p = Perm_map.borrow t.pm.Proc_mgr.proc_perms ~ptr:proc in
      let container = p.Process.owner_container in
      let pt = p.Process.pt in
      let bytes = Page_state.bytes_per size in
      let vaddrs = List.init count (fun i -> va + (i * bytes)) in
      let space = Page_table.address_space pt in
      (* Validate the whole range first: each base must carry a mapping
         of exactly the requested size.  The unmap itself finds every
         leaf before it clears one, so a table past the end of memory
         fails the call with nothing changed. *)
      let valid =
        List.for_all
          (fun v ->
            match Imap.find_opt v space with
            | Some e -> Page_state.equal_size e.Page_table.size size
            | None -> false)
          vaddrs
      in
      if not valid then err Errno.Einval
      else
        match unmap_pages t pt vaddrs with
        | Error _ -> err Errno.Einval
        | Ok () ->
          Proc_mgr.uncharge t.pm ~container ~frames:(count * Page_state.frames_per size);
          Syscall.Runit
    end

let sys_mprotect t ~thread ~va ~perm =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    let proc = th.Thread.owner_proc in
    let p = Perm_map.borrow t.pm.Proc_mgr.proc_perms ~ptr:proc in
    (match Page_table.update_perm p.Process.pt ~vaddr:va ~perm with
     | Ok () -> Syscall.Runit
     | Error _ -> err Errno.Einval)

(* ------------------------------------------------------------------ *)
(* Lifecycle system calls                                              *)

let ret_of_ptr = function Ok p -> Syscall.Rptr p | Error e -> err e
let ret_of_unit = function Ok () -> Syscall.Runit | Error e -> err e

let sys_new_container t ~thread ~quota ~cpus =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok _ ->
    let parent = Option.get (container_of_thread t ~thread) in
    ret_of_ptr (Proc_mgr.new_container t.pm ~parent ~quota ~cpus)

let sys_new_process t ~thread =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    let proc = th.Thread.owner_proc in
    let container = Option.get (container_of_thread t ~thread) in
    ret_of_ptr (Proc_mgr.new_process t.pm ~container ~parent:(Some proc))

let sys_new_thread t ~thread =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th -> ret_of_ptr (Proc_mgr.new_thread t.pm ~proc:th.Thread.owner_proc)

let sys_new_endpoint t ~thread ~slot =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok _ -> ret_of_ptr (Proc_mgr.new_endpoint t.pm ~thread ~slot)

let sys_close_endpoint t ~thread ~slot =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok _ ->
    let r = ret_of_unit (Proc_mgr.close_endpoint_slot t.pm ~thread ~slot) in
    sweep_irqs_hook t;
    r

(* ------------------------------------------------------------------ *)
(* IPC                                                                 *)

(* A rendezvous (a parked partner exists on the endpoint) is a direct
   switch: the woken partner joins the run-queue tail and, when the
   caller holds the CPU, the caller is preempted and the next runnable
   thread — the partner, whenever the queue was empty — takes over.

   The transition is implemented twice.  The generic path delivers via
   [deliver] and goes through the scheduler (enqueue / preempt /
   dequeue: nine permission-map operations per send).  The fastpath
   recognises the common case up front — fastpath enabled, scalars-only
   message, caller on the CPU, empty run queue — and performs the whole
   rendezvous in one fused pass: [deliver]'s grant machinery is skipped
   (the guard proves it vacuous) and each thread record is written
   exactly once (message and scheduling state together), leaving three
   map operations past the capability decode where the generic path
   spends seven.  Both paths MUST leave the kernel bit-identical; the
   randomized oracle in [test_fastpath] and the sanitizer's
   scheduler-coherence lint enforce this. *)

let fastpath_on = ref true
let set_fastpath b = fastpath_on := b

(* atmo-san plant: drop the preempted caller on the floor instead of
   requeueing it, so a Runnable thread is queued nowhere — the
   sched-incoherent lint must notice. *)
let fastpath_skip_plant = ref false
let set_fastpath_skip_plant b = fastpath_skip_plant := b

(* atmo-san plant: open the rendezvous span on the IPC slowpath and
   never close it — the span-balance lint must notice. *)
let span_leak_plant = ref false
let set_span_leak_plant b = span_leak_plant := b

let ipc_fastpath_ctr = Atmo_obs.Metrics.counter "ipc/fastpath"
let ipc_slowpath_ctr = Atmo_obs.Metrics.counter "ipc/slowpath"

(* May the fused fastpath take this rendezvous?  Scalars only (so the
   grant machinery is provably vacuous), well-formed (so [deliver]
   could not have failed), caller on the CPU with an empty run queue
   (so the direct switch is exactly what the scheduler would pick). *)
let fastpath_ok t ~caller ~(msg : Message.t) =
  !fastpath_on
  && msg.Message.page = None
  && msg.Message.endpoint = None
  && Message.wf msg
  && Proc_mgr.current t.pm = Some caller
  && Sched_queue.is_empty (Proc_mgr.cur_queue t.pm)

(* The generic rendezvous switch: the woken partner goes through the
   scheduler like any other wakeup. *)
let rendezvous_slow t ~partner ~caller =
  let sid = Span.begin_ Span.Ipc_rendezvous in
  let pm = t.pm in
  Proc_mgr.enqueue_runnable pm ~thread:partner;
  (match Proc_mgr.cpu_of_current pm ~thread:caller with
   | Some cpu ->
     Proc_mgr.preempt_on pm ~cpu;
     ignore (Proc_mgr.dequeue_next_on pm ~cpu)
   | None -> ());
  Atmo_obs.Metrics.Counter.incr ipc_slowpath_ctr;
  if sid <> 0 && not !span_leak_plant then Span.end_ sid

(* The fused fastpath tail: write both thread records once, hand the
   CPU to the partner and requeue the caller.  [partner_up]/[caller_up]
   carry the message-buffer effect of the specific rendezvous so the
   record copy happens exactly once per thread. *)
let rendezvous_fast t ~ep ~sender ~receiver ~caller ~partner ~partner_up ~caller_up =
  let sid = Span.begin_ Span.Ipc_rendezvous in
  let pm = t.pm in
  Perm_map.update pm.Proc_mgr.thrd_perms ~ptr:partner (fun th ->
      { (partner_up th) with Thread.state = Thread.Running });
  Perm_map.update pm.Proc_mgr.thrd_perms ~ptr:caller (fun th ->
      { (caller_up th) with Thread.state = Thread.Runnable });
  Proc_mgr.set_current pm (Some partner);
  if not !fastpath_skip_plant then Proc_mgr.push_ready pm ~thread:caller;
  Atmo_obs.Metrics.Counter.incr ipc_fastpath_ctr;
  Obs.emit_ep_fastpath ~ep ~sender ~receiver ();
  Span.end_ sid

(* A canonical 4 KiB page base: where a shared page may go. *)
let page_base va = Mmu.canonical va && va land (Phys_mem.page_size - 1) = 0

(* Map the already-[Mapped] 4 KiB [frame] once more, at the page base
   [va] of [pt], reference counted: an IPC page grant, which the
   receiving container pays for, or a DMA window, which its owner's
   container pays for under the external charge.  Atomic: failure
   leaves no trace. *)
let share_page t pt ~charge ~uncharge ~va ~frame ~perm =
  if Imap.mem va (Page_table.address_space pt) then Error Errno.Eexist
  else
    charged_map t pt ~charge ~uncharge ~size:Page_state.S4k ~vaddrs:[ va ] ~frames:1
      (fun () ->
        match Page_table.map pt ~size:Page_state.S4k ~vaddr:va ~frame ~perm with
        | Ok () -> Ok (Page_alloc.inc_ref t.alloc ~addr:frame)
        | Error e -> Error (errno_of_map e))

(* Transfer [msg] from [sender] to [receiver]: validate every grant
   first, then apply.  The only fallible step after validation is the
   page mapping (table-page OOM), which unwinds itself. *)
let deliver t ~sender ~receiver ~(msg : Message.t) =
  let sth = Perm_map.borrow t.pm.Proc_mgr.thrd_perms ~ptr:sender in
  let rth = Perm_map.borrow t.pm.Proc_mgr.thrd_perms ~ptr:receiver in
  if not (Message.wf msg) then Error Errno.Einval
  else begin
    (* page grant: source must be a 4 KiB mapping of the sender *)
    let* page_frame =
      match msg.Message.page with
      | None -> Ok None
      | Some g ->
        let sp = Perm_map.borrow t.pm.Proc_mgr.proc_perms ~ptr:sth.Thread.owner_proc in
        (match Imap.find_opt g.Message.src_vaddr (Page_table.address_space sp.Process.pt) with
         | Some e when Page_state.equal_size e.Page_table.size Page_state.S4k ->
           Ok (Some (g, e.Page_table.frame, e.Page_table.perm))
         | Some _ | None -> Error Errno.Einval)
    in
    (* endpoint grant: sender slot occupied, receiver slot free *)
    let* edpt_grant =
      match msg.Message.endpoint with
      | None -> Ok None
      | Some g ->
        (match Thread.slot sth g.Message.src_slot with
         | None -> Error Errno.Einval
         | Some ep ->
           (match Thread.slot rth g.Message.dst_slot with
            | Some _ -> Error Errno.Eexist
            | None ->
              if g.Message.dst_slot < 0 || g.Message.dst_slot >= Kconfig.max_endpoint_slots
              then Error Errno.Einval
              else Ok (Some (g, ep))))
    in
    let* () =
      match page_frame with
      | None -> Ok ()
      | Some (g, frame, perm) ->
        let p = Perm_map.borrow t.pm.Proc_mgr.proc_perms ~ptr:rth.Thread.owner_proc in
        let container = p.Process.owner_container in
        let va = g.Message.dst_vaddr in
        if not (page_base va) then Error Errno.Einval
        else
          share_page t p.Process.pt ~charge:(Proc_mgr.charge t.pm ~container)
            ~uncharge:(Proc_mgr.uncharge t.pm ~container) ~va ~frame ~perm
    in
    (match edpt_grant with
     | None -> ()
     | Some (g, ep) ->
       Perm_map.update t.pm.Proc_mgr.thrd_perms ~ptr:receiver (fun th ->
           Thread.set_slot th g.Message.dst_slot (Some ep));
       Perm_map.update t.pm.Proc_mgr.edpt_perms ~ptr:ep (fun e ->
           { e with Endpoint.refcount = e.Endpoint.refcount + 1 }));
    Ok ()
  end

(* Take the calling thread off the CPU / run queue so it can block.
   [up] is the full record update (blocked state plus whatever message
   buffer the park leaves behind), applied in one map operation. *)
let detach_from_scheduler t ~thread up =
  match Proc_mgr.cpu_of_current t.pm ~thread with
  | Some cpu ->
    t.pm.Proc_mgr.currents.(cpu) <- None;
    Perm_map.update t.pm.Proc_mgr.thrd_perms ~ptr:thread up;
    ignore (Proc_mgr.dequeue_next_on t.pm ~cpu)
  | None ->
    Proc_mgr.remove_from_run_queue t.pm ~thread;
    Perm_map.update t.pm.Proc_mgr.thrd_perms ~ptr:thread up

let send_impl t ~thread ~slot ~msg ~blocking =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    (match Thread.slot th slot with
     | None -> err Errno.Einval
     | Some ep ->
       let e = Perm_map.borrow t.pm.Proc_mgr.edpt_perms ~ptr:ep in
       (match Static_list.peek_front e.Endpoint.recv_queue with
        | Some receiver when fastpath_ok t ~caller:thread ~msg ->
          (* fused fastpath: [deliver] is vacuous for a well-formed
             scalars-only message, and each thread record is written
             exactly once *)
          Perm_map.update t.pm.Proc_mgr.edpt_perms ~ptr:ep (fun e ->
              match Static_list.pop_front e.Endpoint.recv_queue with
              | Some (_, q) -> { e with Endpoint.recv_queue = q }
              | None -> assert false);
          rendezvous_fast t ~ep ~sender:thread ~receiver ~caller:thread
            ~partner:receiver
            ~partner_up:(fun rth -> { rth with Thread.msg_buf = Some msg })
            ~caller_up:Fun.id;
          if Obs.tracing () then begin
            Span.edge Span.Ipc ~src:(Span.current ())
              ~dst:(Span.take_blocked ~thread:receiver);
            Obs.emit_ep_send ~ep ~sender:thread ~receiver ()
          end;
          Syscall.Runit
        | Some receiver ->
          (match deliver t ~sender:thread ~receiver ~msg with
           | Error er -> err er
           | Ok () ->
             Perm_map.update t.pm.Proc_mgr.edpt_perms ~ptr:ep (fun e ->
                 match Static_list.pop_front e.Endpoint.recv_queue with
                 | Some (_, q) -> { e with Endpoint.recv_queue = q }
                 | None -> assert false);
             Perm_map.update t.pm.Proc_mgr.thrd_perms ~ptr:receiver (fun rth ->
                 { rth with Thread.msg_buf = Some msg });
             rendezvous_slow t ~partner:receiver ~caller:thread;
             if Obs.tracing () then begin
               Span.edge Span.Ipc ~src:(Span.current ())
                 ~dst:(Span.take_blocked ~thread:receiver);
               Obs.emit_ep_send ~ep ~sender:thread ~receiver ()
             end;
             Syscall.Runit)
        | None ->
          if not blocking then err Errno.Ewouldblock
          else if not (Message.wf msg) then err Errno.Einval
          else if Static_list.is_full e.Endpoint.send_queue then err Errno.Efull
          else begin
            (* Pre-validate grant sources so a blocked sender's message
               always names a real mapping / descriptor of its own. *)
            let src_ok =
              (match msg.Message.page with
               | None -> true
               | Some g ->
                 let sp =
                   Perm_map.borrow t.pm.Proc_mgr.proc_perms ~ptr:th.Thread.owner_proc
                 in
                 (match
                    Imap.find_opt g.Message.src_vaddr
                      (Page_table.address_space sp.Process.pt)
                  with
                  | Some entry ->
                    Page_state.equal_size entry.Page_table.size Page_state.S4k
                  | None -> false))
              && (match msg.Message.endpoint with
                  | None -> true
                  | Some g -> Thread.slot th g.Message.src_slot <> None)
            in
            if not src_ok then err Errno.Einval
            else begin
              Perm_map.update t.pm.Proc_mgr.edpt_perms ~ptr:ep (fun e ->
                  match Static_list.push e.Endpoint.send_queue thread with
                  | Ok q -> { e with Endpoint.send_queue = q }
                  | Error `Full -> assert false);
              detach_from_scheduler t ~thread (fun th ->
                  { th with Thread.msg_buf = Some msg;
                            state = Thread.Blocked_send ep });
              if Obs.tracing () then begin
                Span.note_blocked ~thread ~span:(Span.current ());
                Obs.emit_ep_block ~ep ~thread ~dir:Event.Dir_send ()
              end;
              Syscall.Rblocked
            end
          end))

let recv_impl t ~thread ~slot ~blocking =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    (match Thread.slot th slot with
     | None -> err Errno.Einval
     | Some ep ->
       let e = Perm_map.borrow t.pm.Proc_mgr.edpt_perms ~ptr:ep in
       (match Static_list.peek_front e.Endpoint.send_queue with
        | Some sender ->
          let sth = Perm_map.borrow t.pm.Proc_mgr.thrd_perms ~ptr:sender in
          let msg =
            match sth.Thread.msg_buf with Some m -> m | None -> assert false
          in
          if fastpath_ok t ~caller:thread ~msg then begin
            (* fused fastpath, receive side: wake the parked sender and
               direct-switch to it in one pass *)
            Perm_map.update t.pm.Proc_mgr.edpt_perms ~ptr:ep (fun e ->
                match Static_list.pop_front e.Endpoint.send_queue with
                | Some (_, q) -> { e with Endpoint.send_queue = q }
                | None -> assert false);
            rendezvous_fast t ~ep ~sender ~receiver:thread ~caller:thread
              ~partner:sender
              ~partner_up:(fun sth -> { sth with Thread.msg_buf = None })
              ~caller_up:(fun th -> { th with Thread.msg_buf = Some msg });
            if Obs.tracing () then begin
              Span.edge Span.Ipc ~src:(Span.take_blocked ~thread:sender)
                ~dst:(Span.current ());
              Obs.emit_ep_recv ~ep ~receiver:thread ~sender ()
            end;
            Syscall.Rmsg msg
          end
          else
            (match deliver t ~sender ~receiver:thread ~msg with
             | Error er -> err er
             | Ok () ->
               Perm_map.update t.pm.Proc_mgr.edpt_perms ~ptr:ep (fun e ->
                   match Static_list.pop_front e.Endpoint.send_queue with
                   | Some (_, q) -> { e with Endpoint.send_queue = q }
                   | None -> assert false);
               Perm_map.update t.pm.Proc_mgr.thrd_perms ~ptr:sender (fun sth ->
                   { sth with Thread.msg_buf = None });
               Perm_map.update t.pm.Proc_mgr.thrd_perms ~ptr:thread (fun th ->
                   { th with Thread.msg_buf = Some msg });
               rendezvous_slow t ~partner:sender ~caller:thread;
               if Obs.tracing () then begin
                 Span.edge Span.Ipc ~src:(Span.take_blocked ~thread:sender)
                   ~dst:(Span.current ());
                 Obs.emit_ep_recv ~ep ~receiver:thread ~sender ()
               end;
               Syscall.Rmsg msg)
        | None ->
          (* a pending interrupt routed to this endpoint is delivered
             before the receiver would block (lowest device id first);
             the backlog cache makes the no-interrupt case one lookup
             instead of a fold over every device *)
          let pending_irq =
            if irq_backlog_of t ~ep = 0 then None
            else
              Imap.fold
                (fun device (d : device_info) acc ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                    if d.irq_endpoint = Some ep && d.irq_pending > 0 then Some device
                    else None)
                t.devices None
          in
          (match pending_irq with
           | Some device ->
             let info = Imap.find device t.devices in
             t.devices <-
               Imap.add device { info with irq_pending = info.irq_pending - 1 } t.devices;
             note_dev ();
             irq_backlog_add t ~ep (-1);
             let msg = Message.scalars_only [ device ] in
             Perm_map.update t.pm.Proc_mgr.thrd_perms ~ptr:thread (fun th ->
                 { th with Thread.msg_buf = Some msg });
             if Obs.tracing () then
               Span.edge Span.Irq_delivery ~src:(Span.take_irq_pending ~device)
                 ~dst:(Span.current ());
             Syscall.Rmsg msg
           | None ->
             if not blocking then err Errno.Ewouldblock
             else if Static_list.is_full e.Endpoint.recv_queue then err Errno.Efull
             else begin
               Perm_map.update t.pm.Proc_mgr.edpt_perms ~ptr:ep (fun e ->
                   match Static_list.push e.Endpoint.recv_queue thread with
                   | Ok q -> { e with Endpoint.recv_queue = q }
                   | Error `Full -> assert false);
               detach_from_scheduler t ~thread (fun th ->
                   { th with Thread.msg_buf = None;
                             state = Thread.Blocked_recv ep });
               if Obs.tracing () then begin
                 Span.note_blocked ~thread ~span:(Span.current ());
                 Obs.emit_ep_block ~ep ~thread ~dir:Event.Dir_recv ()
               end;
               Syscall.Rblocked
             end)))

let sys_send t ~thread ~slot ~msg = send_impl t ~thread ~slot ~msg ~blocking:true
let sys_send_nb t ~thread ~slot ~msg = send_impl t ~thread ~slot ~msg ~blocking:false
let sys_recv t ~thread ~slot = recv_impl t ~thread ~slot ~blocking:true
let sys_recv_nb t ~thread ~slot = recv_impl t ~thread ~slot ~blocking:false

(* Drain the head sender of the endpoint without transferring anything:
   the sender is woken, its message dropped.  This is how a server
   discards a request whose grants cannot be applied. *)
let sys_recv_reject t ~thread ~slot =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    (match Thread.slot th slot with
     | None -> err Errno.Einval
     | Some ep ->
       let e = Perm_map.borrow t.pm.Proc_mgr.edpt_perms ~ptr:ep in
       (match Static_list.peek_front e.Endpoint.send_queue with
        | None -> err Errno.Ewouldblock
        | Some sender ->
          Perm_map.update t.pm.Proc_mgr.edpt_perms ~ptr:ep (fun e ->
              match Static_list.pop_front e.Endpoint.send_queue with
              | Some (_, q) -> { e with Endpoint.send_queue = q }
              | None -> assert false);
          Perm_map.update t.pm.Proc_mgr.thrd_perms ~ptr:sender (fun sth ->
              { sth with Thread.msg_buf = None });
          Proc_mgr.enqueue_runnable t.pm ~thread:sender;
          Syscall.Runit))

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)

let sys_yield t ~thread =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    (match th.Thread.state with
     | Thread.Running ->
       (* yield on the CPU the thread actually occupies (under per-CPU
          queues a thread can be current on a CPU other than the one
          entering the kernel) *)
       (match Proc_mgr.cpu_of_current t.pm ~thread with
        | Some cpu ->
          Proc_mgr.preempt_on t.pm ~cpu;
          ignore (Proc_mgr.dequeue_next_on t.pm ~cpu)
        | None -> ());
       Syscall.Runit
     | Thread.Runnable -> Syscall.Runit
     | Thread.Blocked_send _ | Thread.Blocked_recv _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Termination and revocation                                          *)

(* Tear down devices whose owning process died: release every frame in
   the DMA window, free the IOMMU page table, return the quota charge to
   the owning container if it still exists. *)
let teardown_device t ~device (info : device_info) =
  (match info.irq_endpoint with
   | Some ep when info.irq_pending > 0 -> irq_backlog_add t ~ep (-info.irq_pending)
   | Some _ | None -> ());
  Iommu.detach t.iommu ~device;
  let io_space = Page_table.address_space info.io_pt in
  Imap.iter
    (fun _iova (e : Page_table.entry) ->
      ignore (Page_alloc.dec_ref t.alloc ~addr:e.Page_table.frame))
    io_space;
  let charged =
    Iset.cardinal (Page_table.page_closure info.io_pt) + Imap.cardinal io_space
  in
  ignore (Page_table.destroy info.io_pt);
  if Perm_map.mem t.pm.Proc_mgr.cntr_perms ~ptr:info.owner_container then
    Proc_mgr.uncharge_external t.pm ~container:info.owner_container ~frames:charged
  else Proc_mgr.drop_external t.pm ~container:info.owner_container

let sweep_devices t =
  t.devices <-
    Imap.filter
      (fun device info ->
        if Perm_map.mem t.pm.Proc_mgr.proc_perms ~ptr:info.owner_proc then true
        else begin
          teardown_device t ~device info;
          note_dev ();
          false
        end)
      t.devices

let sys_terminate_container t ~thread ~container =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok _ ->
    let caller_cntr = Option.get (container_of_thread t ~thread) in
    (match Perm_map.borrow_opt t.pm.Proc_mgr.cntr_perms ~ptr:container with
     | None -> err Errno.Esrch
     | Some _ ->
       let subtree =
         (Perm_map.borrow t.pm.Proc_mgr.cntr_perms ~ptr:caller_cntr).Container.subtree
       in
       if not (Iset.mem container subtree) then err Errno.Eperm
       else begin
         let r = Proc_mgr.terminate_container t.pm ~container in
         sweep_devices t;
         sweep_irqs_hook t;
         ret_of_unit r
       end)

(* Is [proc] a strict descendant of [ancestor] in the process tree? *)
let proc_descends t ~proc ~ancestor =
  let rec up p fuel =
    if fuel < 0 then false
    else
      match
        (Perm_map.borrow t.pm.Proc_mgr.proc_perms ~ptr:p).Process.parent
      with
      | None -> false
      | Some parent -> parent = ancestor || up parent (fuel - 1)
  in
  up proc (Perm_map.cardinal t.pm.Proc_mgr.proc_perms)

let sys_terminate_process t ~thread ~proc =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    (match Perm_map.borrow_opt t.pm.Proc_mgr.proc_perms ~ptr:proc with
     | None -> err Errno.Esrch
     | Some _ ->
       if not (proc_descends t ~proc ~ancestor:th.Thread.owner_proc) then
         err Errno.Eperm
       else begin
         let r = Proc_mgr.terminate_process t.pm ~proc in
         sweep_devices t;
         sweep_irqs_hook t;
         ret_of_unit r
       end)

(* ------------------------------------------------------------------ *)
(* IOMMU                                                               *)

(* A dedicated IOMMU page table for the device, charged to the caller's
   container; the device starts with an empty DMA window. *)
let sys_assign_device t ~thread ~device =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    if device < 0 then err Errno.Einval
    else if Imap.mem device t.devices then err Errno.Eexist
    else begin
      let proc = th.Thread.owner_proc in
      let p = Perm_map.borrow t.pm.Proc_mgr.proc_perms ~ptr:proc in
      let container = p.Process.owner_container in
      match Proc_mgr.charge_external t.pm ~container ~frames:1 with
      | Error e -> err e
      | Ok () ->
        (match Page_table.create t.mem t.alloc with
         | Error _ ->
           Proc_mgr.uncharge_external t.pm ~container ~frames:1;
           err Errno.Enomem
         | Ok io_pt ->
           Iommu.attach t.iommu ~device ~root:(Page_table.cr3 io_pt);
           t.devices <-
             Imap.add device
               {
                 owner_proc = proc;
                 owner_container = container;
                 io_pt;
                 irq_endpoint = None;
                 irq_pending = 0;
               }
               t.devices;
           note_dev ();
           Syscall.Runit)
    end

(* The frame backing [va] is shared with the device, reference counted
   like an IPC page grant. *)
let sys_io_map t ~thread ~device ~iova ~va =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    (match Imap.find_opt device t.devices with
     | None -> err Errno.Esrch
     | Some info ->
       if info.owner_proc <> th.Thread.owner_proc then err Errno.Eperm
       else if not (page_base iova) then err Errno.Einval
       else begin
         let p = Perm_map.borrow t.pm.Proc_mgr.proc_perms ~ptr:info.owner_proc in
         match Imap.find_opt va (Page_table.address_space p.Process.pt) with
         | Some e when Page_state.equal_size e.Page_table.size Page_state.S4k ->
           let container = info.owner_container in
           ret_of_unit
             (share_page t info.io_pt ~charge:(Proc_mgr.charge_external t.pm ~container)
                ~uncharge:(Proc_mgr.uncharge_external t.pm ~container) ~va:iova
                ~frame:e.Page_table.frame ~perm:e.Page_table.perm)
         | Some _ | None -> err Errno.Einval
       end)

let sys_io_unmap t ~thread ~device ~iova =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    (match Imap.find_opt device t.devices with
     | None -> err Errno.Esrch
     | Some info ->
       if info.owner_proc <> th.Thread.owner_proc then err Errno.Eperm
       else
         match Page_table.unmap info.io_pt ~vaddr:iova with
         | Ok e ->
           (* The page-table unmap only shoots the CPU-side TLB; the
              device's IOTLB needs its own invalidation command, and
              skipping it would leave the device a window onto the
              freed frame (exactly what the TLB-coherence lint flags). *)
           Iommu.iotlb_invlpg t.iommu ~device ~iova;
           ignore (Page_alloc.dec_ref t.alloc ~addr:e.Page_table.frame);
           Proc_mgr.uncharge_external t.pm ~container:info.owner_container ~frames:1;
           Syscall.Runit
         | Error _ -> err Errno.Einval)

(* ------------------------------------------------------------------ *)
(* Interrupt dispatch                                                  *)

(* Devices whose bound endpoint died lose their routing (with any
   pending interrupts); called after every endpoint-freeing path.  When
   no route died, the device table stays the same value and nothing is
   noted, so readers keyed on it see a quiet step. *)
let sweep_irqs t =
  let dead =
    Imap.fold
      (fun device (d : device_info) acc ->
        match d.irq_endpoint with
        | Some ep when not (Perm_map.mem t.pm.Proc_mgr.edpt_perms ~ptr:ep) -> (device, ep, d) :: acc
        | Some _ | None -> acc)
      t.devices []
  in
  match List.rev dead with
  | [] -> ()
  | dead ->
    List.iter
      (fun (device, ep, (d : device_info)) ->
        t.irq_backlog <- Imap.remove ep t.irq_backlog;
        note_dev ();
        t.devices <- Imap.add device { d with irq_endpoint = None; irq_pending = 0 } t.devices)
      dead;
    note_dev ()

(* Only the device's owner may route its interrupt, and only once. *)
let sys_register_irq t ~thread ~device ~slot =
  match calling_thread t ~thread with
  | Error e -> err e
  | Ok th ->
    (match Imap.find_opt device t.devices with
     | None -> err Errno.Esrch
     | Some info ->
       if info.owner_proc <> th.Thread.owner_proc then err Errno.Eperm
       else if info.irq_endpoint <> None then err Errno.Eexist
       else
         (match Thread.slot th slot with
          | None -> err Errno.Einval
          | Some ep ->
            t.devices <- Imap.add device { info with irq_endpoint = Some ep } t.devices;
            note_dev ();
            Syscall.Runit))

(* A hardware entry: no calling thread is involved.  The interrupt is
   delivered as a one-scalar message to a receiver waiting on the routed
   endpoint, or counted pending (picked up by the next receive).
   Unassigned or unrouted devices raise spurious interrupts, which are
   dropped. *)
let irq_fire t ~device =
  match Imap.find_opt device t.devices with
  | None -> Syscall.Runit
  | Some info ->
    (match info.irq_endpoint with
     | None -> Syscall.Runit
     | Some ep ->
       let e = Perm_map.borrow t.pm.Proc_mgr.edpt_perms ~ptr:ep in
       let sid = Span.begin_ ~container:e.Endpoint.owner_container Span.Irq in
       (match Static_list.peek_front e.Endpoint.recv_queue with
        | Some receiver ->
          Perm_map.update t.pm.Proc_mgr.edpt_perms ~ptr:ep (fun e ->
              match Static_list.pop_front e.Endpoint.recv_queue with
              | Some (_, q) -> { e with Endpoint.recv_queue = q }
              | None -> assert false);
          Perm_map.update t.pm.Proc_mgr.thrd_perms ~ptr:receiver (fun rth ->
              { rth with Thread.msg_buf = Some (Message.scalars_only [ device ]) });
          Proc_mgr.enqueue_runnable t.pm ~thread:receiver;
          if sid <> 0 then begin
            Span.edge Span.Irq_delivery ~src:sid
              ~dst:(Span.take_blocked ~thread:receiver);
            Span.end_ sid
          end;
          Syscall.Runit
        | None ->
          t.devices <-
            Imap.add device { info with irq_pending = info.irq_pending + 1 } t.devices;
          note_dev ();
          irq_backlog_add t ~ep 1;
          if sid <> 0 then begin
            Span.note_irq_pending ~device ~span:sid;
            Span.end_ sid
          end;
          Syscall.Runit))

let () = sweep_irqs_ref := sweep_irqs

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)

let dispatch t ~thread (call : Syscall.t) =
  match call with
  | Syscall.Mmap { va; count; size; perm } -> sys_mmap t ~thread ~va ~count ~size ~perm
  | Syscall.Munmap { va; count; size } -> sys_munmap t ~thread ~va ~count ~size
  | Syscall.Mprotect { va; perm } -> sys_mprotect t ~thread ~va ~perm
  | Syscall.New_container { quota; cpus } -> sys_new_container t ~thread ~quota ~cpus
  | Syscall.New_process -> sys_new_process t ~thread
  | Syscall.New_thread -> sys_new_thread t ~thread
  | Syscall.New_endpoint { slot } -> sys_new_endpoint t ~thread ~slot
  | Syscall.Close_endpoint { slot } -> sys_close_endpoint t ~thread ~slot
  | Syscall.Send { slot; msg } -> sys_send t ~thread ~slot ~msg
  | Syscall.Recv { slot } -> sys_recv t ~thread ~slot
  | Syscall.Send_nb { slot; msg } -> sys_send_nb t ~thread ~slot ~msg
  | Syscall.Recv_nb { slot } -> sys_recv_nb t ~thread ~slot
  | Syscall.Recv_reject { slot } -> sys_recv_reject t ~thread ~slot
  | Syscall.Yield -> sys_yield t ~thread
  | Syscall.Terminate_container { container } ->
    sys_terminate_container t ~thread ~container
  | Syscall.Terminate_process { proc } -> sys_terminate_process t ~thread ~proc
  | Syscall.Assign_device { device } -> sys_assign_device t ~thread ~device
  | Syscall.Io_map { device; iova; va } -> sys_io_map t ~thread ~device ~iova ~va
  | Syscall.Io_unmap { device; iova } -> sys_io_unmap t ~thread ~device ~iova
  | Syscall.Register_irq { device; slot } -> sys_register_irq t ~thread ~device ~slot
  | Syscall.Irq_fire { device } -> irq_fire t ~device

let syscalls_ctr = Atmo_obs.Metrics.counter "kernel/syscalls"
let syscall_errors_ctr = Atmo_obs.Metrics.counter "kernel/syscall_errors"

let step_inner t ~thread (call : Syscall.t) =
  if not (Obs.tracing ()) then dispatch t ~thread call
  else begin
    let sysno = Syscall.number call in
    Obs.emit_syscall_enter ~thread ~sysno ();
    Atmo_obs.Metrics.Counter.incr syscalls_ctr;
    let ret = dispatch t ~thread call in
    let errno = match ret with Syscall.Rerr e -> Some e | _ -> None in
    (match errno with None -> () | Some _ -> Atmo_obs.Metrics.Counter.incr syscall_errors_ctr);
    Obs.emit_syscall_exit ~thread ~sysno ~errno ();
    ret
  end

(* Step observer for the sanitizer: brackets every syscall so an external
   checker can attribute memory accesses to the executing thread's
   container.  Same zero-cost-when-unarmed discipline as the Obs guards;
   the armed path uses [Fun.protect] so the exit bracket fires even when a
   harness-injected fault escapes the dispatcher. *)
let step_obs_armed = ref false

let step_obs : (t -> thread:int -> entering:bool -> unit) ref =
  ref (fun _ ~thread:_ ~entering:_ -> ())

let set_step_observer = function
  | None ->
    step_obs_armed := false;
    step_obs := (fun _ ~thread:_ ~entering:_ -> ())
  | Some f ->
    step_obs := f;
    step_obs_armed := true

let step t ~thread (call : Syscall.t) =
  if not !step_obs_armed then step_inner t ~thread call
  else begin
    !step_obs t ~thread ~entering:true;
    Fun.protect
      ~finally:(fun () -> !step_obs t ~thread ~entering:false)
      (fun () -> step_inner t ~thread call)
  end
