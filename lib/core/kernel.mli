(** The Atmosphere kernel: concrete state and system calls.

    Ties the substrates together — simulated physical memory, the page
    allocator, per-process page tables, the flat process manager, the
    IOMMU — and implements every system call of the paper's interface
    (§3): container/process/thread lifecycle with quota delegation,
    mmap/munmap at 4 KiB / 2 MiB / 1 GiB granularity, rendezvous IPC over
    endpoints with page and endpoint grants, yield, coarse-grained
    revocation by termination, and IOMMU device assignment.

    All system calls are atomic: a call that returns [Rerr _] leaves the
    abstract kernel state unchanged (partial multi-page operations roll
    back).  This is what makes the refinement specs of
    [Atmo_spec.Syscall_spec] checkable clause by clause.

    The kernel runs under a model of the paper's big lock: system calls
    execute to completion, one at a time. *)

type device_info = {
  owner_proc : int;
  owner_container : int;  (** container the IOMMU pages are charged to *)
  io_pt : Atmo_pt.Page_table.t;  (** the device's own IOMMU page table *)
  irq_endpoint : int option;  (** interrupt routing target *)
  irq_pending : int;  (** interrupts raised with no receiver waiting *)
}

type t = {
  mem : Atmo_hw.Phys_mem.t;
  alloc : Atmo_pmem.Page_alloc.t;
  pm : Atmo_pm.Proc_mgr.t;
  iommu : Atmo_hw.Iommu.t;
  mutable devices : device_info Atmo_util.Imap.t;
  mutable irq_backlog : int Atmo_util.Imap.t;
      (** cached endpoint -> pending-interrupt total across all routed
          devices; [recv] consults it instead of folding over every
          device ([Σ irq_pending] per routed endpoint, absent = 0) *)
}

type boot_params = {
  frames : int;  (** physical frames in the machine *)
  reserved_frames : int;  (** boot image / trusted boot environment outside the allocator *)
  root_quota : int;  (** frames the root container may consume *)
  cpus : Atmo_util.Iset.t;
}

val default_boot : boot_params
(** 16 MiB machine, 16 reserved frames, everything delegated to root. *)

val boot : boot_params -> (t * int, Atmo_util.Errno.t) result
(** Bring the system up: root container, init process, init thread
    (returned, already current). *)

(** {2 System calls}

    Every call takes the invoking thread.  The thread must be alive and
    not blocked; arbitrary values are accepted (and rejected with
    [Rerr]), as the noninterference theorem requires. *)

val step : t -> thread:int -> Atmo_spec.Syscall.t -> Atmo_spec.Syscall.ret
(** The only system-call entry: dispatches every call of
    {!Atmo_spec.Syscall.t} (including the [Irq_fire] hardware entry)
    inside the step observer's bracket and, while tracing, records its
    enter/exit events and the [kernel/syscalls] counters. *)

val set_step_observer : (t -> thread:int -> entering:bool -> unit) option -> unit
(** Process-global bracket around every {!step} (called with
    [~entering:true] before dispatch, [~entering:false] after, even on
    exceptions).  Used by atmo_san to attribute physical-memory accesses
    to the executing thread's container; one bool load per step when not
    installed. *)

(** {2 IPC fastpath} *)

val set_fastpath : bool -> unit
(** Enable/disable the direct-switch IPC fastpath (process-global; on by
    default).  With the fastpath off every rendezvous goes through the
    generic scheduler machinery; the resulting kernel state is
    bit-identical either way — the oracle test in [test_fastpath]
    replays random workloads under both settings and compares. *)

val set_fastpath_skip_plant : bool -> unit
(** Sanitizer plant ([atmo san --plant fastpath-skip]): make the
    fastpath forget to requeue the preempted caller, leaving a Runnable
    thread queued nowhere.  Only the scheduler-coherence lint should
    ever see this on. *)

val set_span_leak_plant : bool -> unit
(** Sanitizer plant ([atmo san --plant span-leak]): open the rendezvous
    span on the IPC slowpath and never close it.  Only the span-balance
    lint should ever see this on. *)

type Atmo_util.Mutation.event += Devices_changed
(** A device-table or IRQ-backlog change in any kernel, emitted as kind
    [Devices] on {!Atmo_util.Mutation} after ticking the always-on
    {!devices_id}.  Used by the incremental verifier's dirty tracker. *)

val devices_id : string
(** ["kernel/devices"]: the map id of the device table and the IRQ
    backlog cache. *)

(** {2 Helpers for harnesses and applications} *)

val take_delivered : t -> thread:int -> Atmo_pm.Message.t option
(** Message delivered to a thread woken from a blocked receive (read
    without clearing; it is replaced on the thread's next receive). *)

val thread_alive : t -> thread:int -> bool
val proc_of_thread : t -> thread:int -> int option
val container_of_thread : t -> thread:int -> int option

val resolve_user : t -> thread:int -> vaddr:int -> Atmo_hw.Mmu.translation option
(** Resolve a virtual address through the calling thread's address
    space — what the thread's loads/stores would do on hardware. *)
