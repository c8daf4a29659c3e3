(** The process manager: flat permission storage for every kernel object.

    Mirrors the paper's [ProcessManager] (Listing 2): permissions to all
    containers, processes, threads and endpoints live here in flat
    {!Perm_map}s, giving specifications and invariants a global,
    non-recursive view of every recursive structure (container tree,
    per-container process trees, endpoint queues).

    The record fields are public: system-call code in [atmo_core] borrows
    and updates objects through the permission maps exactly as the
    paper's syscall implementations do ([Ψ.process_manager.thrd_perms
    .tracked_borrow(...)]).  All structural updates that must keep the
    ghost [path]/[subtree] fields consistent go through the functions
    below. *)

type t = {
  mem : Atmo_hw.Phys_mem.t;
  alloc : Atmo_pmem.Page_alloc.t;
  root_container : int;
  cntr_perms : Container.t Perm_map.t;
  proc_perms : Process.t Perm_map.t;
  thrd_perms : Thread.t Perm_map.t;
  edpt_perms : Endpoint.t Perm_map.t;
  external_used : (int, int) Hashtbl.t;
      (** container -> frames charged by kernel-level subsystems *)
  mutable queues : Sched_queue.t array;
      (** per-CPU run queues, FIFO per queue; intrusive O(1) deques.
          Length 1 (the former single big-lock queue) until
          {!set_sched_cpus} grows the topology. *)
  mutable currents : int option array;  (** per-CPU running thread *)
  mutable cur_cpu : int;
      (** the CPU executing kernel code right now (set by the SMP
          simulator before each [Kernel.step]; 0 outside it) *)
  home_cpu : (int, int) Hashtbl.t;
      (** thread -> home CPU; wakeups enqueue there (0 when unset) *)
  mutable steal_state : int;  (** xorshift state for victim selection *)
  mutable steal_ledger : (int * int * int) list;
      (** recent steals, newest first: (thief, victim, thread).
          Scrubbed when the thread dies — a surviving entry naming a
          dead thread is the steal-vs-terminate race. *)
  mutable lost_steal_plant : bool;
      (** atmo-san plant: skip the ledger scrub on thread destruction *)
}

val cntr_perms_name : string
val proc_perms_name : string
val thrd_perms_name : string
val edpt_perms_name : string
(** The names of the four maps: their mutations are counted under
    [Perm_map.id name] and [Perm_map.dom_id name]. *)

val create :
  Atmo_hw.Phys_mem.t ->
  Atmo_pmem.Page_alloc.t ->
  root_quota:int ->
  cpus:Atmo_util.Iset.t ->
  (t, Atmo_util.Errno.t) result
(** Allocate the root container.  [root_quota] bounds every allocation in
    the system and must not exceed the allocator's managed frames. *)

(** {2 Quota accounting} *)

val charge : t -> container:int -> frames:int -> (unit, Atmo_util.Errno.t) result
(** Charge frames against a container's quota ([Equota] when it does not
    fit).  Every page that enters a container's page closure — object
    pages, page-table pages, mapped user frames — is charged here. *)

val uncharge : t -> container:int -> frames:int -> unit

val charge_external : t -> container:int -> frames:int -> (unit, Atmo_util.Errno.t) result
(** Like {!charge}, for pages owned by kernel-level subsystems outside
    the process manager (the IOMMU page tables of §4.2's virtual-memory
    subsystem).  Tracked separately so [used_by_container]'s ground
    truth can account for them. *)

val uncharge_external : t -> container:int -> frames:int -> unit
val drop_external : t -> container:int -> unit
(** Forget external charges of a container that no longer exists. *)

val external_of : t -> container:int -> int

(** {2 Object lifecycle} *)

val new_container :
  t -> parent:int -> quota:int -> cpus:Atmo_util.Iset.t -> (int, Atmo_util.Errno.t) result
(** Create a child container, delegating [quota] frames from the parent.
    The child's own object page is charged to the child.  Updates the
    ghost [path]/[subtree] of every ancestor through the flat map. *)

val new_process : t -> container:int -> parent:int option -> (int, Atmo_util.Errno.t) result
(** Create a process (allocates its object page and a fresh page table,
    both charged to the container). *)

val new_thread : t -> proc:int -> (int, Atmo_util.Errno.t) result
(** Create a runnable thread and enqueue it. *)

val new_endpoint : t -> thread:int -> slot:int -> (int, Atmo_util.Errno.t) result
(** Create an endpoint and install it in a free descriptor slot of
    [thread]. *)

val install_descriptor : t -> thread:int -> slot:int -> endpoint:int -> unit
(** Trusted wiring outside any syscall: put [endpoint] in [thread]'s
    descriptor [slot], then bump the endpoint's reference count — the
    capabilities a parent hands a child at spawn. *)

val close_endpoint_slot : t -> thread:int -> slot:int -> (unit, Atmo_util.Errno.t) result
(** Drop the descriptor; frees the endpoint page when the last reference
    disappears ([Ebusy] if threads are still blocked on it). *)

val terminate_process : t -> proc:int -> (unit, Atmo_util.Errno.t) result
(** Terminate a process and (recursively, via the process tree) all its
    descendants: threads leave queues, endpoint references drop, the
    address space is torn down, every page returns to the allocator and
    the quota charges to the container. *)

val remove_from_run_queue : t -> thread:int -> unit
(** Unlink a thread from every per-CPU queue and clear any [currents]
    slot naming it. *)

val terminate_container : t -> container:int -> (unit, Atmo_util.Errno.t) result
(** Terminate a container subtree and harvest its resources into the
    parent (the paper's coarse-grained revocation): all delegated quota
    returns; endpoints that outlive the subtree (still referenced from
    outside) are re-owned by the parent. The root cannot be terminated. *)

(** {2 Scheduler}

    One {!Sched_queue} per CPU.  The default topology is a single CPU,
    bit-identical to the former global run queue; the SMP simulator
    grows it with {!set_sched_cpus} and steers each kernel entry with
    {!set_cpu}.  An idle CPU whose own queue is empty steals from the
    back of a randomized victim's queue (never its own). *)

val sched_cpus : t -> int
(** Number of per-CPU run queues (>= 1). *)

val set_sched_cpus : t -> int -> unit
(** Resize the topology.  Queued threads are redistributed to their
    home queues deterministically; threads current on removed CPUs are
    requeued.  The queues of CPUs that stay are drained and reused, so
    a resize to the same size costs O(queued threads); only a CPU the
    old topology lacked gets a new queue. *)

val cpu : t -> int
val set_cpu : t -> int -> unit
(** The CPU executing kernel code; raises on out-of-range. *)

val home_of : t -> thread:int -> int
val set_home : t -> thread:int -> cpu:int -> unit
(** A thread's home CPU: wakeups enqueue there.  Stolen threads
    migrate (their home follows the thief). *)

val set_steal_seed : t -> int -> unit
(** Seed the victim-selection xorshift (0 resets to the default). *)

val queue : t -> cpu:int -> Sched_queue.t
val cur_queue : t -> Sched_queue.t
(** The executing CPU's run queue. *)

val current : t -> int option
(** The thread running on the executing CPU. *)

val set_current : t -> int option -> unit
val current_of : t -> cpu:int -> int option
val currents_list : t -> int option list
(** Per-CPU running threads in CPU order — the per-CPU scheduling
    decision vector the on/off oracle compares. *)

val cpu_of_current : t -> thread:int -> int option
(** The CPU a thread is current on, if any. *)

val queued_anywhere : t -> thread:int -> bool

val enqueue_runnable : t -> thread:int -> unit
(** Mark a thread runnable and append it to its home CPU's queue. *)

val push_ready : t -> thread:int -> unit
(** Queue push without the state write (the IPC fastpath writes the
    thread record itself, exactly once). *)

val dequeue_next : t -> int option
(** Pop the executing CPU's next runnable thread and mark it
    [Running]; an empty queue tries to steal before going idle. *)

val dequeue_next_on : t -> cpu:int -> int option

val preempt_current : t -> unit
(** Move the executing CPU's running thread (if any) to the back of
    its home queue. *)

val preempt_on : t -> cpu:int -> unit

val run_queue_list : t -> int list
(** All queued threads, CPU 0's queue front-to-back first — the
    abstraction function for specs, invariants and tests (allocates;
    not for hot paths).  With one CPU this is exactly the old global
    run-queue list. *)

val queue_lists : t -> int list array
(** Per-CPU queue contents, for the census lint and oracle digests. *)

val steal_ledger : t -> (int * int * int) list
(** Recent (thief, victim, thread) steals, newest first. *)

val set_lost_steal_plant : t -> bool -> unit
(** atmo-san plant: make thread destruction skip the ledger scrub,
    modelling a terminate racing an in-flight steal. *)

(** {2 Views} *)

val container_of_proc : t -> proc:int -> int
val container_of_thread : t -> thread:int -> int

val subtree_containers : t -> container:int -> Atmo_util.Iset.t
(** The container and all its descendants (uses the ghost subtree). *)

val procs_of_subtree : t -> container:int -> Atmo_util.Iset.t
val threads_of_subtree : t -> container:int -> Atmo_util.Iset.t

val object_pages : t -> Atmo_util.Iset.t
(** Pages holding kernel objects: the union of the four permission-map
    domains. *)

val page_closure : t -> Atmo_util.Iset.t
(** The process manager's page closure: object pages plus the page-table
    closures of every process (§4.2's bottom-up memory reasoning). *)

val used_by_container : t -> container:int -> int
(** Recompute a container's real page consumption from the ground truth
    (object pages + page-table pages + mapped frames); invariants compare
    this against the [used] field.  A thread whose process is gone
    counts toward no container, so an ill-formed process tree yields a
    count, not an exception. *)
