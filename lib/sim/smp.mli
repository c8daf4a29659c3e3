(** SMP contention simulator.

    The kernel is logically single-threaded; this module models what a
    multicore machine does to it under two lock regimes:

    - {b Big_lock}: one machine-wide FIFO lock serializes all kernel
      time (the paper's §3 design).  Adding CPUs parallelizes user-mode
      think time only; kernel throughput saturates.
    - {b Fine_grained}: each kernel entry waits only for its lock
      footprint — its CPU's run-queue lock, the sharded endpoint lock
      of the IPC it performs, and the exclusive permission-map writer
      lock for address-space and lifecycle calls.  Footprints are
      acquired in the fixed hierarchy cpu-queue < endpoint <
      map-writer.

    Both regimes drive the {e identical} kernel: same per-CPU topology
    ([Proc_mgr.set_sched_cpus]), same placement and homes, same
    entering-CPU steering, same steal seed.  Only the cycle model
    differs, and timing never feeds back into kernel logic — so return
    values, abstract state and scheduling decisions are bit-identical
    across regimes.  [bench smp] asserts exactly that (the on/off
    oracle) and measures the scaling curve the regimes diverge on.
    Container CPU reservations are honored in both: a thread may only
    be placed on a CPU its owning container reserved. *)

type regime = Big_lock | Fine_grained

type program = {
  thread : int;
  think_cycles : int;  (** user-mode work between kernel entries *)
  call_of : int -> Atmo_spec.Syscall.t;  (** the i-th system call *)
}

type stats = {
  cpus : int;
  regime : regime;
  syscalls_executed : int;
  wall_cycles : int;  (** completion time of the last thread *)
  lock_wait_cycles : int;  (** total cycles spent queued on locks *)
  lock_wait_by_cpu : int array;
      (** the same wait split by entering CPU; also exported as the
          [smp/lock_wait/<cpu>] counter family, pre-created for every
          CPU in order so [Metrics.dump] is deterministic under any
          interleaving *)
  busy_cycles : int array;  (** per-CPU think + kernel time *)
  steals : int;  (** run-queue work steals during the run *)
  placement : (int * int) list;  (** (thread, cpu) assignments *)
}

val syscall_cycles : Cost.t -> Atmo_spec.Syscall.t -> int
(** Kernel-path cost of one call under the cycle model (IPC at the
    call/reply figure, mapping at the map-page figure, a generic
    trap cost otherwise). *)

val run :
  ?regime:regime ->
  ?steal_seed:int ->
  ?observe:(cpu:int -> iter:int -> thread:int -> Atmo_spec.Syscall.ret -> unit) ->
  Atmo_core.Kernel.t ->
  cost:Cost.t ->
  cpus:int ->
  programs:program list ->
  iterations:int ->
  (stats, string) result
(** Place each program's thread on an allowed CPU (error if a thread's
    container reserved none of the available CPUs), then simulate
    [iterations] think+syscall rounds per thread.  System calls really
    execute against the kernel on the thread's placed CPU
    ([Proc_mgr.set_cpu]), with the run-queue topology sized to [cpus].
    [regime] selects the cycle model (default [Big_lock]);
    [steal_seed] seeds the work-stealing victim rotation identically in
    both regimes; [observe] sees every syscall's return value in
    execution order — the hook the cross-regime oracle hangs off. *)

val throughput : stats -> float
(** Syscalls per second at the model frequency. *)
