(** Scripted scenarios, each defined once: the endpoint-pair world, the
    phases [atmo trace] and [atmo san] build their workloads from, and
    the two workloads.

    A phase enters the kernel through the {!step} its caller passes:
    [Kernel.step] itself, a step that also advances a virtual clock, or
    {!locked}.  So each workload keeps its own syscall sequence and its
    own locking discipline, and the calls are written here once. *)

type step = thread:int -> Atmo_spec.Syscall.t -> Atmo_spec.Syscall.ret

val locked : Atmo_core.Kernel.t -> step
(** [Kernel.step] under the modelled big lock, taken on CPU 0 at site
    ["san.harness"]: how harness code (set-up calls, device interrupt
    injection) enters a kernel whose lock discipline the sanitizer
    checks. *)

val boot : unit -> Atmo_core.Kernel.t * int
(** A kernel booted with {!Atmo_core.Kernel.default_boot} and its init
    thread.  Raises [Failure] if the boot fails. *)

(** {2 The endpoint pair} *)

type pair = { kernel : Atmo_core.Kernel.t; init : int; peer : int }
(** A kernel where init and a second thread, [peer], share one endpoint
    in their slot 0. *)

val pair : Atmo_core.Kernel.t -> init:int -> step:step -> pair
(** init creates [peer], then an endpoint in its own slot 0, and the
    endpoint is installed in [peer]'s slot 0: the capability a parent
    hands a child at spawn.  Raises [Failure] if a call fails. *)

val boot_pair : unit -> pair
(** {!pair} on a fresh {!boot}, entered with plain [Kernel.step]. *)

val send : int -> Atmo_spec.Syscall.t
(** init's [i]th message: a send of the scalar [i] on slot 0. *)

val recv : Atmo_spec.Syscall.t
(** A receive on slot 0. *)

val pingpong :
  pair ->
  send_call:(int -> Atmo_spec.Syscall.t) ->
  iterations:int ->
  (Atmo_sim.Smp.stats, string) result
(** [iterations] rounds of the two-CPU ping-pong under
    {!Atmo_sim.Smp.run} and the default cost model: [peer] receives
    after 600 think cycles and init calls [send_call i] after 800, so
    the receiver parks first and each send meets it. *)

(** {2 Phases} *)

val memory : pair -> step:step -> loaded:(unit -> unit) -> unit
(** init maps eight 4 KiB pages at [0x4000_0000] and loads each
    through the MMU; [loaded ()] runs while they are mapped; then they
    are unmapped.  Then a 2 MiB mapping at [0x8000_0000], which forces
    superpage formation out of free 4 KiB frames, and its unmap. *)

val nvme : clock:Atmo_hw.Clock.t -> reads:int -> unit
(** An NVMe queue pair (device 7, 1,024 blocks) on [clock]: writes to
    LBAs 0-7, drained, then reads from LBAs [0 .. reads - 1], drained. *)

(** {2 The scripted workloads} *)

type trace = {
  smp : Atmo_sim.Smp.stats;  (** the ping-pong phase *)
  memory_end : int;  (** the virtual clock after the memory phase *)
  driver_end : int;  (** the driver clock at the end *)
}

val trace : iterations:int -> trace
(** [atmo trace]'s workload on a fresh {!boot}: the pair, the
    ping-pong, then the memory phase (with a load of an unmapped
    address while the pages are mapped) on a virtual clock that
    continues where the SMP timeline stopped, one rendezvous the other
    way round (the sender blocks, the receiver harvests it), and the
    NVMe phase with four reads on a driver clock started at the virtual
    clock.  While a recorder is installed, those phases stamp their
    events with their clocks and observe each syscall's cycles into
    [lat/syscall/<name>].  Every figure comes from the cost model, so
    a run with the Disabled sink is the baseline a traced run must
    reproduce. *)

val sanitized : Atmo_core.Kernel.t -> init:int -> iterations:int -> pair * Atmo_sim.Smp.stats
(** [atmo san]'s workload on a booted kernel, every harness call
    {!locked}: the pair and the ping-pong, the memory phase (tightening
    the pages read-only while they are mapped), a device phase (device
    7 assigned with a live IOMMU window, its interrupt routed through
    the shared endpoint and fired), a container given quota 64 and
    terminated, and the NVMe phase with no reads. *)
