(** System-call argument and return types.

    One uniform datatype for kernel invocations so that the refinement
    harness and the noninterference harness can drive the kernel with
    arbitrary (including random, malformed) calls — the paper's
    noninterference theorem quantifies over "an arbitrary system call
    with arbitrary arguments". *)

type t =
  | Mmap of {
      va : int;  (** first virtual base address *)
      count : int;  (** number of consecutive blocks to map *)
      size : Atmo_pmem.Page_state.size;
      perm : Atmo_hw.Pte_bits.perm;
    }
  | Munmap of { va : int; count : int; size : Atmo_pmem.Page_state.size }
  | Mprotect of { va : int; perm : Atmo_hw.Pte_bits.perm }
  | New_container of { quota : int; cpus : Atmo_util.Iset.t }
  | New_process
  | New_thread
  | New_endpoint of { slot : int }
  | Close_endpoint of { slot : int }
  | Send of { slot : int; msg : Atmo_pm.Message.t }
  | Recv of { slot : int }
  | Send_nb of { slot : int; msg : Atmo_pm.Message.t }
      (** non-blocking send: [Rerr Ewouldblock] when no receiver waits *)
  | Recv_nb of { slot : int }
      (** non-blocking receive: [Rerr Ewouldblock] when no sender waits *)
  | Recv_reject of { slot : int }
      (** discard the head sender's request without transferring: the
          sender is woken (its message dropped); how a server drains a
          request whose grants cannot be applied *)
  | Yield
  | Terminate_container of { container : int }
  | Terminate_process of { proc : int }
  | Assign_device of { device : int }
      (** create an IOMMU page table for the device, owned by the
          calling process *)
  | Io_map of { device : int; iova : int; va : int }
      (** expose the 4 KiB frame backing [va] to the device at [iova] *)
  | Io_unmap of { device : int; iova : int }
  | Register_irq of { device : int; slot : int }
      (** route the device's interrupt to the endpoint in the caller's
          descriptor slot (driver interrupt dispatch, §3) *)
  | Irq_fire of { device : int }
      (** hardware entry, not a user invocation: the device raised its
          interrupt; the kernel delivers it to the registered endpoint
          (waking a waiting receiver) or marks it pending *)

type ret =
  | Rptr of int  (** pointer to a freshly created object *)
  | Runit
  | Rblocked  (** the calling thread blocked inside the kernel *)
  | Rmsg of Atmo_pm.Message.t  (** a message delivered synchronously by recv *)
  | Rmapped of int list  (** physical blocks backing a new mapping, in va order *)
  | Rerr of Atmo_util.Errno.t

val pp : Format.formatter -> t -> unit
val pp_ret : Format.formatter -> ret -> unit
val equal_ret : ret -> ret -> bool
val name : t -> string
(** Constructor name in snake case, for reporting:
    [Atmo_obs.Event.syscall_name (number c)]. *)

val number : t -> int
(** Stable syscall number (declaration order, 0-based), carried by the
    [Atmo_obs] tracepoints; [Atmo_obs.Event.syscall_name] inverts it. *)
