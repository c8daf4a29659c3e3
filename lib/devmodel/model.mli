(** Explicit device-side state machines.

    Every simulated device (ixgbe, NVMe, virtio-net, virtio-blk)
    registers one model at creation.  The model tracks the device's
    lifecycle state, a completion/IRQ/DMA ledger, and the optional
    hostile engine, the typed errors its driver absorbed, and is the
    evidence [Atmo_san.Driver_lint] checks:
    at quiescence no device may be [Undefined], no DMA may have escaped
    the IOMMU window, pending IRQs must be bounded, and every delivered
    completion must have been harvested by its driver.

    Faults and recoveries are surfaced as [Dev_fault]/[Dev_recover]
    flight-recorder events and [dev/<name>/faults] counters.  Counter
    bumps happen only when tracing is on, preserving the zero-overhead
    contract of the obs layer. *)

type state = Reset | Ready | Active | Recovering | Failed | Undefined

val state_name : state -> string

type t = {
  mutable name : string;  (** metric key component, e.g. ["ixgbe0"] *)
  mutable device : int;  (** device id carried by obs events *)
  mutable state : state;
  mutable hostile : Hostile.t option;
  (* completion ledger *)
  mutable submitted : int;
  mutable delivered : int;  (** unique completions the device posted *)
  mutable harvested : int;  (** completions the driver consumed *)
  mutable dup_delivered : int;  (** extra duplicate posts (not in [delivered]) *)
  (* IRQ ledger *)
  mutable irq_raised : int;
  mutable irq_acked : int;
  mutable irq_masked : bool;
  mutable auto_mask : bool;
      (** driver storm protection: mask the vector when pending IRQs
          reach {!storm_threshold}.  Plants disable it. *)
  (* DMA ledger *)
  mutable escape_attempts : int;
      (** DMA the device aimed outside its IOMMU window *)
  mutable escape_blocked : int;  (** of those, how many the IOMMU rejected *)
  mutable faults : int;
  mutable recoveries : int;
  (* typed-error ledger *)
  mutable error_log : Fault.error list;
      (** the first 32 typed errors the driver absorbed, newest first *)
  mutable error_count : int;  (** every typed error, past those 32 too *)
}

val storm_threshold : int
(** Pending (raised − acked) IRQs above this count is a storm: 64. *)

val register : name:string -> device:int -> initial:state -> t
(** Create a model and add it to the process-global registry. *)

val all : unit -> t list
(** Registered models, oldest first. *)

val reset : unit -> unit
(** Empty the registry (tests and CLI runs call this so stale models
    from earlier device instances cannot leak into a lint pass). *)

val find : device:int -> t option
(** Most recently registered model for [device], if any. *)

val set_hostile : t -> Hostile.t option -> unit

val inject : t -> site:string -> Fault.kind list -> Fault.kind option
(** Consult the hostile engine at an injection site.  On injection the
    model enters [Recovering], the fault ledger and the
    [dev/<name>/faults] counter advance, and a [Dev_fault] event is
    emitted (when tracing).  The interrupt faults are absorbed here,
    the same for every device: [Spurious_irq] raises the vector once,
    [Irq_storm] {!storm_threshold}[ + 8] times; either is then
    {!recovered} and [inject] returns [None], so the site carries on as
    if nothing was injected. *)

val fault : t -> Fault.kind -> unit
(** Record a device fault observed outside the hostile engine. *)

val recovered : t -> Fault.kind -> unit
(** The driver absorbed a fault: emit [Dev_recover], count it, and
    return a [Recovering] model to [Active]. *)

(* Lifecycle *)

val on_setup : t -> unit
(** Rings programmed: any non-[Failed] state → [Ready]. *)

val on_op : t -> unit
(** Driver touched a configured device: [Ready]/[Active] → [Active]. *)

val force_undefined : t -> why:string -> unit
(** Plant hook: push the device into [Undefined] (what the paper's
    theorems forbid; [Driver_lint] must flag it). *)

(* Ledger *)
val note_submit : t -> int -> unit
val note_deliver : t -> int -> unit
val note_harvest : t -> int -> unit
val note_dup : t -> unit
val note_escape : t -> blocked:bool -> unit
(** The device attempted DMA outside its window; [blocked] says whether
    the IOMMU stopped it.  An unblocked escape is silent corruption and
    trips [drv-dma-escape]. *)

(* Typed errors *)
val note_error : t -> Fault.error -> unit
(** The driver absorbed a typed error: count it, and log it while the
    log holds fewer than 32. *)

val errors : t -> Fault.error list
(** The logged typed errors, oldest first. *)

(* IRQs *)
val raise_irq : t -> unit
(** Device raises its vector.  Masked vectors don't count as pending;
    with [auto_mask] the driver masks at {!storm_threshold}. *)

val ack_irqs : t -> unit
(** Driver acknowledges all pending IRQs and unmasks the vector. *)

val pending_irqs : t -> int
val set_auto_mask : t -> bool -> unit
