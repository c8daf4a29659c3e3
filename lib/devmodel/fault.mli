(** Device-fault taxonomy and typed driver errors.

    Atmosphere's driver theorems say the kernel survives a misbehaving
    device: it never panics and never lets the device put kernel state
    in an undefined condition.  This module names the ways our device
    models misbehave (the hostile-mode fault kinds) and the typed errors
    drivers surface instead of crashing — the executable counterpart of
    "survive with a typed error". *)

(** {2 Fault kinds} *)

type kind =
  | Malformed_desc
      (** descriptor / completion record with impossible contents
          (length beyond the buffer, unknown tag, out-of-range id) *)
  | Short_desc  (** completion claiming fewer bytes than were sent *)
  | Spurious_irq  (** interrupt with no completion behind it *)
  | Irq_storm  (** unbounded interrupt burst from one cause *)
  | Reorder_completion  (** completions posted out of submission order *)
  | Duplicate_completion  (** the same completion posted twice *)
  | Dma_escape
      (** DMA targeting an address outside the device's IOMMU window *)

val all : kind list
(** Every fault kind, in [code] order. *)

val code : kind -> int
(** Stable wire code (1-based), carried by [Atmo_obs.Event.Dev_fault]
    and named by [Atmo_obs.Event.fault_name]. *)

val of_code : int -> kind option

val name : kind -> string
(** Kebab-case name, e.g. ["irq-storm"]:
    [Atmo_obs.Event.fault_name (code k)]. *)

val of_name : string -> kind option

(** {2 Typed driver errors}

    Every recoverable failure a driver can hit — bad arguments, a DMA
    the IOMMU refused, ring/queue exhaustion, or device misbehaviour it
    detected and absorbed.  Drivers return these instead of raising. *)

type error =
  | Bad_setup of string  (** impossible geometry or arguments *)
  | Dma_fault of { iova : int; len : int }
      (** the IOMMU rejected a driver-initiated DMA access *)
  | Ring_full
  | Queue_full
  | Lba_out_of_range of { lba : int; capacity : int }
  | Bad_block_size of { expected : int; got : int }
  | Malformed of { slot : int; detail : string }
      (** device-visible ring state failed validation; [slot] is the
          ring slot or tag involved, [-1] when not slot-specific *)
  | Short_frame of { len : int; min : int }
  | Duplicate of { tag : int }  (** completion tag already harvested *)
  | Unknown_completion of { tag : int }
  | Device_failed  (** device model is in its terminal [Failed] state *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit
