(** Typed kernel tracepoints: the flight-recorder slot format.

    One variant covers every instrumented hot path of the stack: system
    call entry/exit (with the {!Atmo_util.Errno.t} result), physical
    page allocation/free and superpage formation, endpoint send / recv /
    block transitions, MMU walks and the individual PTE loads they
    perform, driver queue doorbells/completions, and big-lock
    acquisitions.  The format has one encoder, the per-tag
    [Sink.emit_*] writers, which store a slot's words straight into the
    arena without building a [t]; one decoder, {!decode_at}, which is
    the only place a [t] is built; and one name table per concept:
    {!tag_name}, {!syscall_name} and {!fault_name}. *)

type dir = Dir_send | Dir_recv

type t =
  | Syscall_enter of { thread : int; sysno : int }
  | Syscall_exit of { thread : int; sysno : int; errno : Atmo_util.Errno.t option }
      (** [errno = None] means the call succeeded (any non-[Rerr] return). *)
  | Page_alloc of { addr : int; order : int }
      (** [order]: 0 = 4 KiB, 1 = 2 MiB, 2 = 1 GiB. *)
  | Page_free of { addr : int; order : int }
  | Superpage_merge of { head : int; order : int }
      (** [order] is the size of the block formed. *)
  | Ep_create of { container : int }
  | Ep_send of { ep : int; sender : int; receiver : int }
      (** A message crossed the endpoint (observed on the send path). *)
  | Ep_recv of { ep : int; receiver : int; sender : int }
      (** A message crossed the endpoint (observed on the receive path). *)
  | Ep_block of { ep : int; thread : int; dir : dir }
  | Mmu_walk of { vaddr : int; ok : bool }
  | Pte_touch of { table : int; index : int }
      (** One page-table-entry load during a walk (TLB-fill traffic). *)
  | Drv_doorbell of { device : int; queue : int }
      (** Driver notified the device (tail-register write / submission). *)
  | Drv_completion of { device : int; count : int }
  | Lock_acquire of { cpu : int; wait_cycles : int }
      (** Big kernel lock granted after [wait_cycles] queued cycles. *)
  | Tlb_hit of { vaddr : int }
      (** A translation was served from the software TLB. *)
  | Tlb_miss of { vaddr : int }
      (** The TLB missed and a full walk refilled it. *)
  | Tlb_flush of { asid : int; entries : int }
      (** An address space's cache was flushed ([entries] dropped). *)
  | Ep_fastpath of { ep : int; sender : int; receiver : int }
      (** A rendezvous took the IPC fastpath: the message was delivered
          and the CPU switched directly to the partner, bypassing the
          generic scheduler machinery. *)
  | Span_begin of { span : int; parent : int; kind : int; owner : int }
      (** A typed span opened.  [span] is a run-unique id, [parent] the
          enclosing span on the same CPU (0 for a root), [kind] a span
          kind code (see {!span_kind_name}), [owner] the owning
          container pointer (-1 when unowned). *)
  | Span_end of { span : int; kind : int; owner : int }
  | Causal of { edge : int; src : int; dst : int }
      (** A cross-span causal edge ([src]/[dst] are span ids): IPC
          send→recv, IRQ→endpoint delivery, driver submit→completion,
          or a scheduler wakeup.  See {!causal_name}. *)
  | Dev_fault of { device : int; fault : int }
      (** A device misbehaved (hostile-mode injection or a real model
          fault); [fault] is a fault code, see {!fault_name}. *)
  | Dev_recover of { device : int; fault : int }
      (** The driver absorbed a device fault with a typed error and the
          device model returned to its operating state. *)
  | Span_pair of { span : int; parent : int; kind : int; owner : int }
      (** A zero-duration span batched into one packed record: the
          begin and end happened at the same cycle timestamp (driver
          submit/complete markers, context switches).  {!Sink.records}
          expands it back into a {!Span_begin}/{!Span_end} pair so the
          profiler and exporters see an unchanged stream at half the
          ring cost. *)

type record = { ts : int; cpu : int; tag : int; ev : t }
(** A decoded flight-recorder slot: cycle timestamp, recording CPU, the
    slot's tag code (the constructor of [ev]) and the event. *)

val syscall_name : int -> string
(** Name of a syscall number ([Atmo_spec.Syscall.number], declaration
    order of the syscall variant); ["sys?<n>"] out of range.  The one
    syscall-name table: [Atmo_spec.Syscall.name] and the verifier's
    [spec/<call>] obligations read it. *)

val syscall_count : int

val span_kind_name : int -> string
(** Decoder-side name of a span kind code: fixed structural kinds
    (1-15), ["app<n>"] for registered application kinds (16-63; the
    Span registry holds the real names), ["sys_<name>"] for 64+n. *)

val causal_name : int -> string
(** Name of a causal-edge code: ipc / irq / drv / wakeup. *)

val fault_name : int -> string
(** Name of a device-fault code carried by [Dev_fault]/[Dev_recover]
    ([Atmo_devmodel.Fault.code]); ["fault<n>"] for an unknown code.
    The one fault-name table: [Atmo_devmodel.Fault.name] reads it. *)

(** {2 Tags}

    The 1-based tag byte of each constructor (0 marks an empty slot).
    The sink's per-tag filter bitmask, sampling shifts, and
    emitted/sampled-out counters are all indexed by these codes, and
    the zero-allocation [Sink.emit_*] writers store them directly. *)

val tag_syscall_enter : int
val tag_syscall_exit : int
val tag_page_alloc : int
val tag_page_free : int
val tag_superpage_merge : int
val tag_ep_create : int
val tag_ep_send : int
val tag_ep_recv : int
val tag_ep_block : int
val tag_mmu_walk : int
val tag_pte_touch : int
val tag_drv_doorbell : int
val tag_drv_completion : int
val tag_lock_acquire : int
val tag_tlb_hit : int
val tag_tlb_miss : int
val tag_tlb_flush : int
val tag_ep_fastpath : int
val tag_span_begin : int
val tag_span_end : int
val tag_causal : int
val tag_dev_fault : int
val tag_dev_recover : int
val tag_span_pair : int

val tag_count : int
(** Highest valid tag (tags are [1..tag_count]). *)

val tag_name : int -> string
(** Name of a tag code (the constructor's name in snake case, e.g.
    ["syscall_enter"]); ["tag?<n>"] out of range.  The one tag-name
    table: the printer, the Chrome exporter, [atmo trace]'s kind table
    and the [obs/emitted/<kind>] counters all read it. *)

val tag_of_name : string -> int option
(** Inverse of {!tag_name} — how [atmo trace --filter] resolves kind
    names to mask bits. *)

val all_tags_mask : int
(** Bitmask with every valid tag bit set (bit [t] for tag [t]). *)

val slot_bytes : int
(** Fixed size of one encoded event: 40 bytes. *)

val errno_code : Atmo_util.Errno.t -> int
(** Stable wire code of an errno as stored in [Syscall_exit] slots
    (0 means success); used by the sink's zero-allocation writer. *)

val decode_at : bytes -> int -> record option
(** [decode_at buf off] decodes the slot starting at byte [off] of a
    buffer (the flight-recorder arena) in place: byte 0 the tag, byte 1
    a small per-tag field, byte 2 the CPU, bytes 8, 16, 24 and 32 the
    timestamp and three fields as little-endian u64 words.  [None] on
    an empty slot (tag 0), an unknown tag or an out-of-bounds offset. *)

val pp_record : Format.formatter -> record -> unit
(** One line: [[cpu<c> @<ts>]], the tag name padded to 14 columns,
    then the event's fields. *)
