(** Well-formedness violations: the one rule type.

    Every kernel well-formedness check is written once, as an
    enumerator that hands each violation it finds to a {!sink}: a rule,
    the page or object pointer it concerns, and a message.  Everything
    else derives from the enumerators: [total_wf] and the verifier's
    obligations stop at the first violation ({!first}); atmo-san files
    every one as a typed report.  The sanitizer's dynamic checkers file
    under the same rules, so the table and the reports share this
    type. *)

type rule =
  | Use_after_free  (** access to a frame after it returned to a free list *)
  | Double_free  (** free request for a frame that is already free *)
  | Out_of_reservation  (** access to managed memory never handed out *)
  | Poison_trample  (** free-page poison damaged while the page was free *)
  | Claim_of_live  (** allocator handed out a frame that was still live *)
  | Bad_write_ro  (** store to a frame every mapping of which is read-only *)
  | Foreign_page  (** access to a user frame of a different container *)
  | Unlocked_mutation  (** kernel state mutated in a syscall without the big lock *)
  | Lock_misuse  (** big-lock acquire/release protocol broken *)
  | Leak
      (** allocated frame owned by no kernel data structure, or an
          endpoint charged to a dead container *)
  | Phantom_page  (** kernel claims a frame the allocator says is not allocated *)
  | Mapped_leak  (** mapped frame reachable from no address space *)
  | Malformed_pte  (** reserved bits, or a PS bit at L4/L1, in a present entry *)
  | Pt_bad_level  (** non-leaf entry not pointing at a next-level table *)
  | Pt_misaligned_superpage  (** huge leaf whose frame is not size-aligned *)
  | Pt_alias  (** frame mapped more times than its reference count *)
  | Pt_bad_leaf_state
      (** leaf frame not in the allocator's [Mapped] state, or over a
          block of another size *)
  | Tlb_stale  (** cached TLB/IOTLB translation disagrees with a cold walk *)
  | Sched_incoherent
      (** scheduler state broken: a Runnable thread queued nowhere, a
          queued thread not Runnable/alive, or current/Running disagree
          (the IPC fastpath's obligations) *)
  | Span_leak
      (** span begun but never ended: still open at quiescence, or left
          open when its enclosing span closed *)
  | Drv_undefined_state
      (** a device model is in the [Undefined] state the paper's driver
          theorems forbid *)
  | Drv_dma_escape
      (** device DMA outside its IOMMU window actually reached memory *)
  | Drv_irq_storm
      (** pending unacknowledged IRQs above the storm threshold — the
          driver neither serviced nor masked the vector *)
  | Drv_lost_completion
      (** a completion the device posted was never harvested by its
          driver (checked at quiescence) *)
  | Stale_proof
      (** a state container was mutated with no matching dirty mark in
          the incremental verifier's tracker — cached verdicts about it
          are stale proofs *)
  | Lock_order
      (** fine-grained lock acquired against the hierarchy
          (cpu-queue < endpoint < map-writer): a deadlock-shaped cycle *)
  | Queue_corrupt
      (** per-CPU run-queue census broken: a thread enqueued on more
          than one CPU, or a queue structurally damaged *)
  | Lost_steal
      (** steal ledger names a dead thread — a terminate raced an
          in-flight steal and the thief holds a dangling reference *)
  | Watchdog_silent
      (** the online monitor's watchdog saw a CPU stop scheduling: its
          [sched/heartbeat/<cpu>] rollup deltas went to zero across
          consecutive windows while other CPUs kept beating — the
          liveness half of the scheduling contract broken at runtime *)
  | Ill_formed
      (** any other well-formedness clause: one that no rule above
          names *)

val rule_name : rule -> string
(** The printed name, e.g. ["use-after-free"]. *)

type sink = rule -> int -> string -> unit
(** [sink rule page msg] receives one violation: [page] is the frame or
    object pointer it concerns ([-1] when none). *)

val report : sink -> rule -> int -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [report v rule page fmt ...] formats the message and hands it to
    [v].  Call it only on the failing branch: the passing path then
    formats and allocates nothing. *)

val first : ('st -> sink -> unit) -> 'st -> (unit, string) result
(** Run an enumerator until its first violation: that violation's
    message, or [Ok ()] when it yields none. *)
