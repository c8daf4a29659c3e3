(** Typed sanitizer violation reports.

    Every rule atmo-san checks shadows a theorem of the paper's verified
    kernel (see DESIGN.md §8 for the mapping).  A report names the rule,
    the detection site, the faulting page, and — when the flight
    recorder is tracing — the tail of the event stream leading up to the
    violation, so a report reads like a miniature kernel crash dump. *)

type rule = Atmo_util.Violation.rule =
  | Use_after_free | Double_free | Out_of_reservation | Poison_trample | Claim_of_live
  | Bad_write_ro | Foreign_page | Unlocked_mutation | Lock_misuse | Leak | Phantom_page
  | Mapped_leak | Malformed_pte | Pt_bad_level | Pt_misaligned_superpage | Pt_alias
  | Pt_bad_leaf_state | Tlb_stale | Sched_incoherent | Span_leak | Drv_undefined_state
  | Drv_dma_escape | Drv_irq_storm | Drv_lost_completion | Stale_proof | Lock_order
  | Queue_corrupt | Lost_steal | Watchdog_silent | Ill_formed
(** The one rule type, shared with the well-formedness table; each rule
    is documented in {!Atmo_util.Violation}. *)

val rule_name : rule -> string

type t = {
  rule : rule;
  site : string;
      (** detection site, e.g. ["phys.write"], or the well-formedness
          table entry, e.g. ["pm/scheduler_wf"] *)
  page : int;  (** faulting 4 KiB frame base; [-1] when not page-specific *)
  detail : string;
  trail : Atmo_obs.Event.record list;
      (** most recent flight-recorder events at detection time (empty
          when tracing is off) *)
}

val record : rule -> site:string -> page:int -> detail:string -> unit
(** File a violation.  Captures the flight-recorder tail if tracing.
    Reports beyond a fixed cap are counted but not stored. *)

val count : unit -> int
(** Total violations filed since the last {!clear} (including any
    beyond the storage cap). *)

val reports : unit -> t list
(** Stored reports in filing order. *)

val clear : unit -> unit

val trail_length : int ref
(** How many trailing events to capture per report (default 8). *)

val pp : Format.formatter -> t -> unit

val pp_summary : Format.formatter -> unit -> unit
(** Per-rule counts followed by each stored report. *)
