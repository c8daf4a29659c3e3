type rule =
  | Use_after_free
  | Double_free
  | Out_of_reservation
  | Poison_trample
  | Claim_of_live
  | Bad_write_ro
  | Foreign_page
  | Unlocked_mutation
  | Lock_misuse
  | Leak
  | Phantom_page
  | Mapped_leak
  | Malformed_pte
  | Pt_bad_level
  | Pt_misaligned_superpage
  | Pt_alias
  | Pt_bad_leaf_state
  | Tlb_stale
  | Sched_incoherent
  | Span_leak
  | Drv_undefined_state
  | Drv_dma_escape
  | Drv_irq_storm
  | Drv_lost_completion
  | Stale_proof
  | Lock_order
  | Queue_corrupt
  | Lost_steal
  | Watchdog_silent
  | Ill_formed

let rule_name = function
  | Use_after_free -> "use-after-free"
  | Double_free -> "double-free"
  | Out_of_reservation -> "out-of-reservation"
  | Poison_trample -> "poison-trample"
  | Claim_of_live -> "claim-of-live"
  | Bad_write_ro -> "bad-write-ro"
  | Foreign_page -> "foreign-page"
  | Unlocked_mutation -> "unlocked-mutation"
  | Lock_misuse -> "lock-misuse"
  | Leak -> "leak"
  | Phantom_page -> "phantom-page"
  | Mapped_leak -> "mapped-leak"
  | Malformed_pte -> "malformed-pte"
  | Pt_bad_level -> "pt-bad-level"
  | Pt_misaligned_superpage -> "pt-misaligned-superpage"
  | Pt_alias -> "pt-alias"
  | Pt_bad_leaf_state -> "pt-bad-leaf-state"
  | Tlb_stale -> "tlb-stale"
  | Sched_incoherent -> "sched-incoherent"
  | Span_leak -> "span-leak"
  | Drv_undefined_state -> "drv-undefined-state"
  | Drv_dma_escape -> "drv-dma-escape"
  | Drv_irq_storm -> "drv-irq-storm"
  | Drv_lost_completion -> "drv-lost-completion"
  | Stale_proof -> "stale-proof"
  | Lock_order -> "lock-order"
  | Queue_corrupt -> "queue-corrupt"
  | Lost_steal -> "lost-steal"
  | Watchdog_silent -> "watchdog-silent"
  | Ill_formed -> "ill-formed"

type sink = rule -> int -> string -> unit

let report v rule page fmt = Format.kasprintf (v rule page) fmt

exception First of string

let first enum st =
  match enum st (fun _ _ msg -> raise_notrace (First msg)) with
  | () -> Ok ()
  | exception First msg -> Error msg
