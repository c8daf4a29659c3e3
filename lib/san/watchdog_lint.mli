(** Bridge from the online monitor's watchdog to typed sanitizer
    reports.

    Files one {!Report.Watchdog_silent} per CPU the active monitor's
    watchdog saw stop scheduling (the cpu-silent rule — the liveness
    half of the scheduling contract).  The other watchdog rules are
    overload signals, not proof-shadowing violations, and stay with
    [atmo monitor].  No-op (and state cleared) when no monitor is
    armed; each finding of one monitor is filed once across repeated
    calls. *)

val lint : Atmo_core.Kernel.t -> int
(** Returns the number of newly filed reports. *)

val reset : unit -> unit
(** Forget which findings were already filed. *)
