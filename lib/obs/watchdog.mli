(** Typed stall/overload detectors over the windowed rollups.

    Each rule carries a stable code (like the sanitizer's report
    rules) and reads only closed-window deltas plus the per-tick gauge
    samples the monitor collects — never live kernel state — so a
    check is safe to run from the span close path at every window
    boundary. *)

type rule =
  | Cpu_silent of int
      (** a CPU that beat earlier in the horizon has no
          [sched/heartbeat/<cpu>] delta for the configured suffix of
          windows while other CPUs kept beating — it stopped
          scheduling *)
  | Lock_spike
      (** the latest window's summed [smp/lock_wait/<cpu>] delta
          exceeds the trailing average by the configured factor *)
  | Runq_growth
      (** sampled run-queue depth non-decreasing and diverging across
          the horizon — overload *)
  | Ring_drop  (** flight-recorder drops advanced inside a window *)

val rule_code : rule -> int
(** Stable wire code (1–4). *)

val rule_name : rule -> string
val rule_aux : rule -> int
(** Rule argument (the CPU for [Cpu_silent], 0 otherwise). *)

type report = { wrule : rule; wseq : int; detail : string }
(** [wseq] is the {!Timeseries.window} sequence number the rule fired
    at. *)

val report_key : report -> int * int * int
(** Dedup identity: [(rule code, aux, window seq)]. *)

type config = {
  silent_windows : int;  (** consecutive silent windows to call a CPU stalled (default 2) *)
  spike_factor : float;  (** latest vs. trailing-average multiplier (default 8) *)
  spike_min : int;  (** absolute lock-wait floor in cycles (default 10000) *)
  growth_windows : int;  (** depth-growth horizon in windows (default 4) *)
  growth_min : int;  (** minimum depth increase to report (default 8) *)
}

val default_config : config

type sample = { sseq : int; depth : int; drops : int }
(** Per-tick gauges the rollups cannot carry: run-queue depth (from
    the monitor's probe) and the cumulative flight-recorder drop
    count.  [sseq = -1] marks the baseline sample taken at arm time. *)

type t
(** A watchdog over one series: per-window summaries (which CPUs beat,
    the summed [smp/lock_wait/*] delta) for the last
    [max(silent_windows+1, 8)] windows, computed once as each window
    closes, plus the gauge samples of the last [windows + 1] ticks. *)

val create : ?config:config -> windows:int -> baseline:sample -> unit -> t
(** A watchdog for a series of [windows] ring slots, seeded with the
    arm-time [baseline] sample. *)

val observe : t -> Timeseries.t -> sample -> report list
(** Call once per tick, right after {!Timeseries.tick}: summarise the
    newly closed window ({!Timeseries.newest}), record [sample] (taken
    before the tick), and evaluate every rule over the horizon.
    Deterministic: sorted by {!report_key}.  A condition that persists
    reports again at each tick, under that tick's window sequence
    number, so no two ticks produce the same key. *)

val samples : t -> sample list
(** Retained gauge samples, oldest first. *)

val pp_report : Format.formatter -> report -> unit
