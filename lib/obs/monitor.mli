(** The online SLO monitor: windowed rollups + SLO verdicts + watchdog,
    driven from the span layer's close-path hooks.

    Exactly one monitor is active at a time (mirroring the sink
    registry).  Arming sets the slow-root threshold to the tightest
    [lat/request] SLO limit and schedules a window tick at
    [now + window_cycles]; every tick is one registry snapshot + diff
    into reused storage, one gauge sample, and one watchdog sweep over
    per-window summaries — nothing per event. *)

type t

val arm :
  ?windows:int ->
  ?config:Watchdog.config ->
  ?depth_probe:(unit -> int) ->
  window_cycles:int ->
  now:int ->
  specs:Slo.spec list ->
  unit ->
  t
(** Arm a fresh monitor (replacing any active one).  [depth_probe]
    supplies the run-queue depth gauge the watchdog's growth rule
    reads (absent → 0). *)

val disarm : unit -> unit
(** Clear the active monitor and its span-layer hooks. *)

val active : unit -> t option

val tick : t -> now:int -> unit
(** Close a rollup window now (normally driven by the span layer). *)

val finish : t -> now:int -> unit
(** Close the final, possibly partial, window at end of run; the
    monitor stays armed for inspection. *)

val series : t -> Timeseries.t
val specs : t -> Slo.spec list

val verdicts : t -> Slo.verdict list
(** One verdict per armed spec, evaluated over the current rollups. *)

val compliant : t -> bool
(** All verdicts compliant — the [atmo monitor] exit code. *)

val findings_cap : int
(** Findings kept per rule (64); later ones are only counted
    ({!unfiled}). *)

val findings : t -> Watchdog.report list
(** Kept watchdog reports in firing order: the first {!findings_cap}
    of each rule. *)

val unfiled : t -> (string * int) list
(** Per rule name, the findings counted past {!findings_cap} and not
    kept; rules with none are omitted. *)

val samples : t -> Watchdog.sample list
(** Gauge samples, oldest first (first entry is the arm-time
    baseline, [sseq = -1]). *)

val capture_exemplars : ?max_exemplars:int -> t -> Exemplar.t list
(** Decode the flight ring and build exemplar trails for every
    slow-ledger root. *)
