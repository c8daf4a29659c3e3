(** Windowed time-series rollups over the metrics registry.

    A wraparound ring of the last N windows, each holding the registry
    delta (counter increments, histogram bucket increments) for one
    slice of the cycle timeline.  {!tick} closes the open window with a
    single {!Metrics.Snapshot.take_into}/{!Metrics.Snapshot.diff_into}
    pass into the ring's reused slots, so rollup cost is per window
    boundary, never per event, and a close allocates nothing while the
    registry keeps its shape.

    Boundaries follow whoever owns the timeline — the span layer's
    close path polls {!next_boundary} — so windows are {e at least}
    [window_cycles] wide; each records its actual edges and {!rate}
    divides by the real width. *)

type window = {
  seq : int;  (** 0-based tick number, monotone across wraparound *)
  w_start : int;
  w_end : int;
  delta : Metrics.Snapshot.t;  (** registry increment over this window *)
}

type t

val create : ?windows:int -> window_cycles:int -> now:int -> unit -> t
(** A ring of [windows] slots (default 64) with the open window
    starting at [now].  The base snapshot is taken here, so activity
    before [create] never leaks into the first window. *)

val tick : t -> now:int -> unit
(** Close the open window at [now]: one registry snapshot, delta vs.
    the previous one, written over the ring's oldest slot once full; a
    fresh window opens at [now]. *)

val ticks : t -> int
(** Windows closed so far (not capped by the ring size). *)

val capacity : t -> int
val window_cycles : t -> int

val next_boundary : t -> int
(** Earliest timestamp at which the open window is due to close. *)

val windows : t -> window list
(** Retained windows, oldest first (at most [capacity] of them).  Each
    is a copy: later ticks do not change it. *)

val last : t -> int -> window list
(** Last [n] retained windows, oldest first (copies). *)

val latest : t -> window option

val newest : t -> Metrics.Snapshot.t
(** The newest closed window's delta in place, without a copy — for a
    consumer that summarises each window as it closes.  The next tick
    that reuses the slot overwrites it.  Raises [Invalid_argument]
    before the first tick. *)

val merged : t -> name:string -> n:int -> Metrics.Snapshot.hist
(** Bucket-wise sum of histogram [name]'s deltas over the last [n]
    windows — the streaming-quantile input (empty when the histogram
    never appeared). *)

val counter : window -> name:string -> int
(** Counter increment inside one window (0 when absent). *)

val rate : window -> name:string -> float
(** Counter increment divided by the window's actual width in cycles. *)
