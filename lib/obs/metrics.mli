(** Monotonic counters and log2-bucketed latency histograms.

    Histogram bucket [i] covers values in [[2^i, 2^(i+1))] (bucket 0
    absorbs 0 and 1), so 63 buckets span the whole non-negative [int]
    range; quantiles report the upper edge of the selected bucket,
    clamped to the observed extremes, and are monotone in [q] by
    construction.  A process-global registry hands out metrics by name
    so instrumentation sites need no plumbing. *)

module Counter : sig
  type t

  val make : string -> t
  val name : t -> string
  val incr : ?by:int -> t -> unit
  (** Monotonic: non-positive [by] is ignored. *)

  val add : t -> int -> unit
  (** [add t by] is [incr ~by t] without the option box, for per-event
      call sites. *)

  val value : t -> int
  val reset : t -> unit
end

module Histogram : sig
  type t

  val bucket_count : int
  val make : string -> t
  val name : t -> string
  val bucket_of : int -> int
  val observe : t -> int -> unit
  (** Record one sample (negative values clamp to 0). *)

  val count : t -> int
  val sum : t -> int
  val mean : t -> float
  val min_value : t -> int
  val max_value : t -> int

  val quantile : t -> float -> int
  (** [quantile t q] for [q] in [0,1]; 0 on an empty histogram. *)

  val p50 : t -> int
  val p90 : t -> int
  val p99 : t -> int
  val reset : t -> unit

  val buckets : t -> int array
  (** Copy of the raw bucket counts (length {!bucket_count}). *)

  val merge : into:t -> t -> unit
  (** [merge ~into src] accumulates [src] into [into] bucket-by-bucket.
      Shards sharing the bucket edges merge without precision loss:
      counts, sum, and extremes add exactly.  [src] is unchanged;
      merging a histogram into itself is a no-op. *)

  val pp_row : Format.formatter -> t -> unit
end

(** {2 Registry} *)

val counter : string -> Counter.t
(** Get-or-create by name. *)

val histogram : string -> Histogram.t
val bump : ?by:int -> string -> unit
val observe : string -> int -> unit
val all_counters : unit -> (string * Counter.t) list
val all_histograms : unit -> (string * Histogram.t) list
val reset : unit -> unit
(** Zero every registered metric in place (tests and fresh CLI runs).
    Registrations persist, so handles cached by instrumentation sites
    keep feeding the registry. *)

val dump : unit -> string
(** Deterministic full-registry snapshot: one line per metric, counters
    then histograms, each table sorted by name, zero values included.
    Stable across hash-table ordering — the anchor for exporters and
    golden-style test expectations. *)

val pp_table : Format.formatter -> unit -> unit
(** Histogram table (count / mean / p50 / p90 / p99 / max) followed by
    non-zero counters. *)

(** {2 Snapshots and deltas}

    A deterministic point-in-time copy of the whole registry, in the
    registry's name-sorted order — the primitive under windowed
    time-series rollups: a window close is one {!Snapshot.take_into}
    plus one {!Snapshot.diff_into} into reused storage, independent of
    the event rate.  The registry keeps its name-sorted view between
    registrations, so a snapshot neither folds nor sorts the tables. *)
module Snapshot : sig
  type hist = { counts : int array; n : int; sum : int }
  (** Bucket counts (length {!Histogram.bucket_count}), sample count,
      and value sum.  In a delta, all three are the window's increment. *)

  type t
  (** Counter values and histogram buckets/counts/sums in flat arrays,
      both tables in name order, zero-valued entries included.  A
      delta ({!diff}) has the same representation. *)

  val create : unit -> t
  (** An empty snapshot, to be filled by {!take_into} or {!diff_into}. *)

  val take : unit -> t

  val take_into : t -> unit
  (** Overwrite [t] with the current registry, reusing its arrays when
      no metric registered since they were sized. *)

  val diff : base:t -> t -> t
  (** [diff ~base cur] is the per-name increment from [base] to [cur],
      bucket-wise for histograms, deterministic.  Names registered after
      [base] diff against zero.  Negative deltas (a {!val:reset} between
      the snapshots) clamp to zero, so a window spanning a reset reads
      as empty rather than garbage. *)

  val diff_into : base:t -> t -> t -> unit
  (** [diff_into ~base cur d] stores [diff ~base cur] in [d], reusing
      [d]'s arrays. *)

  val copy : t -> t
  (** A snapshot no later [take_into]/[diff_into] on the original can
      change. *)

  val counter : t -> string -> int
  (** Value by name, 0 when absent. *)

  val hist : t -> string -> hist option

  val counters : t -> (string * int) list
  (** Every counter, sorted by name. *)

  val hists : t -> (string * hist) list
  (** Every histogram, sorted by name. *)

  val counter_names : t -> string array
  (** The sorted counter names, indexing {!counter_value}.  Shared with
      the registry view the snapshot was taken against (physically
      equal for every snapshot of one registry generation); never
      mutate it. *)

  val counter_value : t -> int -> int
  (** Counter value at an index of {!counter_names}. *)

  val merge_hists : hist list -> hist
  (** Bucket-wise sum — merging window deltas of one histogram loses no
      precision (shared bucket edges). *)

  val quantile : hist -> float -> int
  (** Upper edge of the bucket holding the q-th ranked sample (0 when
      empty) — bucket-exact against {!Histogram.quantile} over the same
      samples, without the observed-extreme clamp (a delta keeps no
      extremes). *)
end
