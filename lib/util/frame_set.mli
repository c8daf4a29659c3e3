(** Dense, immutable sets of 4 KiB frame base addresses.

    One bit per frame of a contiguous frame range plus a stored count:
    the executable form of the page-indexed ghost stores the allocator's
    spec views are phrased over.  Membership and cardinality are O(1);
    equality of two sets over the same range is one [memcmp], and still
    set equality when the ranges differ.

    Elements are byte addresses ([frame * page_size]), like the
    {!Iset}s of addresses they stand in for, so an unaligned or
    out-of-range address is simply not a member. *)

type t

val page_size : int
(** 4096: bit [i] of a set built over frames [[lo, hi)] stands for the
    address [(lo + i) * page_size]. *)

(** {2 Construction} *)

type draft

val draft : lo:int -> hi:int -> draft
(** An empty set over frames [lo .. hi-1].  Raises [Invalid_argument] if
    [lo < 0] or [hi < lo]. *)

val set_range : draft -> lo:int -> hi:int -> unit
(** Add frames [lo .. hi-1] (addresses [lo * page_size] ...); one call
    for a whole run of frames, filling whole bytes of the bitmap and
    counting only the bits it newly sets.  Raises [Invalid_argument] if
    the run is not inside the draft's range. *)

val freeze : draft -> t
(** The set drafted so far.  The draft must not be used afterwards. *)

val flip : t -> int list -> t
(** [flip s frames] is [s] with the membership of each listed frame
    (a frame number, as for {!set_range}) turned over: one copy of the
    bitmap, whatever the list's length, and [s] itself for [[]].  The
    frames must be distinct; raises [Invalid_argument] if one is
    outside the set's range. *)

(** {2 Queries} *)

val cardinal : t -> int

val mem : t -> int -> bool
(** [mem s addr]: [addr] is the base address of a member frame. *)

val equal : t -> t -> bool
(** Set equality; [true] at once on a set and itself. *)

val to_iset : t -> Iset.t
