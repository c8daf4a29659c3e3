(** Per-CPU flight-recorder rings in a flat byte arena.

    Layout per CPU (mirroring {!Atmo_sim.Ring}'s byte-accurate style):
    [[head:u64][tail:u64][dropped:u64][slot 0][slot 1]...] with
    free-running head/tail counters masked by [slots-1].  All state
    lives in the arena; reserving a slot on a full ring overwrites the
    oldest slot and increments the drop counter (a flight recorder
    never refuses an event). *)

type t

val header_bytes : int

val create : cpus:int -> slots:int -> slot_size:int -> t
(** [slots] must be a positive power of two (per CPU). *)

val cpus : t -> int
val slots : t -> int
val slot_size : t -> int
val size_bytes : t -> int

val head : t -> cpu:int -> int
val tail : t -> cpu:int -> int
val length : t -> cpu:int -> int
(** Live slots ([head - tail], at most [slots]). *)

val dropped : t -> cpu:int -> int
(** Events overwritten before being read on this CPU's ring, as
    recorded in the arena's decoder-visible header word.  Reset by
    {!clear} together with head and tail. *)

val lifetime_dropped : t -> cpu:int -> int
(** Lossless per-CPU drop count for the lifetime of the recorder.
    Kept outside the arena so it is never itself droppable: it
    survives {!clear}, which is what benchmark drop accounting must
    read (a cleared ring silently under-reported drops through
    {!dropped}). *)

val total_dropped : t -> int
(** Sum of {!lifetime_dropped} over all CPUs. *)

val reserve : t -> cpu:int -> int
(** Claim the next slot on [cpu]'s ring and return its byte offset in
    {!arena}: the zero-allocation emit path.  Advances the head; on a
    full ring the tail moves over the oldest slot, which counts as
    dropped.  The slot is not zeroed — the caller must write all
    [slot_size] bytes.  [cpu] must already be in range (the sink clamps
    before calling). *)

val arena : t -> bytes
(** The backing arena itself, for in-place encode ({!reserve}) and
    in-place decode ({!Event.decode_at} over {!slot_offset}). *)

val slot_offset : t -> cpu:int -> int -> int
(** Arena offset of the slot a free-running index maps to (the index
    is masked by [slots-1], as in ring addressing). *)

val store_u64 : bytes -> int -> int -> unit
(** [store_u64 buf off v] writes [v] at [off] exactly as
    [Bytes.set_int64_le buf off (Int64.of_int v)] would, as one native
    8-byte store (byte-swapped on big-endian hosts), so the
    non-flambda compiler emits no boxed [Int64] on the per-event path.
    No bounds check: [off + 8] must lie within [buf]. *)

val load_u64 : bytes -> int -> int
(** Inverse of {!store_u64} (i.e. [Int64.to_int] of the LE word). *)

val clear : t -> unit
(** Empty every ring: reset its head, tail and drop words.  Slot bytes
    are left as they are (readers decode only live slots, and
    {!reserve} hands out slots the writer fully rewrites); the
    lifetime drop counts are kept. *)
