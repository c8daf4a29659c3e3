(** Simulated physical memory.

    The paper's kernel runs on bare-metal x86-64; here physical memory is a
    sparse array of byte-accurate 4 KiB frames.  Page tables built by the
    kernel are stored in these frames as real 512-entry little-endian u64
    arrays, so the {!Mmu} walker resolves translations exactly as the
    hardware would.

    Addresses are plain [int]s (63-bit, always non-negative in practice).
    Frames are allocated lazily on first touch and zero-filled, matching
    the behaviour of RAM handed out by a boot allocator. *)

type t

val page_size : int
(** Size of a base frame: 4096 bytes. *)

val page_size_2m : int
(** Size of a 2 MiB superpage frame. *)

val page_size_1g : int
(** Size of a 1 GiB superpage frame. *)

val create : page_count:int -> t
(** [create ~page_count] is a memory of [page_count] 4 KiB frames starting
    at physical address 0.  Raises [Invalid_argument] if
    [page_count <= 0]. *)

val uid : t -> int
(** Process-unique identity of this memory, stamped at creation.  Lets
    external observers (the sanitizer) key per-memory state without
    retaining the memory itself. *)

(** {2 Accesses on the mutation stream}

    Every load, store and zero is emitted as an {!Access} event on
    {!Atmo_util.Mutation} (kind [Access]) after bounds/alignment
    validation and before the access.  With no [Access] subscriber an
    access costs one guard and builds nothing. *)

type access_op =
  | Read
  | Write
  | Zero  (** whole-frame zeroing via {!zero_page} *)

type Atmo_util.Mutation.event += Access of { mem : t; op : access_op; addr : int; len : int }

val page_count : t -> int

val size_bytes : t -> int
(** Total bytes of simulated physical memory. *)

val contains : t -> int -> bool
(** [contains mem addr] is true iff [addr] is a valid byte address. *)

val page_base : int -> int
(** Round an address down to its 4 KiB frame base. *)

val page_index : int -> int
(** Frame number of an address ([addr / page_size]). *)

val addr_of_index : int -> int
(** Inverse of {!page_index} for frame bases. *)

val is_page_aligned : int -> bool

val read_u64 : t -> addr:int -> int64
(** Little-endian 8-byte load.  [addr] must be 8-byte aligned and in
    bounds; raises [Invalid_argument] otherwise. *)

val write_u64 : t -> addr:int -> int64 -> unit
(** Little-endian 8-byte store, same alignment rules as {!read_u64}. *)

val iter_table : t -> addr:int -> (int -> int64 -> unit) -> unit
(** [iter_table mem ~addr f] reads the 4 KiB page at [addr] as 512
    little-endian u64 entries — a page-table page — and calls
    [f index entry] for every non-zero entry, in index order.  One
    bounds check, one frame lookup and one ranged [Read] {!Access}
    event for the whole page, and no copy: the read primitive of the
    page-table checkers.  [addr] must be page-aligned and the page in
    bounds; raises [Invalid_argument] otherwise. *)

val read_u8 : t -> addr:int -> int

val write_u8 : t -> addr:int -> int -> unit

val zero_page : t -> addr:int -> unit
(** Zero the 4 KiB frame at [addr].  [addr] must be page-aligned and the
    whole page must lie in bounds; raises [Invalid_argument] otherwise,
    mirroring {!read_u64}'s contract. *)

val blit_to : t -> addr:int -> bytes -> unit
(** Copy [bytes] into memory at [addr]; must fit within bounds (may cross
    frame boundaries). *)

val blit_from : t -> addr:int -> len:int -> bytes
(** Read [len] bytes starting at [addr]. *)

val write_bytes : t -> addr:int -> bytes -> off:int -> len:int -> unit
(** [write_bytes t ~addr src ~off ~len] copies [src.[off .. off+len)]
    into memory at [addr], straight from the caller's buffer; one
    access event, as {!blit_to}. *)

val read_bytes : t -> addr:int -> len:int -> bytes -> off:int -> unit
(** [read_bytes t ~addr ~len dst ~off] copies [len] bytes at [addr]
    into [dst.[off .. off+len)] (zeros for never-written frames); one
    access event, as {!blit_from}. *)

val touched_frames : t -> int
(** Number of frames that have been materialised (written or zeroed);
    used by tests to check the memory stays sparse. *)
