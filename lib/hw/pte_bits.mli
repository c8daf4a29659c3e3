(** x86-64 page-table entry bit layout.

    Entries are stored in simulated physical memory as little-endian u64
    values with the standard long-mode layout: P (bit 0), R/W (bit 1), U/S
    (bit 2), PS (bit 7, valid at PDPT/PD levels), NX (bit 63), and the
    frame address in bits 12..51. *)

type perm = {
  write : bool;
  user : bool;
  execute : bool;  (** true iff the NX bit is clear *)
}

val perm_rw : perm
(** write, user, no-execute: the common data mapping. *)

val perm_ro : perm
val perm_rx : perm

val pp_perm : Format.formatter -> perm -> unit
val equal_perm : perm -> perm -> bool

val addr_mask : int64

val make : addr:int -> perm:perm -> huge:bool -> int64
(** Encode a present entry.  [addr] must be 4 KiB aligned (2 MiB/1 GiB
    alignment for huge entries is the caller's obligation, checked by the
    page-table invariants). *)

val make_table : addr:int -> int64
(** Encode a present non-leaf entry pointing at the next-level table.
    Table entries are maximally permissive; restriction happens at the
    leaf, matching how Atmosphere programs intermediate levels. *)

val not_present : int64

val is_present : int64 -> bool
val is_huge : int64 -> bool

val has_reserved : int64 -> bool
(** A bit this kernel never programs is set: anything but P, R/W, U/S,
    PS, NX and the frame address (A/D/PWT/PCD and the available bits
    are never written). *)

val addr_of : int64 -> int
val perm_of : int64 -> perm
