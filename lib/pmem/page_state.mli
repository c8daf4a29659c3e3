(** The vocabulary of per-frame metadata.

    The paper tracks every physical page in one of four states — free,
    mapped, merged or allocated — in a flat page array.  [Merged] frames
    record the head frame of the superpage block they belong to; head
    frames carry the block size.  {!Page_alloc} keeps that array dense:
    one code byte per frame for the state and the size, plus one int
    for a [Mapped] reference count or a [Merged] head.  These types are
    how it answers queries about a frame. *)

type size = S4k | S2m | S1g

val frames_per : size -> int
(** Number of 4 KiB frames covered by a block of the given size. *)

val bytes_per : size -> int
val pp_size : Format.formatter -> size -> unit
val equal_size : size -> size -> bool

type state =
  | Free  (** on the free list of its size class (head frame) *)
  | Allocated  (** holds a kernel object or a page-table node (head) *)
  | Mapped of int  (** user-mapped with positive reference count (head) *)
  | Merged of int  (** body frame of a superpage; argument is the head frame index *)

val pp_state : Format.formatter -> state -> unit
val equal_state : state -> state -> bool
