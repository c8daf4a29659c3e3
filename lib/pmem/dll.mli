(** Intrusive doubly-linked list over small-int ids.

    The paper's allocator keeps free pages of each size on doubly-linked
    lists and stores, in each page's metadata, a pointer to its list node
    so that merging superpages can unlink a page in O(1).  Here the "node
    pointer" is the page's own index into the [prev]/[next] arrays — the
    same mechanism, with the same O(1) unlink, minus the raw pointers.

    An id may be a member of at most one position in the list at a time.
    All operations raise [Invalid_argument] on misuse (removing a
    non-member, pushing a member, out-of-range ids). *)

type t

val create : capacity:int -> name:string -> t
(** Ids range over [0, capacity). *)

val name : t -> string
val capacity : t -> int
val length : t -> int
val is_empty : t -> bool

val version : t -> int
(** The list's write version: it advances on every link or membership
    write, by {!push_front}, {!push_back}, {!remove} (and so the pops)
    and every {!Backdoor} setter, and never goes back.  Two equal
    readings of one list's version mean nothing in it changed between
    them. *)

val mem : t -> int -> bool
(** One bit test: membership is a bitmap beside the links. *)

val mem_range : t -> lo:int -> hi:int -> bool
(** Every id of [[lo, hi)] is a member (true for an empty range); 32
    ids per word compare.  Raises [Invalid_argument] if the range is not
    inside [[0, capacity)]. *)

val push_front : t -> int -> unit
val push_back : t -> int -> unit
val pop_front : t -> int option
val pop_back : t -> int option

val remove : t -> int -> unit
(** O(1) unlink of a member id — the constant-time removal the paper's
    page-metadata node pointers exist for. *)

val peek_front : t -> int option
val iter : t -> (int -> unit) -> unit
val to_list : t -> int list
(** Front-to-back order. *)

val find : t -> (int -> bool) -> int option
(** The first id, front to back, satisfying the predicate. *)

val wf : t -> (unit, string) result
(** Structural well-formedness: forward and backward traversals agree,
    lengths match, membership flags are consistent, no cycles, and no
    link points outside [\[0, capacity)] (reported, not raised).  This is
    the executable form of the allocator's free-list invariant.  One
    pass over the list and one over the membership bitmap, counting
    32 flags per word. *)

(** {2 Test backdoor}

    For tests that plant corruptions: raw writes that bypass every
    guard and may leave the list ill-formed.  No kernel code calls
    them. *)
module Backdoor : sig
  val set_next : t -> int -> int -> unit
  (** [set_next t id n] re-points [id]'s forward link ([-1] is nil). *)

  val set_prev : t -> int -> int -> unit
  (** [set_prev t id p] re-points [id]'s backward link. *)

  val set_member : t -> int -> bool -> unit
  (** Flip [id]'s membership flag, leaving the links alone. *)
end
