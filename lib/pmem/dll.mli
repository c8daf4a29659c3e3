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

val log_length : int
(** How many writes the list's log holds.  Once started, the log
    records each write above under its version: the ids whose links or
    membership it changes and the old target of every link it writes
    ([first] and [last] included); the new targets are among the
    changed ids.  A reader whose version is more than [log_length]
    writes behind, or older than the log, reads nothing from it. *)

val start_log : t -> unit
(** Log every write from now on (nothing if already logging).  A list
    logs nothing until a reader starts its log, so lists no check reads
    per range (run queues, worlds never checked) pay one length test
    per write and no memory. *)

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

val full_walks : unit -> int
(** How many times {!wf} has walked a list, over every list of the
    process: a per-range check that answered alone leaves it as it
    was. *)

val wf_since : t -> int -> (int -> bool) -> bool
(** [wf_since t v visit], for a list whose {!wf} held at version [v],
    is [true] only if {!wf} holds now.  It reads only what the writes
    since [v] logged, and calls [visit] on every logged id in
    [\[0, capacity)] (an id may come more than once): a [visit] that
    returns [false] fails the check, so a caller checks its own rules
    at the written ids in the same pass.  It is [false], having visited
    nothing, when the log does not reach back to [v], and [false] when
    a rule fails, so a [false] says nothing about {!wf}.  The rules:
    each logged member's back link is in range and mirrored by its
    predecessor, or it is [first]; neither old neighbour of a logged
    non-member still links to it; the member flags number [length];
    the ends are both nil or members with nil outer links (a remove
    through a corrupted link can leave an end naming a non-member); and
    a walk from each logged member, a step forward and a step back in
    turn, reaches an end.  Because every write logged the old targets
    of the links it moved, an unlogged member is still mirrored, so
    with every back link mirrored each member is its predecessor's
    successor: the members form one chain from [first] to [last] (the
    one member whose forward link is nil) and maybe detached cycles.
    The count catches a member spliced in or lost, and a cycle born
    since [v] holds a logged member, which the walk rules out.  The walks share a budget
    of one list length, and past it (or past 32 walks) the full {!wf}
    decides. *)

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
