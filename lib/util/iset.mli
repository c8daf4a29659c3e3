(** Sets of ints (frame numbers, pointers, object ids).

    The paper's ghost state is phrased as [Set<T>] and [Map<K,V>]; this and
    {!Imap} are their executable counterparts.  Thin wrapper over
    [Stdlib.Set.Make (Int)] with a few spec-level helpers. *)

include Set.S with type elt = int
(** [equal] returns [true] at once on a set and itself. *)

val of_sorted_list : int list -> t
(** The set of a strictly increasing list, in linear time, where
    [of_list] sorts it first.  [Stdlib.Set] builds a tree from a sorted
    list only inside [of_list], so this builds one half, maps the other
    half's values onto its shape ([map] visits in increasing order), and
    joins the two around the middle element. *)

val of_sorted_over : t -> int list -> t
(** [of_sorted_over s l] is the set of the strictly increasing list [l],
    found by one merge walk against [s]: [s] itself when [l] lists
    [s]'s elements, [s] with the differences added and removed when
    there are a few, a set built in linear time over [s]'s shape when
    [l] has [s]'s size, and [of_sorted_list l] otherwise.  For
    re-reading a set that seldom changes much. *)

val of_range : lo:int -> hi:int -> t
(** Frames [lo], [lo+1], ..., [hi-1]. *)

val pp : Format.formatter -> t -> unit

val union_list : t list -> t

val pairwise_disjoint : t list -> bool
(** Pairwise disjointness of a family; the core of the paper's
    [page_closure] safety argument. *)
