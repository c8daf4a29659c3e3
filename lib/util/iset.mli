(** Sets of ints (frame numbers, pointers, object ids).

    The paper's ghost state is phrased as [Set<T>] and [Map<K,V>]; this and
    {!Imap} are their executable counterparts.  Thin wrapper over
    [Stdlib.Set.Make (Int)] with a few spec-level helpers. *)

include Set.S with type elt = int
(** [equal] returns [true] at once on a set and itself. *)

val of_range : lo:int -> hi:int -> t
(** Frames [lo], [lo+1], ..., [hi-1]. *)

val pp : Format.formatter -> t -> unit

val disjoint3 : t -> t -> t -> bool
(** Pairwise disjointness of three sets. *)

val union_list : t list -> t

val pairwise_disjoint : t list -> bool
(** Pairwise disjointness of a family; the core of the paper's
    [page_closure] safety argument. *)
