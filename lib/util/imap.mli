(** Maps keyed by ints; executable counterpart of Verus [Map<K,V>]. *)

include Map.S with type key = int
(** [equal] returns [true] at once on a map and itself, and compares two
    physically equal values without calling its [eq]: maps kept between
    checks share their untouched entries. *)

val dom : 'a t -> Iset.t
(** Domain as a set — mirrors the ubiquitous [.dom()] of the paper's
    specifications. *)

val keys : 'a t -> int list

val fold_diff :
  (int -> 'a option -> 'a option -> 'b -> 'b) -> 'a t -> 'a t -> 'b -> 'b
(** [fold_diff f m m' acc] calls [f k (find_opt k m) (find_opt k m')]
    on each key, in increasing order, whose two values are not
    physically equal (present in one map only included); at once on
    [m == m'].  Every value kept between two persistent versions of a
    map is the same value, so these are the keys written in between. *)

val same_on_complement :
  eq:('a -> 'a -> bool) -> 'a t -> 'a t -> Iset.t -> bool
(** Both maps have the same domain outside [s] and [eq]-agree there; the
    standard "nothing outside the touched set changed" clause.  Only the
    keys {!fold_diff} yields are compared, so [eq] must be reflexive. *)
