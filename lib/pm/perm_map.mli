(** Flat linear permission maps.

    Executable model of the paper's
    [Tracked<Map<Ptr, PointsTo<T>>>] fields: all permissions to the
    objects of one kind live in a single flat map at the top of the
    subsystem.  Verus enforces linearity statically; here the same
    discipline is enforced dynamically — a permission is created exactly
    once per allocation ({!alloc}), must be presented for every access
    ({!borrow} / {!update}), and is consumed exactly once at deallocation
    ({!consume}).  Violations raise {!Permission_violation}, the runtime
    analogue of a Verus type error.

    Stored values are immutable records; updates are functional, echoing
    Verus's setter functions for tracked permissions. *)

exception Permission_violation of string

type 'a t

(** {2 Mutations on the stream}

    Every mutation attempt ({!alloc}, {!consume}, {!update}) is counted
    under the always-on map id {!id} of its name (shared by every map
    with that name, scratch worlds included) and, when someone subscribes to
    kind [Perm] of {!Atmo_util.Mutation}, emitted as a {!Perm} event —
    both before the linearity guard.  Borrows are reads and are not
    reported. *)

type op = Alloc | Consume | Update

type Atmo_util.Mutation.event += Perm of { name : string; op : op; ptr : int }

val id : string -> string
(** ["pm/<name>"]: the map id counting every mutation of the maps named
    [name], which obligations list in their read sets. *)

val dom_id : string -> string
(** ["pm/<name>/dom"]: the map id of domain changes only ([Alloc] and
    [Consume]; an [Update] leaves it clean), for readers that depend on
    which objects exist but not on their contents. *)

val create : name:string -> 'a t
val name : 'a t -> string

val alloc : 'a t -> ptr:int -> 'a -> unit
(** Install the permission for a freshly allocated object page.  Raises
    {!Permission_violation} if a permission for [ptr] already exists
    (double allocation). *)

val consume : 'a t -> ptr:int -> 'a
(** Remove and return the permission at deallocation.  Raises if
    absent (double free / use of a dangling pointer). *)

val borrow : 'a t -> ptr:int -> 'a
(** Read access through the permission; raises if absent. *)

val borrow_opt : 'a t -> ptr:int -> 'a option

val update : 'a t -> ptr:int -> ('a -> 'a) -> unit
(** Mutate by functional replacement; raises if absent. *)

val map : 'a t -> 'a Atmo_util.Imap.t
(** The current persistent map, in O(1).  Every write replaces it with
    a map that shares the untouched entries, so two readings with no
    write between them are physically equal, and
    {!Atmo_util.Imap.fold_diff} yields the pointers written in
    between. *)

val mem : 'a t -> ptr:int -> bool
val dom : 'a t -> Atmo_util.Iset.t
val cardinal : 'a t -> int
val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val for_all : (int -> 'a -> bool) -> 'a t -> bool

val bindings : 'a t -> (int * 'a) list
(** All (pointer, permission) pairs in increasing pointer order; the
    map's ghost-state view for auditors and tests. *)
