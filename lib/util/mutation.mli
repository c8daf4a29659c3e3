(** The one observation stream over kernel state.

    Verus sees every kernel-state change because a linear ghost
    permission is threaded through each mutation.  The executable
    stand-in sees them through this stream instead: each state layer
    extends {!event} with its own constructor and emits it at every
    mutation site, and analyses ({!Atmo_san.Runtime},
    {!Atmo_verif.Incremental}) subscribe to the kinds they need.

    {b Cost.}  A site's guard is {!wants} (or {!tick} at a counted
    site): one load of the interest mask (the union of the current
    subscriptions' kinds) and one mask.  Sites build their event only
    after the guard passes, so with nothing subscribed to a kind its
    sites allocate nothing and the run is bit-identical to one without
    the stream.

    {b Intrinsic counters.}  Layers whose mutations the incremental
    verifier tracks also keep an always-on counter per map id, bumped
    before the guard ({!tick}).  The counters never depend on the
    subscriber list, so atmo_san's [stale-proof] lint can audit a
    subscriber's observed count against them. *)

type event = ..
(** Extended by each layer: [Phys_mem.Access], [Page_alloc.Alloc],
    [Perm_map.Perm], [Page_table.Pt_changed],
    [Kernel.Devices_changed]. *)

type kind =
  | Access  (** physical-memory load, store or zero *)
  | Alloc  (** page-allocator state change *)
  | Perm  (** permission-map alloc, consume or update *)
  | Pt  (** structural change to any page table *)
  | Devices  (** device-table or IRQ-backlog change *)

val subscribe : key:string -> kinds:kind list -> (event -> unit) -> unit
(** [subscribe ~key ~kinds f] calls [f] on every event of the listed
    kinds, replacing any subscriber already registered under [key].
    Subscribers are called in subscription order. *)

val unsubscribe : key:string -> unit

val wants : kind -> bool
(** Some subscriber listed this kind: the guard of an uncounted emit
    site. *)

val emit : kind -> event -> unit
(** Deliver an event of the given kind to its subscribers.  Call only
    under a guard ([wants kind], or [tick] of a counter of that kind). *)

(** {2 Intrinsic counters} *)

type counter

val counter : kind -> string -> counter
(** The counter for a map id of the given kind (["pm/<name>"],
    ["pmem/alloc"], ["pt"], ["kernel/devices"]), interned on first use:
    every state instance with the same id shares it, scratch worlds
    included.  Safe to call from parallel domains. *)

val tick : counter -> bool
(** Count one mutation (atomically, whoever subscribes), then tell
    whether a subscriber wants the counter's kind: the guard of a
    counted emit site. *)

val count : string -> int
(** Mutations counted under the id since start-up; [0] for an id never
    interned. *)

val ids : unit -> string list
(** Every id interned so far, sorted. *)
