(** Shadow permission map: dynamic flat-permission checking of every
    physical-memory access.

    The paper stores one linear permission per physical frame in a flat
    map at the top of each subsystem; Verus then proves every load and
    store presents a live permission.  Memsan is the runtime shadow of
    that discipline: it mirrors each tracked {!Atmo_hw.Phys_mem} with
    one state byte per 4 KiB frame (reserved / never-allocated / live
    kernel / live user / freed / poisoned-free), kept in sync by the
    allocator's events, and validates every physical access against
    it.

    Memsan holds only handlers and state; {!Runtime}'s subscription to
    {!Atmo_util.Mutation} feeds it. *)

type attr = {
  owners : Atmo_util.Iset.t;  (** containers with a mapping of the frame *)
  writable : bool;  (** at least one mapping is writable *)
}

val reset : poison:bool -> unit
(** Forget all shadows and configure free-page poisoning.  With
    [poison:true] every released frame is filled with the poison byte
    and re-validated at its next claim, catching stale-pointer writes
    that happened while nothing observed them. *)

val poisoning : unit -> bool

val track : Atmo_pmem.Page_alloc.t -> unit
(** (Re)build the shadow of an allocator's memory from its current
    public state — used for allocators created before arming.
    Allocators created after arming are tracked automatically through
    the [Created] event. *)

val tracking : unit -> bool
(** True iff at least one memory is shadowed. *)

val on_access : Atmo_hw.Phys_mem.t -> Atmo_hw.Phys_mem.access_op -> int -> int -> unit
(** [Access] handler: validate one load/store/zero against the
    shadow.  Accesses to untracked memories are ignored. *)

val on_event : Atmo_pmem.Page_alloc.event -> unit
(** [Alloc] handler: transition shadow frame states on
    claim/free/release, filing [Double_free] / [Claim_of_live] /
    [Poison_trample] reports as they are detected. *)

val suspend : (unit -> 'a) -> 'a
(** Run a thunk with checking inhibited (reentrancy guard: the
    sanitizer's own poison fills and harness bookkeeping must not
    sanitize themselves). *)

val checked : unit -> int
(** Number of accesses validated since the last {!reset}. *)

(** {2 Container attribution (optional)}

    When a snapshot is installed and an executing container is known
    (set by {!Runtime}'s step observer), accesses to live user frames
    are additionally checked for cross-container reaches
    ([Foreign_page]) and stores through read-only-everywhere frames
    ([Bad_write_ro]).  Frames absent from the snapshot are skipped —
    attribution is conservative and never reports on stale data. *)

val set_attribution : (int, attr) Hashtbl.t option -> unit
(** Install a frame-base -> attribution snapshot (or clear it). *)

val set_context : int option -> unit
(** Container on whose behalf the kernel is currently executing. *)
