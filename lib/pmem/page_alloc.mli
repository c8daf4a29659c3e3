(** The physical page allocator.

    Faithful executable model of the paper's allocator (§4.2): dynamic
    memory for kernel objects and user mappings is handed out at 4 KiB,
    2 MiB and 1 GiB granularity from three doubly-linked free lists; a
    flat page-metadata array supports O(1) unlink when 4 KiB frames are
    merged into superpages; every frame is always in exactly one of the
    states free / allocated / mapped / merged.  The array is dense: one
    code byte per frame for the state's tag and the block size, and one
    int for a reference count or a merged frame's head (see
    {!Page_state}), so a scan compares eight frames per 64-bit load.

    The allocator exposes its internal state as sets (the paper's
    "explicit memory allocator state"), which the kernel's leak-freedom
    and safety invariants quantify over. *)

type purpose =
  | Kernel  (** frame will hold a kernel object or page-table node *)
  | User  (** frame will be mapped into an address space (refcounted) *)

type t

val create : Atmo_hw.Phys_mem.t -> reserved_frames:int -> t
(** Manage all frames of the memory except the first [reserved_frames]
    (boot image, per-CPU data: outside the allocator, like the paper's
    trusted boot environment). *)

val mem : t -> Atmo_hw.Phys_mem.t
(** The physical memory this allocator manages. *)

(** {2 Allocator events}

    Every change of a frame's state or size is emitted as one {!Alloc}
    event on {!Atmo_util.Mutation} (kind [Alloc]) and counted under the
    always-on map id {!map_id}, whoever subscribes; the event is
    built only when someone does.  [Free_request] fires at the entry of
    {!free_kernel_page}/{!dec_ref} {e before} the allocator's own state
    guard, so an external checker can classify a double free even
    though the allocator will also reject it. *)

type event =
  | Created of t  (** a fresh allocator came up (all managed frames free) *)
  | Claim of { alloc : t; addr : int; frames : int; purpose : purpose }
      (** a block of [frames] 4 KiB frames headed at [addr] left a free list *)
  | Free_request of { alloc : t; addr : int; what : string }
      (** a caller asked to release [addr] via entry point [what] *)
  | Release of { alloc : t; addr : int; frames : int }
      (** a block actually returned to its free list *)
  | Merge of { alloc : t; addr : int; frames : int }
      (** free blocks were merged into one free block of [frames] 4 KiB
          frames headed at [addr] *)
  | Split of { alloc : t; addr : int; frames : int }
      (** the free block of [frames] frames headed at [addr] was split
          into smaller free blocks *)
  | Share of { alloc : t; addr : int }
      (** one more mapping of the mapped block headed at [addr]
          ({!inc_ref}) *)

type Atmo_util.Mutation.event += Alloc of event

val map_id : string
(** ["pmem/alloc"]: the map id of every allocator's frame states. *)

val managed_frames : t -> int
val free_count_4k : t -> int
val free_count_2m : t -> int

val alloc_4k : t -> purpose:purpose -> int option
(** Allocate and zero a 4 KiB frame; returns its base address.  Splits a
    free 2 MiB block on demand when the 4 KiB list is empty.  [None]
    models out-of-memory. *)

val alloc_2m : t -> purpose:purpose -> int option
(** Allocate a 2 MiB block; merges free 4 KiB frames on demand (scanning
    the page array, unlinking each constituent in O(1)), or splits a free
    1 GiB block. *)

val alloc_1g : t -> purpose:purpose -> int option

val free_kernel_page : t -> addr:int -> unit
(** Return an [Allocated] block of any size to its free list.  Raises
    [Invalid_argument] if the frame is not an allocated head. *)

val inc_ref : t -> addr:int -> unit
(** Additional mapping of a [Mapped] block (page shared over IPC). *)

val dec_ref : t -> addr:int -> [ `Freed | `Live ]
(** Drop one mapping; the block returns to its free list when the count
    reaches zero. *)

val ref_count : t -> addr:int -> int option
(** Reference count of a mapped head frame, if the frame is mapped. *)

val state_of : t -> addr:int -> Page_state.state option
(** Metadata of the frame containing [addr]; [None] if unmanaged. *)

val size_of : t -> addr:int -> Page_state.size option
(** Block size if [addr] is a block head. *)

val is_free : t -> addr:int -> bool
(** The paper's [page_is_free] spec function. *)

val atomically : t -> (unit -> ('a, 'e) result) -> ('a, 'e) result
(** [atomically t f] runs [f], journaling every superpage merge and
    split the allocator makes meanwhile.  When [f] returns [Error _],
    having released every block it claimed, the journal is replayed
    backwards — merged blocks are split, split blocks merged again — so
    every spec view below is exactly as before [f].  Nothing is
    journaled outside [atomically]; it does not nest.  Used by the
    kernel to make a failing multi-block superpage mmap side-effect
    free. *)

(** {2 Spec views (ghost state)} *)

type views = {
  free_4k : Atmo_util.Frame_set.t;
  free_2m : Atmo_util.Frame_set.t;
  free_1g : Atmo_util.Frame_set.t;
  merged : Atmo_util.Frame_set.t;
  allocated : Atmo_util.Iset.t;
  mapped : Atmo_util.Iset.t;
}

val views : t -> views
(** All six state sets, from one scan of the page array: the four large
    ones dense over the managed frames, the two the specs do set
    algebra on as {!Atmo_util.Iset}s.  The scan visits maximal runs of
    frames with equal code bytes, eight frames per compare, and adds a
    free or merged run to its set as one range.  Each set equals the
    frame by frame answers of {!state_of} and {!size_of}.

    The scan reads only the page array, so its result is kept with the
    array's write version ({!version}).  While the version stands,
    [views] returns that same record: two calls with no write between
    them are physically equal, and so are their sets, which
    {!Atmo_util.Iset.equal} and {!Atmo_util.Frame_set.equal} then
    compare at once.  After writes the log holds ({!written_since}),
    up to 64 written frames, each moves from the kept set that held it
    to the one its state names now ({!Atmo_util.Frame_set.flip}, and
    [add]/[remove] on the two {!Atmo_util.Iset}s), and a set no written
    frame entered or left is the kept record's own.  Past that, one
    scan reads them all, and each set equal to the kept record's is
    still that record's own ([allocated] and [mapped] are built from
    the kept ones, {!Atmo_util.Iset.of_sorted_over}).  The record is
    published with one field write, so calls racing on other domains
    see it whole. *)

(** {3 Accessors}

    [allocated_pages] and [mapped_pages] are the view's own sets.  The
    four dense sets are built on each call by one scan of their own,
    without the other views, and without a sort
    ({!Atmo_util.Iset.of_sorted_list}). *)

val free_pages_4k : t -> Atmo_util.Iset.t
(** Base addresses of free 4 KiB frames. *)

val free_pages_2m : t -> Atmo_util.Iset.t
val free_pages_1g : t -> Atmo_util.Iset.t

val allocated_pages : t -> Atmo_util.Iset.t
(** Head addresses of blocks in the [Allocated] state. *)

val mapped_pages : t -> Atmo_util.Iset.t
val merged_pages : t -> Atmo_util.Iset.t
(** Addresses of body frames absorbed into superpage blocks. *)

val frames_of_block : t -> addr:int -> Atmo_util.Iset.t
(** All 4 KiB frame addresses covered by the block headed at [addr]. *)

val try_merge_2m : t -> bool
(** Attempt to form one free 2 MiB block from 512 aligned free 4 KiB
    frames; [true] on success.  Exposed for tests; [alloc_2m] calls it on
    demand. *)

val try_merge_1g : t -> bool
(** Promote one aligned gigabyte region whose every 2 MiB group is a
    free 2 MiB block or 512 free 4 KiB frames.  The region is chosen
    before anything is merged: [false] means nothing changed. *)

val version : t -> int
(** The page array's write version.  It advances on every write to a
    frame's state, size, reference count or head: the allocator's own
    and {!Backdoor.set_frame}'s.  Each write also logs the frames it
    wrote ({!written_since}). *)

val written_since : t -> int -> (int -> unit) -> bool
(** [written_since t v f] calls [f] on the address of every frame
    written since version [v] (a frame may come more than once) and is
    [true], or is [false] without calling [f] when the page array's log
    does not hold every write since [v]: it holds the last
    {!Dll.log_length} writes, from the first {!wf} or {!views} that
    kept a result on (an allocator never checked logs nothing).  A
    merge or split writes a block's body frames as one range. *)

val wf : t -> (unit, string) result
(** The allocator's well-formedness invariant: free lists structurally
    sound, list membership consistent with frame states, every list
    member a managed frame, merged frames point into a live superpage
    head of the right size and alignment, reference counts positive,
    and the four state sets partition the managed frames.

    The frame checks are one scan over the runs of equal code bytes.
    Each free run is tested against its list's membership bitmap as a
    range; with equal counts per size, that proves each list is exactly
    the set of aligned free frames of its size.  Only when that fails
    are the lists walked member by member, to name the first culprit.
    The error is the first violation in a fixed order: list structure,
    list members' states, sizes and alignment, list members outside the
    managed frames, each frame's own invariant (an unlisted free frame
    before it first), then superpage bodies.

    The check reads the page array and the three free lists and
    nothing else, so its input is keyed by their write versions: the
    array's ({!version}) and each list's ({!Dll.version}).  A clean
    verdict is kept with the key read before the check, and while the
    key stands [wf] returns [Ok ()] at once; an error is never kept.
    After writes the logs hold (at most 256 written frames), a
    per-range run checks, from the kept clean verdict, only what was
    written: each written frame's own rule, its list membership (free
    exactly when on its own size's list and on no other), the bodies of
    a superpage it heads, the head whose block covers it, and the
    unwritten bodies still naming it; each written list id's membership
    against its frame's state; and each list's structure per range
    ({!Dll.wf_since}: back links mirrored at the written ids, the
    ends, the member count against the length, which then is the free
    count, and a walk from each written member to an end, which rules
    out a detached cycle).  It passes only when the full check would.  When
    it finds anything, or the logs no longer reach back, the full check
    runs, so every message is the full check's.  The lists carry their
    own versions because {!Backdoor.free_list} hands them out, and a
    caller may edit them through {!Dll} with no allocator code running.
    The allocator map's mutation count ({!map_id}) is not a key: every
    allocator shares it, and backdoor writes do not tick it.  The key
    is recorded with one field write, as the views are. *)

(** {2 Test backdoor}

    For tests that plant corruptions: raw writes that bypass every
    guard of the allocator and may leave it ill-formed.  No kernel code
    calls them. *)
module Backdoor : sig
  val set_frame : t -> frame:int -> Page_state.state -> Page_state.size -> unit
  (** Overwrite frame [frame]'s state (with its reference count or
      head) and size. *)

  val free_list : t -> Page_state.size -> Dll.t
  (** The free list of a size, to link, unlink or re-point members
      with {!Dll} and {!Dll.Backdoor}. *)

  val cache_free : (unit -> 'a) -> 'a
  (** [cache_free f] runs [f] with every allocator's {!wf} and
      {!views} (and so the accessors built on them) evaluated in full,
      reading and keeping nothing, and leaves each allocator's kept
      state as it was: for oracle tests that compare the keyed results
      with cache-free ones without cutting the chain of per-range
      runs. *)
end
