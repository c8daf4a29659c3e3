(** The scheduler's run queue: an intrusive O(1) deque over thread
    object pages.

    A thread's deque node is its own frame index into the underlying
    {!Atmo_pmem.Dll} prev/next arrays, so enqueue, dequeue and the
    detach of a blocking thread are all constant-time — the former
    [int list] representation paid an O(n) filter on every blocking
    send/receive.  Capacity covers every physical frame, so any thread
    object page is addressable. *)

type t

val create : Atmo_hw.Phys_mem.t -> t
(** One slot per physical frame of the machine. *)

val length : t -> int
val is_empty : t -> bool

val version : t -> int
(** The deque's write version ({!Atmo_pmem.Dll.version}): equal
    readings mean no push, pop or remove came between them. *)

val versions : t array -> int array

val at_versions : t array -> int array -> bool
(** Every deque is at the version {!versions} read; allocates
    nothing. *)

val mem : t -> int -> bool

val push_back : t -> int -> unit
(** Enqueue at the tail.  Raises [Invalid_argument] if the thread is
    already queued or its address is not a page base. *)

val push_front : t -> int -> unit
val pop_front : t -> int option

val pop_back : t -> int option
(** Dequeue from the tail — the thief's end of the work-stealing split:
    owners pop the front, stealing CPUs take the back. *)

val peek_front : t -> int option

val remove : t -> int -> unit
(** O(1) unlink of a queued thread; raises if absent. *)

val remove_if_queued : t -> int -> unit
(** Unlink if queued, no-op otherwise (termination sweeps threads in
    any scheduling state). *)

val drain : t -> int list
(** Empty the queue, returning its threads front to back; the queue
    stays usable. *)

val iter : t -> (int -> unit) -> unit

val to_list : t -> int list
(** Front-to-back order — the abstraction function to the
    specification's [run_queue : int list]. *)

val wf : t -> (unit, string) result
(** Structural well-formedness of the underlying deque (traversals
    agree, no cycles, membership flags consistent). *)
