(** Lock-discipline checker for the big kernel lock.

    The paper's kernel runs every system call under one big lock; the
    verification assumes mutations of kernel state happen only inside
    it.  Lockcheck shadows that assumption at runtime, lockdep-style:
    the SMP simulator reports lock acquire/release (with an acquisition
    site), the kernel's step observer brackets syscall execution, and
    the mutation stream (permission maps, allocator events, physical
    stores) reports every kernel-state mutation.  A mutation inside a syscall
    while the lock is not held files an [Unlocked_mutation] report with
    acquisition-site provenance; protocol breaks (double acquire,
    release without hold) file [Lock_misuse].

    Per-site deduplication keeps one hot unlocked path from flooding
    the report store; suppressed repeats are still counted. *)

val arm : unit -> unit
(** Reset state and start checking. *)

val disarm : unit -> unit
val armed : unit -> bool

val acquire : site:string -> cpu:int -> unit
(** The big lock was granted to [cpu]; [site] names the acquisition
    point (e.g. ["smp.big_lock"]).  Acquiring while held files
    [Lock_misuse]. *)

val release : cpu:int -> unit
(** Releasing while not held files [Lock_misuse]. *)

val locked : site:string -> cpu:int -> (unit -> 'a) -> 'a
(** Run a thunk under the lock (helper for harness code that mutates
    kernel state outside the SMP loop, e.g. boot and workload setup). *)

val held : unit -> bool

(** {2 Fine-grained lock classes}

    The broken-up big lock: per-CPU run-queue locks, sharded endpoint
    locks, and the exclusive permission-map writer lock, with the
    explicit hierarchy cpu-queue (rank 0) < endpoint shard (rank 1) <
    map-writer (rank 2).  Rank must strictly grow along any chain of
    acquisitions on one CPU; a violation files [Lock_order].  Holding
    any class licenses kernel-state mutations exactly as the big lock
    does. *)

type klass = Cpu_queue of int | Endpoint_shard of int | Map_writer

val rank : klass -> int
val klass_name : klass -> string

val acquire_class : site:string -> cpu:int -> klass -> unit
(** Push onto [cpu]'s held stack; files [Lock_order] when the rank
    does not strictly grow. *)

val release_class : cpu:int -> klass -> unit
(** Pop; releasing a class not held innermost files [Lock_misuse]. *)

val with_classes : site:string -> cpu:int -> klass list -> (unit -> 'a) -> 'a
(** Acquire the classes in list order, run the thunk, release in
    reverse. *)

val enter_step : unit -> unit
(** Step-observer brackets: mutations are only judged between
    [enter_step] and [exit_step] (kernel code running on behalf of a
    syscall); harness mutations outside any step are not the kernel's
    concern. *)

val exit_step : unit -> unit

val on_mutation : site:string -> page:int -> detail:string -> unit
(** A kernel-state mutation happened at [site].  Files
    [Unlocked_mutation] if armed, inside a step, and the lock is not
    held. *)

val acquisitions : unit -> (string * int) list
(** Acquisition sites seen since {!arm}, with counts — the provenance
    attached to violations. *)
