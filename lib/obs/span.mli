(** Typed spans with parent links, causal edges, and per-owner cycle
    accounting on top of the flight-recorder event stream.

    A span is an interval of the cycle timeline attributed to a kind
    (syscall, IPC rendezvous, TLB fill, driver submit/complete, ...)
    and an owner (container / process / thread pointers).  Spans nest
    per CPU; {!begin_} emits {!Event.Span_begin} with the enclosing
    span as parent, {!end_} emits {!Event.Span_end} and charges the
    span's {e self} cycles (duration minus completed children) to
    [cycles/container/<p>], [cycles/process/<p>], [cycles/thread/<p>],
    and [cycles/kind/<name>] counter families.  Root spans feed
    [cycles/total], so per-container totals sum to [cycles/total]
    exactly.

    Causal edges ({!Event.Causal}) connect spans across CPUs and
    threads: IPC send→recv, IRQ→endpoint delivery, driver
    submit→completion, scheduler wakeups.  Side tables
    ({!note_blocked} &c.) let an instrumentation site recorded at one
    point in time be linked from a later one.

    Zero-overhead contract: every entry point loads the sink flag
    first; with {!Sink.Disabled} nothing allocates, no clock is read,
    and no cycle-model state is touched. *)

type kind =
  | Request        (** application-level request root *)
  | Ipc_rendezvous (** kernel IPC rendezvous (fast or slow path) *)
  | Ctx_switch     (** scheduler picked a new current thread *)
  | Mmu_fill       (** TLB miss serviced by a page-table walk *)
  | Drv_submit     (** driver queued work / rang a doorbell *)
  | Drv_complete   (** driver harvested a completion *)
  | Irq            (** interrupt fired and was routed *)
  | User           (** simulated user-mode think time *)
  | Lock_wait      (** big-kernel-lock wait *)
  | App of int     (** registered application kind (code 16-63) *)
  | Syscall of int (** one syscall, by [Atmo_spec.Syscall.number] *)

val code : kind -> int
(** One-byte kind code as stored in events (syscall [n] maps to
    [64 + n]). *)

val register_app : string -> kind
(** Intern an application span kind by name (codes 16-63; idempotent
    per name).  {!label} resolves it back. *)

val label : kind -> string

val label_of_code : int -> string
(** Name for a raw kind code, preferring registered application names
    over the generic decoder names. *)

val begin_ : ?ts:int -> ?container:int -> ?proc:int -> ?thread:int -> kind -> int
(** Open a span on the current CPU ({!Sink.current_cpu}) and return its
    id, or 0 when tracing is disabled.  Owner fields default to the
    enclosing span's owners.  [?ts] stamps an explicit cycle time;
    otherwise {!Sink.now} is used. *)

val end_ : ?ts:int -> int -> unit
(** Close a span by id (no-op for id 0 or when tracing is disabled).
    Children still open above it are recorded as leaks (see {!leaked})
    and unwound. *)

val pair : ?ts:int -> ?container:int -> kind -> int
(** A batched zero-duration span: begin and end at one timestamp,
    written as a single packed {!Event.Span_pair} record (half the
    ring cost; {!Sink.records} re-expands it, so consumers see a
    normal begin/end pair).  For instantaneous markers — driver
    submit/complete, context switches — whose frames never enclose
    other work; zero duration charges no cycles, so no stack frame is
    pushed.  Parent and owner default from the enclosing open span.
    Returns the span id for causal linking, or 0 when tracing is off
    or the span was masked/sampled out.

    Admission (filtering {e and} sampling) for the whole span layer is
    decided per span at {!begin_}/{!pair} under the [span_begin] tag,
    so spans are always recorded whole or skipped whole. *)

val current : unit -> int
(** Id of the innermost open span on the current CPU, or 0. *)

type edge_kind = Ipc | Irq_delivery | Drv | Wakeup

val edge : edge_kind -> src:int -> dst:int -> unit
(** Emit a causal edge between two spans; dropped if either id is 0. *)

(** {2 Causal side tables} *)

val note_blocked : thread:int -> span:int -> unit
(** Remember the span during which [thread] parked on an endpoint. *)

val take_blocked : thread:int -> int
(** Consume the parked span for [thread] (0 if none). *)

val note_irq_pending : device:int -> span:int -> unit
val take_irq_pending : device:int -> int
val note_submit : device:int -> tag:int -> span:int -> unit
val take_submit : device:int -> tag:int -> int

(** {2 Introspection} *)

val open_spans : unit -> (int * int * int) list
(** Open spans as [(cpu, kind code, id)], sorted — at quiescence this
    must be empty; the sanitizer's span-balance lint checks it. *)

val leaked : unit -> (int * int * int) list
(** Spans that were left open when an enclosing span ended, sorted. *)

val clear_leaked : unit -> unit

val reset : unit -> unit
(** Drop all open-span stacks, side tables, leak records, and the
    slow-root ledger, and restart id allocation.  Call when
    (re)installing a sink. *)

val with_recorder : cpus:int -> slots:int -> (Flight.t -> 'a) -> 'a
(** [with_recorder ~cpus ~slots f] runs [f recorder] with fresh span
    state and a fresh flight recorder of [slots] slots on each of
    [cpus] rings installed.  However [f] returns, it then restores the
    {!Sink.Disabled} sink, the constant clock 0, CPU hint 0 and fresh
    span state.  The metrics registry is the caller's: it is neither
    reset nor cleared. *)

(** {2 Monitor feed}

    Hooks the online SLO monitor rides on.  Costs on the close path
    when nothing is armed: one threshold compare per closing request
    root and one int compare per span close for the tick; heartbeat
    counters go through cached handles like every other charge.

    Every closing [Request] root additionally observes its duration
    into the [lat/request] registry histogram, and every span close or
    packed pair bumps [sched/heartbeat/<cpu>] — the liveness signal the
    watchdog's cpu-silent rule consumes. *)

val set_slow_threshold : int -> unit
(** Request roots with duration strictly above this land in the
    slow-root ledger (default [max_int]: ledger off).  The monitor
    sets it to the tightest armed [lat/request] SLO limit. *)

val slow_roots : unit -> (int * int * int) list
(** Ledger of slow request roots as [(span id, duration, end ts)], in
    close order, capped at 64 — ids into the flight ring for exemplar
    capture, not the trails themselves. *)

val clear_slow : unit -> unit

val set_tick : at:int -> (int -> unit) -> unit
(** Arm the window tick: the first span close whose end timestamp
    reaches [at] invokes the callback with that timestamp (the monitor
    re-arms via {!set_tick_at}). *)

val set_tick_at : int -> unit

val clear_tick : unit -> unit
