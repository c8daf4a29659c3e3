(** Sink registry: where tracepoints go.

    Exactly one sink is installed at a time, process-global.  With
    {!Disabled} (the default) every tracepoint reduces to a single
    load+mask of the per-tag enable word — the [emit_*] writers test it
    before constructing anything — and nothing observable happens: the
    cycle model of an instrumented run is bit-identical to an
    uninstrumented one.  Tracing is cycle-model-neutral even when a
    flight recorder is installed; recording costs host time only.

    The hot path allocates nothing: {!Flight.reserve} bumps the ring
    cursor and the writer stores the five slot words in place.  The
    writers are the slot format's only encoder ({!Event.decode_at} is
    its only decoder); the tests compare their arena bytes with a boxed
    oracle encoder.  Admission is per event kind: a tag
    bitmask ({!set_filter}) and a power-of-two sample shift
    ({!set_sample}) are checked before any field is written, and exact
    per-tag tallies ([obs/emitted/<kind>], [obs/sampled_out/<kind>],
    [obs/bad_cpu]) survive even when ring slots are overwritten. *)

type t =
  | Disabled
  | Flight of Flight.t  (** record encoded events into per-CPU rings *)

val install : t -> unit
(** Install a sink.  Installing a {!Flight} recorder starts a fresh
    session: per-tag tallies and the sampling phase reset (so seeded
    runs are deterministic); pending tallies of the outgoing session
    are published first.  The filter mask and sample shifts persist
    across installs. *)

val installed : unit -> t

val tracing : unit -> bool
(** [false] iff the installed sink is {!Disabled}.  Tracepoint guard. *)

val tracing_tag : int -> bool
(** [tracing_tag tag] is one load+mask: true iff a recorder is
    installed {e and} [tag]'s filter bit is set.  What instrumentation
    sites (and the [emit_*] writers themselves) check before any event
    construction. *)

val set_filter : int -> unit
(** Set the per-tag enable bitmask (bit [t] enables tag [t]; out-of-
    range bits are ignored).  Default: {!Event.all_tags_mask}.  Takes
    effect immediately if a recorder is installed.  Note the span
    layer is governed by the [span_begin] bit alone — span ends and
    packed pairs follow their span's admission so begin/end stay
    balanced. *)

val get_filter : unit -> int

val set_sample : tag:int -> shift:int -> unit
(** Keep 1 in [2^shift] admitted events of [tag] ([shift = 0], the
    default, keeps every event).  Deterministic: a per-tag counter
    decides, so the same event sequence samples identically.  Rejected
    events are tallied in [obs/sampled_out/<kind>].  Raises
    [Invalid_argument] for a bad tag or [shift] outside [0..30]. *)

val set_sample_all : shift:int -> unit
(** {!set_sample} for every tag. *)

val admit : int -> bool
(** The full admission gate: {!tracing_tag} plus the sampling decision
    (tallying a rejection).  The [emit_*] writers call it internally;
    it is exposed for the span layer, which must learn the decision at
    [begin_] time so a sampled-out span can be skipped whole. *)

val set_clock : (unit -> int) -> unit
(** Inject the cycle-timestamp source (default: constant 0).  Owned by
    whoever drives the timeline — the SMP simulator or the trace CLI —
    so instrumented kernel code stays clock-free. *)

val now : unit -> int

val set_cpu : int -> unit
(** The recording CPU of every event written from now on (default 0).
    An out-of-range CPU files the event on ring 0 and counts
    [obs/bad_cpu]. *)

val current_cpu : unit -> int

(** {2 Zero-allocation per-tag writers}

    One writer per event kind, mirroring {!Event.t} field for field.
    Each checks {!admit} first (one load+mask when the tag is off),
    then writes the 40-byte slot directly into the recorder arena —
    no [Event.t], no intermediate buffer, no copy.  The timestamp is
    the injected clock ({!set_clock}) and the ring the CPU hint
    ({!set_cpu}). *)

val emit_syscall_enter : thread:int -> sysno:int -> unit -> unit

val emit_syscall_exit :
  thread:int -> sysno:int -> errno:Atmo_util.Errno.t option -> unit -> unit

val emit_page_alloc : addr:int -> order:int -> unit -> unit
val emit_page_free : addr:int -> order:int -> unit -> unit
val emit_superpage_merge : head:int -> order:int -> unit -> unit
val emit_ep_create : container:int -> unit -> unit
val emit_ep_send : ep:int -> sender:int -> receiver:int -> unit -> unit
val emit_ep_recv : ep:int -> receiver:int -> sender:int -> unit -> unit
val emit_ep_block : ep:int -> thread:int -> dir:Event.dir -> unit -> unit
val emit_mmu_walk : vaddr:int -> ok:bool -> unit -> unit
val emit_pte_touch : table:int -> index:int -> unit -> unit
val emit_drv_doorbell : device:int -> queue:int -> unit -> unit
val emit_drv_completion : device:int -> count:int -> unit -> unit
val emit_lock_acquire : cpu_id:int -> wait_cycles:int -> unit -> unit
(** [cpu_id] is the event payload (the CPU that won the lock); the
    recording ring is still the {!set_cpu} hint. *)

val emit_tlb_hit : vaddr:int -> unit -> unit
val emit_tlb_miss : vaddr:int -> unit -> unit
val emit_tlb_flush : asid:int -> entries:int -> unit -> unit
val emit_ep_fastpath : ep:int -> sender:int -> receiver:int -> unit -> unit
val emit_causal : edge:int -> src:int -> dst:int -> unit -> unit
val emit_dev_fault : device:int -> fault:int -> unit -> unit
val emit_dev_recover : device:int -> fault:int -> unit -> unit

(** The three span writers do {e not} consult {!admit}: the span layer
    makes one admission decision per span (under the [span_begin] tag)
    and these only write, so a span is recorded whole or not at all.
    They alone take [?ts], which overrides the injected clock: the span
    layer stamps a span with the cycle its caller measured. *)

val emit_span_begin :
  ?ts:int -> span:int -> parent:int -> kind:int -> owner:int -> unit -> unit

val emit_span_end : ?ts:int -> span:int -> kind:int -> owner:int -> unit -> unit

val emit_span_pair :
  ?ts:int -> span:int -> parent:int -> kind:int -> owner:int -> unit -> unit

val records : unit -> Event.record list
(** Decode every live slot of the installed recorder in place, merged
    across CPUs and sorted by timestamp (monotone int compare); [[]]
    when disabled.  Packed {!Event.Span_pair} records are expanded
    back into begin/end pairs, so consumers see the unbatched stream.
    Publishes pending tallies first. *)

val dropped : unit -> int
(** Total events overwritten across all rings of the installed sink
    (lossless lifetime count).  Publishes pending tallies first. *)

val publish_counters : unit -> unit
(** Flush the per-tag emitted/sampled-out tallies and the bad-CPU
    count into the metrics registry ([obs/emitted/<kind>],
    [obs/sampled_out/<kind>], [obs/bad_cpu]) by delta.  Idempotent;
    also runs on {!install}, {!records} and {!dropped}. *)

val emitted_count : tag:int -> int
(** Events of [tag] admitted this session (exact even when slots
    dropped); 0 for an out-of-range tag. *)

val sampled_out_count : tag:int -> int
(** Events of [tag] rejected by sampling this session. *)

val bad_cpu_count : unit -> int
(** Events filed to ring 0 because their CPU was out of range. *)
