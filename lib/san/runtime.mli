(** atmo-san orchestration: owns the sanitizer's subscriptions.

    {!arm} subscribes once to {!Atmo_util.Mutation} for physical
    accesses, allocator events and permission-map mutations, and
    installs the kernel step observer, routing them to {!Memsan} and
    {!Lockcheck}; {!disarm} unsubscribes, restoring the zero-cost
    paths everywhere.  The substrates know nothing of the sanitizer:
    they only emit on the stream. *)

val arm : ?poison:bool -> ?lockcheck:bool -> ?attribution:bool -> unit -> unit
(** Start sanitizing.  Defaults: [poison:false] (free-page poisoning
    materialises freed frames, perturbing sparsity-sensitive tests),
    [lockcheck:false] (test harnesses legitimately call [Kernel.step]
    without the SMP big lock), [attribution:false] (per-step
    container-ownership snapshots).  [atmo san] enables all three. *)

val disarm : unit -> unit
val armed : unit -> bool

val attach : Atmo_core.Kernel.t -> unit
(** Point the sanitizer at a kernel: shadows its allocator (needed when
    the kernel booted before {!arm}) and becomes the subject of
    attribution snapshots. *)

val wf_check : Atmo_core.Kernel.t -> int
(** File every violation of every {!Atmo_core.Invariants.table} entry
    as a report under its rule, with the entry's name as the site;
    returns the number filed.  The table is the one definition of
    well-formedness: [total_wf] reports the first of these. *)

val full_check : Atmo_core.Kernel.t -> int
(** Run the on-demand whole-state checks — {!wf_check},
    {!Tlb_lint.lint}, {!Span_lint.lint}, {!Driver_lint.lint},
    {!Proof_lint.lint} and {!Watchdog_lint.lint} — returning the number
    of new violations.  Call at quiescence: drivers drained, no
    requests in flight. *)

val arm_of_env : unit -> unit
(** Arm (memsan only) when the [SAN] environment variable is [1] — the
    [SAN=1 dune runtest] mode.  No-op otherwise. *)

val exit_check : unit -> unit
(** If armed and violations were recorded, print the report summary on
    stderr and exit with status 1.  For test-runner mains. *)
