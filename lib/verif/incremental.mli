(** Incremental obligation discharge: per-transition dirty sets.

    Verus re-verifies only the functions whose dependencies changed;
    this layer gives the executable verifier the same locality.  A
    process-global {e dirty tracker} subscribes once to
    {!Atmo_util.Mutation} for every state container with a map id —
    {!Atmo_pm.Perm_map} (per-map), {!Atmo_pmem.Page_alloc},
    {!Atmo_pt.Page_table} and the kernel device table — and records,
    per {e map id}, how many mutations it
    has observed ([seen]) versus how many had been observed when each
    map's obligations were last discharged ([acked]).  A map is dirty
    iff [seen > acked]; {!run} re-discharges only obligations whose
    {!Obligation.t.reads} intersect the dirty set and splices cached
    verdicts for the rest, acking everything on completion.

    {b Map ids.}  Each layer defines its own:
    {!Atmo_pm.Perm_map.id} marks any mutation of a permission map;
    {!Atmo_pm.Perm_map.dom_id} marks only domain changes
    (alloc/consume — functional [update]s leave it clean), so
    domain-only readers such as the closure-disjointness check skip
    value updates.  {!Atmo_pmem.Page_alloc.map_id},
    {!Atmo_pt.Page_table.map_id} and {!Atmo_core.Kernel.devices_id}
    cover the allocator, every page table, and the device/IRQ tables.

    {b Auditability.}  Each of those layers also bumps an always-on
    intrinsic counter per map id ({!Atmo_util.Mutation.count}).  The
    tracker snapshots baselines of every counter
    ({!Atmo_util.Mutation.ids}) at
    {!arm} and keeps [intrinsic = baseline + seen] as an invariant.
    {!arm} hands {!Runner} a suspension ({!Runner.set_suspend}) that
    every discharge runs under: dirty marking is off while obligations
    build and mutate their scratch worlds, and each baseline then moves
    by exactly the mutations the discharge performed, so neither {!run}
    nor a plain {!Runner.run} dirties the tracked kernel, and a
    mutation missed before the discharge stays visible.  A
    mutation observed by a layer but never by the tracker breaks the
    equation — atmo_san's [stale-proof] lint reports exactly that via
    {!audit}. *)

val arm : unit -> unit
(** Install the tracker (fresh dirty sets, empty verdict cache,
    baselines snapshotted now) and its discharge suspension in
    {!Runner}.  Replaces any previous tracker. *)

val disarm : unit -> unit
(** Remove the tracker and its suspension. *)

val is_armed : unit -> bool

val set_miss_plant : bool -> unit
(** Fault injection for the [stale-proof] lint: while on, the tracker
    drops marks on the floor (no dirty marking, no [seen] bump) while
    the layers' intrinsic counters keep advancing — the signature of a
    state container mutated behind the verifier's back. *)

val is_dirty : string -> bool
(** [true] when the id has unacked mutations; [true] for every id when
    no tracker is armed (everything must be re-checked). *)

val dirty_ids : unit -> string list

val audit : unit -> (string * int * int) list
(** [(id, expected, observed)] for every audited id where the intrinsic
    mutation count disagrees with what the tracker observed;
    empty when nothing is armed or nothing was missed. *)

val run : ?threads:int -> Obligation.t list -> Runner.report
(** Incremental discharge against the armed tracker: re-check
    obligations whose read set intersects the dirty set (or that are
    unannotated / not yet cached), splice cached verdicts for the rest,
    then ack all dirty marks and refresh the cache.  Falls back to a
    plain full {!Runner.run} when no tracker is armed. *)
