(** Obligation discharge runner — the reproduction's "verifier".

    Discharges a set of obligations sequentially or across several OCaml
    domains (Verus parallelises verification across threads; Table 2 and
    Figure 2 report 1-thread vs 8-thread times).  Results carry
    per-obligation timing so the harness can reproduce the paper's
    per-function verification-time distribution.

    With [?incremental] the runner consults a dirty-set context
    (see {!Incremental}): an obligation annotated with the maps it
    reads is skipped — its cached verdict spliced into the report —
    when none of those maps changed since the verdict was produced. *)

type report = {
  results : Obligation.result list;
  wall_s : float;
  threads : int;
  rechecked : int;  (** obligations actually discharged this run *)
  reused : int;  (** cached verdicts spliced in (0 for full runs) *)
}

type incremental = {
  is_dirty : string -> bool;  (** map id mutated since verdict cached? *)
  cached : string -> Obligation.result option;  (** by obligation name *)
}

val run : ?threads:int -> ?incremental:incremental -> Obligation.t list -> report
(** [threads] defaults to 1.  With [threads > 1] obligations are
    distributed over that many domains.  Results are in suite order
    whatever the thread count.  Arms
    [Printexc.record_backtrace] so a raising obligation reports where
    it failed.  Raises [Invalid_argument] if two obligations share a
    name — duplicates would shadow each other in grouped reports and
    in the incremental verdict cache. *)

val set_suspend : ((unit -> unit) -> unit) option -> unit
(** Install the wrapper every {!run} discharges its obligations under
    ([None] removes it).  The incremental verifier's [arm] installs its
    dirty-marking suspension here and [disarm] removes it, so a plain
    {!run} of an armed suite leaves the tracker as it found it. *)

val duplicate_name : Obligation.t list -> string option
(** First name appearing twice, if any. *)

val all_ok : report -> bool
val failures : report -> Obligation.result list
val total_check_time : report -> float
(** Sum of per-obligation times (CPU-style total, vs [wall_s]). *)

val by_group : Obligation.t list -> (string * Obligation.t list) list
(** Stable grouping by the obligation's [group] field. *)

val pp : Format.formatter -> report -> unit
