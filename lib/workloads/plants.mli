(** The planted bugs, one table entry each, and the drivers that plant
    them.

    A plant is evidence that a check catches its bug class: each entry
    names the bug, says in one line what it breaks, plants it, and
    states the report that must catch it: the rule, the page or site
    the report names, and whether it must be the only report filed.
    [atmo san --plant] and [atmo verify --plant] read the entries from
    {!table}, and the tests run every entry through the same driver. *)

type mark =
  | Page of int  (** the report's faulting page *)
  | Site of string  (** the report's detection site *)
(** What the catching report must name. *)

type body =
  | After_workload of (Scenario.pair -> mark)
      (** Planted on the kernel {!Scenario.sanitized} leaves, with the
          sanitizer and a flight recorder armed ({!san}). *)
  | On_verifier of (Atmo_core.Kernel.t -> init:int -> mark)
      (** Planted on a verification world between a full discharge of
          an armed incremental verifier and the lints ({!verify}). *)

type t = {
  name : string;
  help : string;  (** one line: the bug, for [--help] *)
  body : body;  (** plants the bug and returns what the report must name *)
  rule : Atmo_san.Report.rule;
  surgical : bool;  (** every report filed must be one that catches the plant *)
}

val table : t list
(** Every plant, in [--help] order: fourteen planted after
    [atmo san]'s workload, then [stale-proof] on the verifier. *)

val find : string -> t option

(** {2 Drivers} *)

type verdict =
  | Detected of Atmo_san.Report.t
      (** the first report under the entry's rule that names its mark *)
  | Collateral of int
      (** a surgical plant was caught, but this many other reports were
          filed too *)
  | Missed  (** no report under the entry's rule names its mark *)

type outcome =
  | Clean  (** no plant, and no report *)
  | Unclean  (** the workload and its checks filed reports; nothing was planted *)
  | Planted of verdict

type san = {
  world : Scenario.pair;  (** the kernel as the run left it *)
  smp : Atmo_sim.Smp.stats;  (** the workload's ping-pong *)
  accesses : int;  (** physical accesses the sanitizer checked in the workload *)
  absorbed : int;  (** typed errors the hostile sweep's drivers absorbed *)
  sweep_accesses : int;  (** accesses it checked in the sweep *)
  structural : int;  (** violations the whole-state checks found *)
  outcome : outcome;
}

val san : seed:int -> iterations:int -> t option -> san
(** [atmo san]: with fresh metrics and device models, a flight recorder
    and the sanitizer armed (free-page poisoning, lock checking,
    attribution), boot and run {!Scenario.sanitized}, the hostile sweep
    over all four device models seeded [seed], and every whole-state
    check.  If no report was filed and a plant is given, plant it and
    classify the reports.  Restores the Disabled sink and fresh span
    and device-model state; the reports stay in {!Atmo_san.Report}.
    Raises [Invalid_argument] for a plant planted on the verifier. *)

type verify = {
  kernel : Atmo_core.Kernel.t;  (** the planted kernel *)
  reports : Atmo_san.Report.t list;  (** every report filed after the discharge *)
  verdict : verdict;
}

val verify : scale:int -> threads:int -> t -> (verify, string) result
(** [atmo verify --plant]: on the verification world of [scale], arm
    the incremental verifier, discharge its suite on [threads] domains,
    clear the reports, then plant and classify.  [Error] when the
    world cannot be built.  Raises [Invalid_argument] for a plant
    planted after [atmo san]'s workload. *)
