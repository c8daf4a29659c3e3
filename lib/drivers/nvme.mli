(** NVMe SSD model (PCIe-attached, P3700-class).

    Submission/completion queue pairs over the shared {!Block} service
    model: 4 KiB blocks served with a fixed per-op latency and rate
    caps from the {!Atmo_sim.Cost} calibration; completions become
    visible when the virtual clock passes their due time, so polling
    drivers and the benchmark see the same timing model the figures are
    computed from.  A hostile controller's completions with invented or
    duplicated tags are dropped by tag. *)

type op = Block.op = Read | Write

type completion = Block.completion = {
  tag : int;
  op : op;
  lba : int;
  ok : bool;
  data : bytes option;  (** block contents for successful reads *)
}

include Backend.BLOCK

val create : clock:Atmo_hw.Clock.t -> cost:Atmo_sim.Cost.t -> capacity_blocks:int -> t

val set_device : t -> int -> unit
(** Device id carried by the [Atmo_obs] doorbell/completion tracepoints
    (default 0); the model takes the name [nvme<id>], which its
    [dev/<name>/*] counters and lint reports carry. *)

val set_drop_completion_plant : t -> bool -> unit
(** Plant a driver bug for the sanitizer: the next valid completion is
    silently skipped, which [Atmo_san.Driver_lint] must report as
    [drv-lost-completion]. *)
