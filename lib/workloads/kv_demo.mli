(** The kv-store demo workload — §6.6's GET path as a span-tree
    acceptance scenario.

    Boots a kernel, creates a server container (CPU 1) holding three
    Maglev-steered kv-store shards backed by an NVMe queue pair, and
    drives GET requests from init (CPU 0) over a pair of IPC endpoints.
    Each request crosses two IPC rendezvous and one driver
    submit/completion, so with a {!Atmo_obs.Sink.Flight} sink installed
    the flight-recorder stream reconstructs the full request path:
    [Request → send —ipc→ recv —wakeup→ kv_handler → drv_submit —drv→
    drv_complete → send —ipc→ recv → Request end].

    The virtual clock advances identically whether the sink is
    [Disabled] or [Flight]; [end_cycles] and [latencies] are the
    bit-identity oracle for the zero-overhead guarantee. *)

type result = {
  requests : int;
  hits : int;  (** GETs that found their key (should equal [requests]) *)
  end_cycles : int;  (** virtual clock at workload end *)
  latencies : int list;  (** per-request round-trip cycles, oldest first *)
  replies : bytes list;
      (** encoded reply the client received per request, oldest first —
          the bit-identity oracle across device backends *)
  server_container : int;
  client_container : int;
  kernel : Atmo_core.Kernel.t;  (** the kernel as the workload left it *)
}

val run :
  ?requests:int ->
  ?entries:int ->
  ?blk:[ `Nvme | `Virtio ] ->
  ?nic:[ `Ixgbe | `Virtio ] ->
  ?slow_every:int ->
  ?slow_cycles:int ->
  unit ->
  result
(** Run the workload on a freshly booted kernel.  [requests] defaults
    to 16; [entries] (per-shard capacity) to 256.  [blk] selects the
    block backend behind the shards ([`Nvme], the default, or [`Virtio]
    for virtio-blk over a split virtqueue); both share one service-time
    model, so [end_cycles], [latencies] and [replies] are bit-identical
    across them.  [nic], when given, additionally routes every request
    and reply payload through a NIC datapath (ixgbe descriptor rings or
    virtio-net virtqueues) in a standalone IOMMU domain; the two NICs
    charge identical driver cycles, so they too are interchangeable
    without moving a cycle.  [slow_every]/[slow_cycles] inject a
    tail-latency fault: every [slow_every]-th request charges
    [slow_cycles] extra handler time on the virtual clock (whether or
    not tracing is on), giving the SLO monitor deterministic outliers
    to catch; the default [slow_every = 0] injects nothing.  Installs
    nothing: the caller owns sink
    setup/teardown ({!Atmo_obs.Sink.install}, {!Atmo_obs.Span.reset},
    {!Atmo_obs.Metrics.reset}). *)
