(* What the benches share: output, the BENCH_<name>.json writer, the one
   timing loop, and the worlds more than one bench runs. *)

module H = Perfbench.Harness
module J = Atmo_util.Minijson
module O = Atmo_obs
module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Message = Atmo_pm.Message
module Kv = Atmo_workloads.Kv_demo

let cost = Atmo_sim.Cost.default
let line fmt = Format.printf (fmt ^^ "@.")
let section title = line "@.== %s ==@." title

(* Machine-readable result files: every bench with an acceptance floor
   writes BENCH_<name>.json; [report] merges them into
   BENCH_summary.json and enforces the floors. *)
let write_bench_json file obj =
  J.to_file file (J.Obj obj);
  line "  wrote %s" file

(* ------------------------------------------------------------------ *)
(* Host time *)

(* Rounds of every paired measurement.  Each round times each
   configuration once, so this is also the sample count of every
   host-time median. *)
let rounds = 30

(* Host time of two or three configurations, in milliseconds.  A
   configuration prepares one sample untimed (installs a sink, builds a
   device, applies a transition) and returns the work to time.  Each
   round times every configuration once with [Harness.measured] (one
   calibrated slice on a settled heap) and starts one configuration
   later than the round before, so no configuration always runs first
   or last.  Returns each configuration's samples in round order: the
   [r]th samples of all configurations come from round [r] and are
   paired.

   The samples are the slices' host time, not reference time.  The
   reference scaling corrects for a VM's speed phases between
   measurements seconds apart; the configurations of one round run
   milliseconds apart, and the jitter of the one calibration run before
   a slice would widen a round's difference about tenfold (the slo
   monitor's per-round delta, in back-to-back runs on a 2-vCPU VM: an
   IQR of 23-39 points in reference time, 2-3 in host time). *)
let rotating configs =
  let configs = Array.of_list configs in
  let n = Array.length configs in
  let samples = Array.make n [] in
  for r = 0 to rounds - 1 do
    for i = 0 to n - 1 do
      let c = (r + i) mod n in
      let work = configs.(c) () in
      let (), m = H.measured work in
      samples.(c) <- (H.host_s m *. 1e3) :: samples.(c)
    done
  done;
  Array.to_list (Array.map List.rev samples)

let iqr xs =
  let q1, q3 = H.quartiles xs in
  q3 -. q1

(* [b] over [a], round by round, in percent of [a]. *)
let overhead_pct a b = List.map2 (fun a b -> 100. *. (b -. a) /. Float.max 1e-9 a) a b

(* A host-time field: the median over the rounds, and beside it the
   inter-quartile range [report] reads as the field's spread. *)
let timed name xs = [ (name, J.Num (H.median xs)); (name ^ "_iqr", J.Num (iqr xs)) ]

let pp_timed ppf xs = Format.fprintf ppf "%8.3f [IQR %.3f]" (H.median xs) (iqr xs)

(* ------------------------------------------------------------------ *)
(* One sender, one receiver, one endpoint: Scenario's endpoint pair *)

module Scenario = Atmo_workloads.Scenario

(* [n] call/reply rounds without a scheduler: the peer parks in Recv,
   then init's Send meets it. *)
let pingpong (w : Scenario.pair) n =
  for i = 0 to n - 1 do
    ignore (Kernel.step w.kernel ~thread:w.peer Scenario.recv);
    ignore (Kernel.step w.kernel ~thread:w.init (Scenario.send i))
  done

(* 500 rounds of the two-CPU ping-pong, init sending [send_call i]: the
   model's (wall, lock-wait) cycles. *)
let smp_pingpong w ~send_call =
  match Scenario.pingpong w ~send_call ~iterations:500 with
  | Ok s -> Some (s.Atmo_sim.Smp.wall_cycles, s.Atmo_sim.Smp.lock_wait_cycles)
  | Error _ -> None

(* Print and return the identity of two [smp_pingpong] results. *)
let pingpong_identity ~indent off on =
  match (off, on) with
  | Some (w0, l0), Some (w1, l1) ->
    let same = w0 = w1 && l0 = l1 in
    line "%scycle model (wall, lock-wait): off (%d, %d)  on (%d, %d)  identical: %b" indent w0
      l0 w1 l1 same;
    same
  | _ ->
    line "%scycle model: workload failed" indent;
    false

(* ------------------------------------------------------------------ *)
(* The kv flight recorder *)

let kv_requests = 200

(* kv runs per timed sample.  The heap is settled only before a sample,
   so its later runs pay the GC work the earlier ones left, as in a
   long-running system; a one-run sample would leave that work to the
   untimed settle. *)
let kv_runs = 10

(* Arm [sink] for the next kv run: no monitor, a fresh sink session
   (and an emptied ring), span ids from zero. *)
let kv_trace sink =
  O.Monitor.disarm ();
  (match sink with O.Sink.Flight r -> O.Flight.clear r | O.Sink.Disabled -> ());
  O.Sink.install sink;
  O.Span.reset ()

let kv_untrace () =
  kv_trace O.Sink.Disabled;
  O.Sink.set_clock (fun () -> 0)

let emitted () =
  let n = ref 0 in
  for tag = 1 to O.Event.tag_count do
    n := !n + O.Sink.emitted_count ~tag
  done;
  !n

(* Ring slots per CPU for one timed sample: a probe run's exact emit
   tallies times [kv_runs], rounded up to a power of two, so that a
   sample drops nothing even if every event lands on one CPU. *)
let kv_ring_slots =
  lazy
    (let probe = O.Flight.create ~cpus:2 ~slots:65536 ~slot_size:O.Event.slot_bytes in
     kv_trace (O.Sink.Flight probe);
     ignore (Kv.run ~requests:kv_requests ());
     let events = emitted () * kv_runs in
     kv_untrace ();
     let slots = ref 1024 in
     while !slots < events do
       slots := !slots * 2
     done;
     !slots)

let kv_recorder () =
  O.Flight.create ~cpus:2 ~slots:(Lazy.force kv_ring_slots) ~slot_size:O.Event.slot_bytes

(* One traced kv run into a fresh ring: the result, the decoded
   records, the events the writers emitted and the ring's drops.  Each
   packed span pair decodes into a begin and an end record, so nothing
   was lost iff records = emitted + span pairs and nothing dropped. *)
type traced = {
  result : Kv.result;
  records : O.Event.record list;
  emitted : int;
  span_pairs : int;
  dropped : int;
}

let kv_traced_run () =
  let recorder = kv_recorder () in
  kv_trace (O.Sink.Flight recorder);
  let result = Kv.run ~requests:kv_requests () in
  let records = O.Sink.records () in
  let t =
    {
      result;
      records;
      emitted = emitted ();
      span_pairs = O.Sink.emitted_count ~tag:O.Event.tag_span_pair;
      dropped = O.Flight.total_dropped recorder;
    }
  in
  kv_untrace ();
  t

(* The flight recorder's host-time cost on the kv demo: [kv_requests]
   GETs with the sink disabled, with the flight recorder and, given
   [monitor], with the recorder and the monitor [monitor ()] arms for
   each run; [kv_runs] runs per configuration per round.  Every traced
   sample starts from a cleared ring of [kv_ring_slots] slots per CPU.  The
   metrics registry is reset first, so [lat/request] then counts every
   traced request. *)
type kv_cost = {
  off_ms : float list;
  flight_ms : float list;
  monitor_ms : float list;  (** empty without a monitor *)
  off : Kv.result;  (** the last run of each configuration *)
  flight : Kv.result;
  monitored : Kv.result option;
  drops : int;  (** events the ring overwrote, over every traced run *)
}

let kv_cost ?monitor () =
  let recorder = kv_recorder () in
  let last = Array.make 3 None in
  let config i sink run () =
    kv_trace sink;
    fun () ->
      for _ = 1 to kv_runs do
        last.(i) <- Some (run ())
      done
  in
  let kv () = Kv.run ~requests:kv_requests () in
  let monitored arm () =
    let m = arm () in
    let r = kv () in
    O.Monitor.finish m ~now:r.Kv.end_cycles;
    r
  in
  O.Metrics.reset ();
  let times =
    rotating
      (config 0 O.Sink.Disabled kv
       :: config 1 (O.Sink.Flight recorder) kv
       :: Option.to_list
            (Option.map (fun arm -> config 2 (O.Sink.Flight recorder) (monitored arm)) monitor))
  in
  kv_untrace ();
  match times with
  | off_ms :: flight_ms :: rest ->
    {
      off_ms;
      flight_ms;
      monitor_ms = List.concat rest;
      off = Option.get last.(0);
      flight = Option.get last.(1);
      monitored = last.(2);
      drops = O.Flight.total_dropped recorder;
    }
  | _ -> assert false

let same_cycles (a : Kv.result) (b : Kv.result) =
  a.Kv.end_cycles = b.Kv.end_cycles && a.Kv.latencies = b.Kv.latencies

(* Print and return the identity of a kv run untraced and traced. *)
let kv_identity ~indent (off : Kv.result) (on : Kv.result) =
  line "%scycle model: end %d vs %d, latencies identical: %b  -> identical: %b" indent
    off.Kv.end_cycles on.Kv.end_cycles
    (off.Kv.latencies = on.Kv.latencies)
    (same_cycles off on);
  same_cycles off on

(* ------------------------------------------------------------------ *)
(* ixgbe receive *)

module Env = Atmo_workloads.Device_env

(* An ixgbe NIC in its own DMA arena, receiving into 64 2 KiB
   buffers. *)
let ixgbe_rx () =
  Env.nic ~kind:`Ixgbe ~device:0 ~slots:64 ~clock:(Atmo_hw.Clock.create ()) ~cost

(* Deliver [frames] UDP frames one at a time through the descriptor
   ring and the IOMMU, harvesting after each; the frames harvested. *)
let ixgbe_forward nic ~frames =
  let flow = Atmo_net.Packet.flow_of_ints ~src:1 ~dst:2 ~sport:1000 ~dport:53 in
  let received = ref 0 in
  for _ = 1 to frames do
    ignore (Env.nic_deliver nic (Atmo_net.Packet.build flow ~payload:(Bytes.make 22 'x')));
    received := !received + List.length (Env.nic_rx nic ~max:32)
  done;
  !received
