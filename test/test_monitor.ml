(* Online SLO monitor: snapshot/delta determinism, windowed rollups
   (wraparound, empty windows), declarative SLO specs, streaming
   quantiles checked bucket-exact against the post-mortem profiler,
   watchdog rules over synthetic series, and exemplar capture. *)

module Metrics = Atmo_obs.Metrics
module Sink = Atmo_obs.Sink
module Span = Atmo_obs.Span
module Profile = Atmo_obs.Profile
module Export = Atmo_obs.Export
module Timeseries = Atmo_obs.Timeseries
module Slo = Atmo_obs.Slo
module Watchdog = Atmo_obs.Watchdog
module Monitor = Atmo_obs.Monitor
module Exemplar = Atmo_obs.Exemplar
module Kv_demo = Atmo_workloads.Kv_demo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* Fresh metrics and a flight recorder installed; always disarm the
   monitor before the recorder goes. *)
let with_flight ?(slots = 4096) f =
  Metrics.reset ();
  Span.with_recorder ~cpus:2 ~slots (fun recorder ->
      Fun.protect ~finally:Monitor.disarm (fun () -> f recorder))

(* ------------------------------------------------------------------ *)
(* Metrics snapshots: deterministic order, delta clamping              *)

let test_snapshot_sorted () =
  Metrics.reset ();
  (* Register in non-sorted order; the snapshot must not care. *)
  Metrics.bump ~by:5 "z/last";
  Metrics.bump ~by:3 "a/first";
  Metrics.bump ~by:4 "m/middle";
  Metrics.observe "z/hist" 100;
  Metrics.observe "a/hist" 7;
  let s = Metrics.Snapshot.take () in
  let cnames = List.map fst (Metrics.Snapshot.counters s) in
  let hnames = List.map fst (Metrics.Snapshot.hists s) in
  checkb "counters sorted" true (cnames = List.sort String.compare cnames);
  checkb "hists sorted" true (hnames = List.sort String.compare hnames);
  let s2 = Metrics.Snapshot.take () in
  checkb "snapshot of unchanged registry is equal" true (s = s2)

let test_snapshot_diff () =
  Metrics.reset ();
  let base = Metrics.Snapshot.take () in
  Metrics.bump ~by:4 "d/counter";
  Metrics.observe "d/hist" 100;
  Metrics.observe "d/hist" 100;
  let d = Metrics.Snapshot.diff ~base (Metrics.Snapshot.take ()) in
  checki "counter delta" 4 (Metrics.Snapshot.counter d "d/counter");
  (match Metrics.Snapshot.hist d "d/hist" with
  | None -> Alcotest.fail "hist missing from delta"
  | Some h ->
    checki "hist delta n" 2 h.Metrics.Snapshot.n;
    checki "hist delta sum" 200 h.Metrics.Snapshot.sum;
    checki "samples in bucket_of 100" 2
      h.Metrics.Snapshot.counts.(Metrics.Histogram.bucket_of 100))

(* A [Metrics.reset] between two snapshots must clamp to an empty
   window, and handles cached before the reset must keep feeding the
   registry afterwards. *)
let test_reset_clamps_and_cached_handle () =
  Metrics.reset ();
  let c = Metrics.counter "r/cached" in
  Metrics.Counter.incr ~by:10 c;
  let base = Metrics.Snapshot.take () in
  Metrics.reset ();
  Metrics.Counter.incr ~by:3 c;
  Metrics.observe "r/hist" 50;
  Metrics.reset ();
  let cur = Metrics.Snapshot.take () in
  let d = Metrics.Snapshot.diff ~base cur in
  checki "reset window clamps counter delta to 0" 0
    (Metrics.Snapshot.counter d "r/cached");
  (* The cached handle still reaches the registry after resets. *)
  Metrics.Counter.incr ~by:7 c;
  checki "cached handle feeds registry across reset" 7
    (Metrics.Counter.value (Metrics.counter "r/cached"));
  let d2 = Metrics.Snapshot.diff ~base:cur (Metrics.Snapshot.take ()) in
  checki "post-reset window sees new increments" 7
    (Metrics.Snapshot.counter d2 "r/cached")

(* ------------------------------------------------------------------ *)
(* Timeseries: rollups, wraparound, empty windows                      *)

let test_timeseries_basic () =
  Metrics.reset ();
  let s = Timeseries.create ~windows:8 ~window_cycles:100 ~now:0 () in
  Metrics.bump ~by:7 "ts/x";
  Timeseries.tick s ~now:100;
  checki "one tick" 1 (Timeseries.ticks s);
  match Timeseries.latest s with
  | None -> Alcotest.fail "no window after tick"
  | Some w ->
    checki "seq" 0 w.Timeseries.seq;
    checki "w_start" 0 w.Timeseries.w_start;
    checki "w_end" 100 w.Timeseries.w_end;
    checki "counter delta in window" 7 (Timeseries.counter w ~name:"ts/x");
    Alcotest.(check (float 1e-9)) "rate" 0.07 (Timeseries.rate w ~name:"ts/x")

let test_timeseries_wraparound () =
  Metrics.reset ();
  let s = Timeseries.create ~windows:4 ~window_cycles:10 ~now:0 () in
  for i = 1 to 6 do
    Metrics.bump ~by:i "ts/w";
    Timeseries.tick s ~now:(i * 10)
  done;
  checki "six ticks" 6 (Timeseries.ticks s);
  let ws = Timeseries.windows s in
  checki "ring keeps capacity windows" 4 (List.length ws);
  Alcotest.(check (list int)) "oldest evicted, seqs oldest-first" [ 2; 3; 4; 5 ]
    (List.map (fun w -> w.Timeseries.seq) ws);
  Alcotest.(check (list int)) "per-window deltas survive wraparound" [ 3; 4; 5; 6 ]
    (List.map (fun w -> Timeseries.counter w ~name:"ts/w") ws);
  checki "last n trims from the old end" 5
    (match Timeseries.last s 2 with w :: _ -> w.Timeseries.seq + 1 | [] -> -1)

let test_timeseries_empty_windows () =
  Metrics.reset ();
  let s = Timeseries.create ~windows:4 ~window_cycles:10 ~now:0 () in
  Timeseries.tick s ~now:10;
  Timeseries.tick s ~now:20;
  List.iter
    (fun w ->
      checki "empty window has zero delta" 0 (Timeseries.counter w ~name:"ts/x");
      checkb "empty window has no hist samples" true
        (match Metrics.Snapshot.hist w.Timeseries.delta "lat/request" with
        | None -> true
        | Some h -> h.Metrics.Snapshot.n = 0))
    (Timeseries.windows s);
  let m = Timeseries.merged s ~name:"lat/request" ~n:(Timeseries.capacity s) in
  checki "merged hist over empty windows is empty" 0 m.Metrics.Snapshot.n;
  let spec = { Slo.metric = "lat/request"; q = 0.99; limit = 1000; over = 8 } in
  let v = Slo.evaluate spec s in
  checki "no samples" 0 v.Slo.samples;
  checkb "vacuously compliant" true v.Slo.compliant

(* ------------------------------------------------------------------ *)
(* SLO specs                                                           *)

let test_slo_parse () =
  (match Slo.parse "lat/request:p99<=16383@8" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check string) "metric" "lat/request" s.Slo.metric;
    Alcotest.(check (float 1e-9)) "q" 0.99 s.Slo.q;
    checki "limit" 16383 s.Slo.limit;
    checki "over" 8 s.Slo.over);
  (match Slo.parse "lat/nvme_io:p999<=4095@32" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check (float 1e-9)) "p999" 0.999 s.Slo.q;
    checki "over 32" 32 s.Slo.over);
  (match Slo.parse "lat/request:p50<=100" with
  | Error e -> Alcotest.fail e
  | Ok s -> checki "default horizon" 8 s.Slo.over);
  List.iter
    (fun bad ->
      match Slo.parse bad with
      | Ok _ -> Alcotest.failf "parse accepted %S" bad
      | Error _ -> ())
    [ ""; "lat/request"; "lat/request:p99"; "lat/request:q99<=5"; "lat/request:p99<=x";
      "lat/request:p99<=-3"; "lat/request:p99<=5@0"; ":p99<=5" ]

let test_slo_evaluate () =
  Metrics.reset ();
  let s = Timeseries.create ~windows:8 ~window_cycles:100 ~now:0 () in
  for _ = 1 to 9 do Metrics.observe "lat/x" 10 done;
  Metrics.observe "lat/x" 1000;
  Timeseries.tick s ~now:100;
  let spec = { Slo.metric = "lat/x"; q = 0.99; limit = 15; over = 8 } in
  let v = Slo.evaluate spec s in
  checki "samples" 10 v.Slo.samples;
  (* p99 rank lands on the 1000-cycle sample: bucket 9's upper edge. *)
  checki "online estimate is bucket upper edge" 1023 v.Slo.value;
  checki "violators above the limit's bucket" 1 v.Slo.violators;
  Alcotest.(check (float 1e-9)) "budget" 0.1 v.Slo.budget;
  checkb "burn over budget" true (v.Slo.burn > 1.);
  checkb "violated" true (not v.Slo.compliant);
  let loose = { spec with limit = 1023 } in
  checkb "limit at the estimate is compliant" true (Slo.evaluate loose s).Slo.compliant

(* ------------------------------------------------------------------ *)
(* Streaming quantiles vs. the post-mortem profiler                    *)

(* The tentpole accuracy gate in miniature: run the kv workload with
   injected tail faults under the monitor, then compare the streaming
   p50/p99/p999 (merged window deltas) against exact quantiles over
   the profiler's reconstructed request durations.  Both must land in
   the same log2 bucket. *)
let test_online_vs_postmortem_quantiles () =
  with_flight ~slots:8192 (fun _ ->
      let spec =
        match Slo.parse "lat/request:p99<=262143@8" with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let m =
        Monitor.arm ~windows:512 ~window_cycles:32768 ~now:0 ~specs:[ spec ] ()
      in
      let r = Kv_demo.run ~requests:40 ~slow_every:10 ~slow_cycles:200_000 () in
      Monitor.finish m ~now:r.Kv_demo.end_cycles;
      let series = Monitor.series m in
      checkb "windows closed" true (Timeseries.ticks series > 1);
      let merged =
        Timeseries.merged series ~name:"lat/request" ~n:(Timeseries.capacity series)
      in
      checki "every request rolled up" 40 merged.Metrics.Snapshot.n;
      let profile = Profile.build (Sink.records ()) in
      let durs =
        Profile.spans profile
        |> List.filter (fun sp ->
               sp.Profile.kind = Span.code Span.Request && sp.Profile.ended)
        |> List.map Profile.duration
        |> List.sort compare |> Array.of_list
      in
      checki "profiler reconstructed every request" 40 (Array.length durs);
      let offline q =
        let n = Array.length durs in
        durs.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
      in
      List.iter
        (fun q ->
          let on = Metrics.Snapshot.quantile merged q in
          let off = offline q in
          checki
            (Printf.sprintf "p%g online bucket = post-mortem bucket" (q *. 100.))
            (Metrics.Histogram.bucket_of off)
            (Metrics.Histogram.bucket_of on))
        [ 0.5; 0.99; 0.999 ];
      let v = List.hd (Monitor.verdicts m) in
      checkb "injected tail breaches the SLO" true (not v.Slo.compliant))

(* ------------------------------------------------------------------ *)
(* Watchdog rules                                                      *)

(* Beat both CPUs' heartbeats for six windows, then let CPU 1 go
   silent while CPU 0 keeps running: exactly cpu-silent must fire. *)
let test_watchdog_cpu_silent () =
  with_flight (fun _ ->
      let window = 2000 in
      let m = Monitor.arm ~windows:16 ~window_cycles:window ~now:0 ~specs:[] () in
      let vnow = ref 0 in
      let beat cpu =
        Sink.set_cpu cpu;
        let s = Span.begin_ ~ts:!vnow Span.User in
        vnow := !vnow + 250;
        Span.end_ ~ts:!vnow s
      in
      while !vnow < 6 * window do
        beat 0;
        beat 1
      done;
      while !vnow < 12 * window do
        beat 0
      done;
      Monitor.finish m ~now:!vnow;
      let fs = Monitor.findings m in
      checkb "watchdog fired" true (fs <> []);
      List.iter
        (fun f ->
          match f.Watchdog.wrule with
          | Watchdog.Cpu_silent cpu -> checki "names the silent cpu" 1 cpu
          | other -> Alcotest.failf "unexpected rule %s" (Watchdog.rule_name other))
        fs)

(* Both CPUs keep beating: no findings at all. *)
let test_watchdog_quiet_when_healthy () =
  with_flight (fun _ ->
      let window = 2000 in
      let m = Monitor.arm ~windows:16 ~window_cycles:window ~now:0 ~specs:[] () in
      let vnow = ref 0 in
      while !vnow < 12 * window do
        List.iter
          (fun cpu ->
            Sink.set_cpu cpu;
            let s = Span.begin_ ~ts:!vnow Span.User in
            vnow := !vnow + 250;
            Span.end_ ~ts:!vnow s)
          [ 0; 1 ]
      done;
      Monitor.finish m ~now:!vnow;
      checkb "healthy run stays quiet" true (Monitor.findings m = []))

let test_watchdog_lock_spike () =
  Metrics.reset ();
  Span.reset ();
  let m = Monitor.arm ~windows:16 ~window_cycles:100 ~now:0 ~specs:[] () in
  Fun.protect ~finally:Monitor.disarm (fun () ->
      Metrics.bump ~by:100 "smp/lock_wait/0";
      Monitor.tick m ~now:100;
      Metrics.bump ~by:100 "smp/lock_wait/0";
      Monitor.tick m ~now:200;
      checkb "modest contention stays quiet" true (Monitor.findings m = []);
      Metrics.bump ~by:100_000 "smp/lock_wait/1";
      Monitor.tick m ~now:300;
      checkb "spike over trailing average fires" true
        (List.exists (fun f -> f.Watchdog.wrule = Watchdog.Lock_spike) (Monitor.findings m)))

let test_watchdog_runq_growth () =
  Metrics.reset ();
  Span.reset ();
  let depth = ref 0 in
  let m =
    Monitor.arm ~windows:16 ~window_cycles:100 ~depth_probe:(fun () -> !depth)
      ~now:0 ~specs:[] ()
  in
  Fun.protect ~finally:Monitor.disarm (fun () ->
      for i = 1 to 6 do
        depth := !depth + 3;
        Monitor.tick m ~now:(i * 100)
      done;
      checkb "diverging run queue fires" true
        (List.exists (fun f -> f.Watchdog.wrule = Watchdog.Runq_growth) (Monitor.findings m)))

let test_watchdog_ring_drop () =
  (* An 8-slot ring per CPU: a burst of one-shot spans must overwrite
     the oldest records, and the next tick must report the loss. *)
  with_flight ~slots:8 (fun _ ->
      let m = Monitor.arm ~windows:16 ~window_cycles:1_000_000 ~now:0 ~specs:[] () in
      Monitor.tick m ~now:10;
      for i = 0 to 19 do
        let s = Span.begin_ ~ts:(20 + (2 * i)) Span.User in
        Span.end_ ~ts:(21 + (2 * i)) s
      done;
      Monitor.tick m ~now:100;
      Monitor.finish m ~now:200;
      checkb "ring drops reported" true
        (List.exists (fun f -> f.Watchdog.wrule = Watchdog.Ring_drop) (Monitor.findings m)))

(* ------------------------------------------------------------------ *)
(* Exemplars                                                           *)

let test_exemplar_coverage () =
  with_flight ~slots:8192 (fun _ ->
      let spec =
        match Slo.parse "lat/request:p99<=262143@8" with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let m = Monitor.arm ~windows:64 ~window_cycles:32768 ~now:0 ~specs:[ spec ] () in
      let r = Kv_demo.run ~requests:32 ~slow_every:8 ~slow_cycles:200_000 () in
      Monitor.finish m ~now:r.Kv_demo.end_cycles;
      let ex = Monitor.capture_exemplars m in
      checki "one exemplar per injected slow request" 4 (List.length ex);
      List.iter
        (fun e ->
          checkb "trail complete" true e.Exemplar.complete;
          checkb "duration above the SLO limit" true (e.Exemplar.value > spec.Slo.limit);
          checkb "trail crosses the request path" true (List.length e.Exemplar.spans >= 8);
          checkb "records attached" true (e.Exemplar.trail <> []))
        ex;
      let chrome = Exemplar.chrome ex in
      checkb "chrome trace is a json array" true
        (String.length chrome > 2 && chrome.[0] = '[');
      checkb "chrome trace carries flow events" true (contains chrome {|"ph":"s"|});
      let refs = Exemplar.prom_refs ex in
      checki "one prometheus ref per exemplar" 4 (List.length refs);
      let prom = Export.prometheus ~exemplars:[ ("lat/request", refs) ] () in
      checkb "exemplar exposed on a bucket line" true (contains prom "# {span=\""))

(* ------------------------------------------------------------------ *)
(* The flat window close against the list-based oracle                 *)

let hist_rows l =
  List.map (fun (n, (h : Metrics.Snapshot.hist)) -> (n, (Array.to_list h.counts, h.n, h.sum))) l

let check_window what (w : Timeseries.window) (o : Monitor_oracle.window) =
  checki (what ^ ": seq") o.Monitor_oracle.seq w.Timeseries.seq;
  checki (what ^ ": start") o.Monitor_oracle.w_start w.Timeseries.w_start;
  checki (what ^ ": end") o.Monitor_oracle.w_end w.Timeseries.w_end;
  Alcotest.(check (list (pair string int)))
    (what ^ ": counter deltas")
    o.Monitor_oracle.delta.Monitor_oracle.counters
    (Metrics.Snapshot.counters w.Timeseries.delta);
  Alcotest.(check (list (pair string (triple (list int) int int))))
    (what ^ ": histogram deltas")
    (hist_rows o.Monitor_oracle.delta.Monitor_oracle.hists)
    (hist_rows (Metrics.Snapshot.hists w.Timeseries.delta))

let pp_finding (r : Watchdog.report) = Format.asprintf "%a" Watchdog.pp_report r

(* The oracle's findings with at most [cap] per rule, and what the cap
   left over, per rule name. *)
let capped cap findings =
  let kept = Hashtbl.create 4 in
  let over = Hashtbl.create 4 in
  let keep =
    List.filter
      (fun (r : Watchdog.report) ->
        let name = Watchdog.rule_name r.Watchdog.wrule in
        let k = Option.value ~default:0 (Hashtbl.find_opt kept name) in
        Hashtbl.replace kept name (k + 1);
        if k < cap then true
        else begin
          Hashtbl.replace over name (1 + Option.value ~default:0 (Hashtbl.find_opt over name));
          false
        end)
      findings
  in
  (keep, List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) over []))

(* Everything the monitor reports after a run, against the oracle. *)
let check_against_oracle what m o =
  let series = Monitor.series m in
  checki (what ^ ": ticks") o.Monitor_oracle.nticks (Timeseries.ticks series);
  let ws = Timeseries.windows series and os = Monitor_oracle.windows o in
  checki (what ^ ": retained windows") (List.length os) (List.length ws);
  List.iter2 (fun w ow -> check_window (what ^ ": retained window") w ow) ws os;
  Alcotest.(check (list string)) (what ^ ": SLO verdicts")
    (List.map (fun s -> Format.asprintf "%a" Slo.pp_verdict (Monitor_oracle.verdict s o))
       (Monitor.specs m))
    (List.map (Format.asprintf "%a" Slo.pp_verdict) (Monitor.verdicts m));
  let expected, over = capped Monitor.findings_cap (Monitor_oracle.findings o) in
  Alcotest.(check (list string)) (what ^ ": findings up to the cap")
    (List.map pp_finding expected) (List.map pp_finding (Monitor.findings m));
  Alcotest.(check (list (pair string int))) (what ^ ": findings past the cap") over
    (List.sort compare (Monitor.unfiled m));
  checki (what ^ ": the oracle's seen table never deduplicated") 0
    o.Monitor_oracle.dedups

(* Arm the monitor and the oracle over one registry and close every
   window in both, comparing each newly closed window and the gauge
   samples as it goes. *)
let with_oracle ?depth_probe ~windows ~window_cycles ~specs f =
  let m = Monitor.arm ~windows ?depth_probe ~window_cycles ~now:0 ~specs () in
  let o = Monitor_oracle.create ?depth_probe ~windows ~window_cycles ~now:0 () in
  let tick now =
    Monitor.tick m ~now;
    Monitor_oracle.tick o ~now;
    (match (Timeseries.latest (Monitor.series m), Monitor_oracle.last o 1) with
    | Some w, [ ow ] -> check_window "newest window" w ow
    | _ -> Alcotest.fail "no window after a tick");
    checkb "gauge samples" true (Monitor.samples m = Monitor_oracle.samples o)
  in
  Span.set_tick ~at:window_cycles tick;
  f tick;
  (m, o)

let slo_spec () =
  match Slo.parse "lat/request:p99<=262143@8" with Ok s -> s | Error e -> Alcotest.fail e

let test_kv_matches_list_oracle () =
  List.iter
    (fun (what, slots, requests, slow_every, nic, windows, window_cycles) ->
      with_flight ~slots (fun _ ->
          let m, o =
            with_oracle ~windows ~window_cycles ~specs:[ slo_spec () ] (fun tick ->
                let r =
                  Kv_demo.run ~requests ~slow_every ~slow_cycles:200_000 ?nic ()
                in
                tick r.Kv_demo.end_cycles)
          in
          check_against_oracle what m o;
          if slots = 64 then
            checkb (what ^ ": the ring overflowed") true (Monitor.unfiled m <> [])))
    [
      ("overflowing ring", 64, 150, 0, None, 16, 32768);
      ("slow_every 8", 8192, 64, 8, None, 16, 32768);
      ("nic, narrow windows", 256, 80, 5, Some `Ixgbe, 64, 8192);
    ]

(* Seeded synthetic series: heartbeats, lock waits, a run-queue gauge
   and new registrations landing mid-run (the merge-join path), under
   configurations whose horizon exceeds the ring and whose silent
   suffix varies. *)
let test_synthetic_matches_list_oracle () =
  let fired = Hashtbl.create 4 in
  List.iter
    (fun (seed, windows, silent_windows) ->
      Metrics.reset ();
      Span.reset ();
      let rng = Random.State.make [| seed |] in
      let depth = ref 0 in
      let config = { Watchdog.default_config with Watchdog.silent_windows } in
      let m =
        Monitor.arm ~windows ~config ~depth_probe:(fun () -> !depth) ~window_cycles:100 ~now:0
          ~specs:[] ()
      in
      let o =
        Monitor_oracle.create ~config ~depth_probe:(fun () -> !depth) ~windows ~window_cycles:100
          ~now:0 ()
      in
      Fun.protect ~finally:Monitor.disarm (fun () ->
          let alive = Array.make 4 true in
          for i = 1 to 200 do
            if Random.State.int rng 10 = 0 then alive.(Random.State.int rng 4) <- false;
            if Random.State.int rng 8 = 0 then alive.(Random.State.int rng 4) <- true;
            Array.iteri
              (fun cpu up ->
                if up && Random.State.int rng 4 > 0 then
                  Metrics.bump ~by:(1 + Random.State.int rng 5)
                    (Printf.sprintf "sched/heartbeat/%d" cpu))
              alive;
            Metrics.bump
              ~by:(if Random.State.int rng 20 = 0 then 200_000 else Random.State.int rng 3000)
              (Printf.sprintf "smp/lock_wait/%d" (Random.State.int rng 4));
            if Random.State.int rng 15 = 0 then
              Metrics.bump (Printf.sprintf "synthetic/late_%d" (Random.State.int rng 1000));
            Metrics.observe "lat/synthetic" (Random.State.int rng 100_000);
            depth := max 0 (!depth + Random.State.int rng 7 - 2);
            Monitor.tick m ~now:(i * 100);
            Monitor_oracle.tick o ~now:(i * 100)
          done;
          checkb "gauge samples" true (Monitor.samples m = Monitor_oracle.samples o);
          check_against_oracle
            (Printf.sprintf "seed %d, %d windows, silent %d" seed windows silent_windows)
            m o;
          List.iter
            (fun (f : Watchdog.report) -> Hashtbl.replace fired (Watchdog.rule_name f.Watchdog.wrule) ())
            (Monitor_oracle.findings o)))
    [ (1, 16, 2); (7919, 6, 2); (42, 64, 3); (5, 3, 1) ];
  List.iter
    (fun rule -> checkb (rule ^ " exercised") true (Hashtbl.mem fired rule))
    [ "cpu-silent"; "lock-spike"; "runq-growth" ]

(* One window close on the kv deployment's registry (ixgbe, NVMe, the
   span families, the obs tallies) once the ring slots have their
   shape: a snapshot and a diff into reused arrays, a summary, a sweep.
   Sorted association-list snapshots and deltas come to 6,700-7,800
   words per close on this registry. *)
let test_tick_allocation_floor () =
  with_flight ~slots:256 (fun _ ->
      let m = Monitor.arm ~windows:64 ~window_cycles:32768 ~now:0 ~specs:[ slo_spec () ] () in
      let r = Kv_demo.run ~requests:100 ~nic:`Ixgbe () in
      let now = ref r.Kv_demo.end_cycles in
      let tick () =
        now := !now + 40_000;
        Monitor.tick m ~now:!now
      in
      for _ = 1 to 70 do
        tick ()
      done;
      Alloc.check_at_most "Monitor.tick on the kv registry" ~limit:1000.
        (Alloc.per_call ~n:100 tick))

(* A condition that persists files one report per window; the ledger
   keeps [findings_cap] per rule and counts the rest, and a rule that
   floods never uses up another rule's budget. *)
let test_findings_ledger_bounded () =
  with_flight ~slots:8 (fun _ ->
      let window = 2000 in
      let m = Monitor.arm ~windows:16 ~window_cycles:window ~now:0 ~specs:[] () in
      let vnow = ref 0 in
      let beat cpu =
        Sink.set_cpu cpu;
        let s = Span.begin_ ~ts:!vnow Span.User in
        vnow := !vnow + 250;
        Span.end_ ~ts:!vnow s
      in
      (* every window overflows the 8-slot rings: one ring-drop each *)
      while !vnow < 100 * window do
        beat 0;
        beat 1
      done;
      while !vnow < 106 * window do
        beat 0
      done;
      Monitor.finish m ~now:!vnow;
      let count rule =
        List.length
          (List.filter (fun f -> Watchdog.rule_name f.Watchdog.wrule = rule) (Monitor.findings m))
      in
      checki "ring-drop kept up to the cap" Monitor.findings_cap (count "ring-drop");
      checkb "the rest counted" true
        (match List.assoc_opt "ring-drop" (Monitor.unfiled m) with Some n -> n > 0 | None -> false);
      checkb "cpu-silent still filed on its own budget" true (count "cpu-silent" > 0);
      checkb "cpu-silent under its cap" true (List.assoc_opt "cpu-silent" (Monitor.unfiled m) = None))

let () =
  Alcotest.run "monitor"
    [
      ( "snapshot",
        [
          Alcotest.test_case "deterministic sorted snapshot" `Quick test_snapshot_sorted;
          Alcotest.test_case "delta of counters and histograms" `Quick test_snapshot_diff;
          Alcotest.test_case "reset clamps, cached handles survive" `Quick
            test_reset_clamps_and_cached_handle;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "single window rollup" `Quick test_timeseries_basic;
          Alcotest.test_case "ring wraparound" `Quick test_timeseries_wraparound;
          Alcotest.test_case "empty windows" `Quick test_timeseries_empty_windows;
        ] );
      ( "slo",
        [
          Alcotest.test_case "spec parsing" `Quick test_slo_parse;
          Alcotest.test_case "verdict arithmetic" `Quick test_slo_evaluate;
          Alcotest.test_case "online vs post-mortem quantiles" `Quick
            test_online_vs_postmortem_quantiles;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "cpu-silent on a stalled cpu" `Quick test_watchdog_cpu_silent;
          Alcotest.test_case "quiet on a healthy run" `Quick test_watchdog_quiet_when_healthy;
          Alcotest.test_case "lock-wait spike" `Quick test_watchdog_lock_spike;
          Alcotest.test_case "run-queue growth" `Quick test_watchdog_runq_growth;
          Alcotest.test_case "flight-ring drops" `Quick test_watchdog_ring_drop;
        ] );
      ( "exemplar",
        [ Alcotest.test_case "coverage of injected slow requests" `Quick test_exemplar_coverage ];
      );
      ( "oracle",
        [
          Alcotest.test_case "kv runs match the list-based close" `Quick
            test_kv_matches_list_oracle;
          Alcotest.test_case "synthetic series match the list-based close" `Quick
            test_synthetic_matches_list_oracle;
        ] );
      ( "cost",
        [
          Alcotest.test_case "tick allocation floor" `Quick test_tick_allocation_floor;
          Alcotest.test_case "findings ledger bounded per rule" `Quick
            test_findings_ledger_bounded;
        ] );
    ]
