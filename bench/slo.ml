(* slo: online monitor cost over flight-only, streaming-vs-post-mortem
   quantile agreement, and slow-request exemplar coverage.

   The monitor rides the span layer's production-cost contract: armed
   on top of the flight sink it adds one histogram observe plus one
   threshold compare per request-root close and one snapshot diff per
   window boundary — nothing per event.  Three gates: (a) host-time
   overhead of flight+monitor stays within 15 points of flight alone;
   (b) the ring drops nothing, every request is rolled up exactly
   once, and the cycle model never moves; (c) the streaming
   p50/p99/p999 agree with the post-mortem profiler to the log2
   bucket, and every injected slow request yields a complete
   exemplar trail. *)

open Common

let run () =
  section "SLO monitor: overhead vs flight-only, online vs post-mortem quantiles";
  let spec =
    match O.Slo.parse "lat/request:p99<=262143@8" with
    | Ok s -> s
    | Error m -> failwith m
  in
  (* Overhead is measured with production-shaped windows: an SLO
     evaluation window spans many requests (here ~24 at ~174k cycles
     each), so tick cost amortises the way it would in deployment.
     The agreement run below uses much finer windows to stress the
     rollup machinery itself.  The monitor is re-armed per run, so
     every run pays the full window-tick and slow-ledger cost. *)
  let armed = ref None in
  let arm () =
    let m = O.Monitor.arm ~windows:64 ~window_cycles:4_194_304 ~now:0 ~specs:[ spec ] () in
    armed := Some m;
    m
  in
  let c = kv_cost ~monitor:arm () in
  let ticks_per_run =
    match !armed with Some m -> O.Timeseries.ticks (O.Monitor.series m) | None -> 0
  in
  let mon = Option.get c.monitored in
  let rolled =
    match O.Metrics.Snapshot.hist (O.Metrics.Snapshot.take ()) "lat/request" with
    | Some h -> h.O.Metrics.Snapshot.n
    | None -> 0
  in
  let traced_requests = 2 * rounds * kv_runs * kv_requests in
  let identical = same_cycles c.off c.flight && same_cycles c.flight mon in
  let fl_pct = overhead_pct c.off_ms c.flight_ms in
  let mon_pct = overhead_pct c.off_ms c.monitor_ms in
  (* the monitor's cost in points of the disabled run, round by round *)
  let delta_pts = List.map2 ( -. ) mon_pct fl_pct in
  line "%d GET requests per run; host ms per %d runs, median [IQR] of %d rounds:" kv_requests
    kv_runs rounds;
  line "  disabled sink:   %a" pp_timed c.off_ms;
  line "  flight sink:     %a  (%+.1f%% vs disabled)" pp_timed c.flight_ms (H.median fl_pct);
  line "  flight+monitor:  %a  (%+.1f%% vs disabled; %d tick(s)/run)" pp_timed c.monitor_ms
    (H.median mon_pct) ticks_per_run;
  line "  monitor over flight: %+.1f points of the disabled run [IQR %.1f]" (H.median delta_pts)
    (iqr delta_pts);
  line "  drops %d; requests rolled up %d/%d; identical: %b" c.drops rolled traced_requests
    identical;
  (* agreement run: one seeded pass with injected slow requests, a
     wrap-free ring and ring of windows, compared online vs offline *)
  let slow_every = 20 and slow_cycles = 200_000 in
  let injected = kv_requests / slow_every in
  O.Metrics.reset ();
  kv_trace (O.Sink.Flight (kv_recorder ()));
  let m = O.Monitor.arm ~windows:512 ~window_cycles:32768 ~now:0 ~specs:[ spec ] () in
  let agree = Kv.run ~requests:kv_requests ~slow_every ~slow_cycles () in
  O.Monitor.finish m ~now:agree.Kv.end_cycles;
  let series = O.Monitor.series m in
  let merged =
    O.Timeseries.merged series ~name:"lat/request" ~n:(O.Timeseries.capacity series)
  in
  let online q = O.Metrics.Snapshot.quantile merged q in
  (* post-mortem: the profiler's request-root durations, exact ranks *)
  let prof = O.Profile.build (O.Sink.records ()) in
  let request_code = O.Span.code O.Span.Request in
  let durs =
    List.filter_map
      (fun (s : O.Profile.span) ->
        if s.O.Profile.kind = request_code && s.O.Profile.ended then
          Some (O.Profile.duration s)
        else None)
      (O.Profile.spans prof)
    |> Array.of_list
  in
  let offline q = H.quantile_int durs q in
  let bucket = O.Metrics.Histogram.bucket_of in
  let agree_q q =
    let on = online q and post = offline q in
    let ok = abs (bucket on - bucket post) <= 1 in
    line "  p%-5g online %8d (bucket %2d)  post-mortem %8d (bucket %2d)  %s"
      (q *. 100.) on (bucket on) post (bucket post)
      (if ok then "agree" else "DISAGREE");
    ok
  in
  line "agreement run: %d requests, %d injected slow (+%d cycles), %d windows closed:"
    kv_requests injected slow_cycles (O.Timeseries.ticks series);
  let a50 = agree_q 0.50 and a99 = agree_q 0.99 and a999 = agree_q 0.999 in
  let exemplars = O.Monitor.capture_exemplars ~max_exemplars:64 m in
  let complete =
    List.for_all (fun (e : O.Exemplar.t) -> e.O.Exemplar.complete) exemplars
  in
  let verdict = List.hd (O.Monitor.verdicts m) in
  line "  exemplars: %d captured for %d injected slow requests (all complete: %b)"
    (List.length exemplars) injected complete;
  line "  verdict: %a" O.Slo.pp_verdict verdict;
  kv_untrace ();
  write_bench_json "BENCH_slo.json"
    ([
       ("bench", J.Str "slo_monitor");
       ("requests", J.Num (float_of_int kv_requests));
       ("timing_rounds", J.Num (float_of_int rounds));
     ]
    @ timed "disabled_ms" c.off_ms
    @ timed "flight_ms" c.flight_ms
    @ timed "monitor_ms" c.monitor_ms
    @ timed "flight_overhead_pct" fl_pct
    @ timed "monitor_overhead_pct" mon_pct
    @ timed "overhead_delta_pts" delta_pts
    @ [
        ("events_dropped", J.Num (float_of_int c.drops));
        ("requests_rolled_up", J.Num (float_of_int rolled));
        ("rollup_exact", J.Bool (rolled = traced_requests));
        ("cycle_identity", J.Bool identical);
        ("quantile_agreement", J.Bool (a50 && a99 && a999));
        ("injected_slow", J.Num (float_of_int injected));
        ("exemplars_captured", J.Num (float_of_int (List.length exemplars)));
        ("exemplar_coverage", J.Bool (List.length exemplars = injected && complete));
        ("slo_violated_as_expected", J.Bool (not verdict.O.Slo.compliant));
      ])
