(* Span layer: the kv-store demo traced vs untraced.

   The request-path tracing of the span layer rides the same contract
   as the raw tracepoints: with the sink disabled every span site is a
   flag load, so the kv workload's virtual clock and per-request
   latencies must be bit-identical with tracing on.  The latency
   distribution is aggregated from per-shard histograms through
   [Histogram.merge] — the same mechanism [report] uses.  What tracing
   costs in host time is [obs]'s measurement. *)

open Common

let run () =
  section "Span layer: kv-store demo traced vs untraced (model cycles)";
  kv_untrace ();
  let off = Kv.run ~requests:kv_requests () in
  let t = kv_traced_run () in
  let on = t.result in
  let count p = List.length (List.filter p t.records) in
  let spans =
    count (fun (r : O.Event.record) ->
        match r.O.Event.ev with O.Event.Span_begin _ -> true | _ -> false)
  in
  let edges =
    count (fun (r : O.Event.record) ->
        match r.O.Event.ev with O.Event.Causal _ -> true | _ -> false)
  in
  (* per-shard latency histograms, merged for the aggregate quantiles *)
  let module Hist = O.Metrics.Histogram in
  let shard0 = Hist.make "bench/kv_lat_shard0" and shard1 = Hist.make "bench/kv_lat_shard1" in
  List.iteri (fun i l -> Hist.observe (if i land 1 = 0 then shard0 else shard1) l) on.Kv.latencies;
  let agg = Hist.make "bench/kv_lat" in
  Hist.merge ~into:agg shard0;
  Hist.merge ~into:agg shard1;
  line "%d GET requests, disabled sink vs flight sink (ring of %d slots/cpu):" kv_requests
    (Lazy.force kv_ring_slots);
  line "  flight sink: %d spans, %d causal edges live; %d dropped" spans edges t.dropped;
  line "  request latency (model cycles, merged shards): p50 %d  p99 %d  (n=%d)" (Hist.p50 agg)
    (Hist.p99 agg) (Hist.count agg);
  let identical = kv_identity ~indent:"  " off on in
  line "(span instrumentation must never move simulated time)";
  write_bench_json "BENCH_span.json"
    [
      ("bench", J.Str "span_layer");
      ("requests", J.Num (float_of_int kv_requests));
      ("spans_live", J.Num (float_of_int spans));
      ("causal_edges_live", J.Num (float_of_int edges));
      ("end_cycles", J.Num (float_of_int on.Kv.end_cycles));
      ("lat_p50_cycles", J.Num (float_of_int (Hist.p50 agg)));
      ("lat_p99_cycles", J.Num (float_of_int (Hist.p99 agg)));
      ("cycle_identity", J.Bool identical);
    ]
