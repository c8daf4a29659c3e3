(* Observability overhead: the flight recorder on vs off.

   Always-on tracing at production cost, measured on the kv-store demo:
   with the sink disabled every tracepoint is one mask load; with the
   flight recorder installed the zero-alloc in-arena emit path must stay
   within 2x of the untraced run (overhead_pct <= 100, gated by
   [report]).  The ring is sized so that not a single event is dropped
   (events_dropped = 0, also gated), and the per-kind emit counters must
   account for every record exactly.  Tracing costs host time only: the
   kv virtual clock and per-request latencies must be bit-identical on
   vs off. *)

open Common

let run () =
  section "Observability: tracing overhead on vs off (host time; model cycles)";
  let c = kv_cost () in
  let t = kv_traced_run () in
  let overhead = overhead_pct c.off_ms c.flight_ms in
  let live = List.length t.records in
  let dropped = c.drops + t.dropped in
  let accounting = live = t.emitted + t.span_pairs && dropped = 0 in
  line "%d GET requests per run, ring of %d slots/cpu;" kv_requests (Lazy.force kv_ring_slots);
  line "host ms per %d runs, median [IQR] of %d rounds:" kv_runs rounds;
  line "disabled sink: %a" pp_timed c.off_ms;
  line "flight sink:   %a" pp_timed c.flight_ms;
  line "host-time overhead when enabled: %.1f%% [IQR %.1f points]" (H.median overhead)
    (iqr overhead);
  line "lossless accounting: %d records = %d emitted + %d span pairs, %d dropped: %b" live
    t.emitted t.span_pairs dropped accounting;
  let identical = kv_identity ~indent:"" c.off c.flight && same_cycles c.off t.result in
  line "(tracing must never move simulated time: 'identical: true' is the contract)";
  write_bench_json "BENCH_obs.json"
    ([
       ("bench", J.Str "obs_overhead");
       ("requests", J.Num (float_of_int kv_requests));
       ("timing_rounds", J.Num (float_of_int rounds));
       ("ring_slots", J.Num (float_of_int (Lazy.force kv_ring_slots)));
     ]
    @ timed "disabled_ms" c.off_ms
    @ timed "flight_ms" c.flight_ms
    @ timed "overhead_pct" overhead
    @ [
        ("events_live", J.Num (float_of_int live));
        ("events_dropped", J.Num (float_of_int dropped));
        ("accounting_exact", J.Bool accounting);
        ("cycle_identity", J.Bool identical);
      ])
