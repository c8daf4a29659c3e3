(* The online SLO monitor: glue binding the rollup ring, the SLO
   specs, and the watchdog to the span layer's close-path hooks.

   Arming installs three things: the slow-root threshold (tightest
   armed `lat/request` limit, so the ledger collects exactly the SLO's
   violators), the window tick (first span close past each boundary
   closes a rollup window), and a baseline watchdog sample.  Each tick
   costs one registry snapshot + diff into a reused ring slot, one
   gauge sample, one window summary and one watchdog sweep over the
   summaries — all off the per-event path, so the production-cost
   guarantees of the emit layer survive (re-gated by `bench slo`).

   Exactly one monitor is active at a time, mirroring the sink
   registry's discipline. *)

(* The findings ledger keeps at most [findings_cap] reports per rule,
   like the span layer's slow-root ledger, and counts the rest: a
   condition that persists (a ring that overflows every window) files a
   report at every tick, and an unbounded ledger would grow with the
   run.  Each rule has its own budget, so a flood of ring-drop reports
   never crowds out a cpu-silent one.  No dedup is needed: every
   report carries its tick's window sequence number, so keys never
   repeat across ticks. *)
let findings_cap = 64

type t = {
  series : Timeseries.t;
  specs : Slo.spec list;
  watchdog : Watchdog.t;
  depth_probe : (unit -> int) option;
  mutable findings : Watchdog.report list;  (* newest first *)
  kept : int array;  (* per rule code: findings kept *)
  unfiled : int array;  (* per rule code: findings past the cap *)
}

let active_m : t option ref = ref None

let active () = !active_m

let sample_now depth_probe ~seq =
  let depth = match depth_probe with None -> 0 | Some f -> f () in
  { Watchdog.sseq = seq; depth; drops = Sink.dropped () }

let file m (r : Watchdog.report) =
  let k = Watchdog.rule_code r.Watchdog.wrule in
  if m.kept.(k) < findings_cap then begin
    m.kept.(k) <- m.kept.(k) + 1;
    m.findings <- r :: m.findings
  end
  else m.unfiled.(k) <- m.unfiled.(k) + 1

let tick m ~now =
  (* Drop accounting first so the tallies it publishes land inside the
     window being closed, not the next one. *)
  let s = sample_now m.depth_probe ~seq:(Timeseries.ticks m.series) in
  Timeseries.tick m.series ~now;
  List.iter (file m) (Watchdog.observe m.watchdog m.series s);
  Span.set_tick_at (Timeseries.next_boundary m.series)

let disarm () =
  match !active_m with
  | None -> ()
  | Some _ ->
    active_m := None;
    Span.clear_tick ();
    Span.set_slow_threshold max_int

let arm ?(windows = 64) ?(config = Watchdog.default_config) ?depth_probe ~window_cycles
    ~now ~specs () =
  disarm ();
  let series = Timeseries.create ~windows ~window_cycles ~now () in
  let rules = 1 + Watchdog.rule_code Watchdog.Ring_drop in
  let m =
    {
      series;
      specs;
      watchdog =
        Watchdog.create ~config ~windows ~baseline:(sample_now depth_probe ~seq:(-1)) ();
      depth_probe;
      findings = [];
      kept = Array.make rules 0;
      unfiled = Array.make rules 0;
    }
  in
  active_m := Some m;
  let threshold =
    List.fold_left
      (fun acc (s : Slo.spec) -> if s.Slo.metric = "lat/request" then min acc s.Slo.limit else acc)
      max_int specs
  in
  Span.clear_slow ();
  Span.set_slow_threshold threshold;
  Span.set_tick ~at:(now + window_cycles) (fun ts ->
      match !active_m with None -> () | Some m -> tick m ~now:ts);
  m

(* Close the final (possibly partial) window so the last requests are
   in the rollups, then leave the monitor armed for inspection. *)
let finish m ~now = tick m ~now

let series m = m.series
let specs m = m.specs
let verdicts m = List.map (fun s -> Slo.evaluate s m.series) m.specs
let compliant m = List.for_all (fun (v : Slo.verdict) -> v.Slo.compliant) (verdicts m)
let findings m = List.rev m.findings

let unfiled m =
  List.filter_map
    (fun rule ->
      let n = m.unfiled.(Watchdog.rule_code rule) in
      if n > 0 then Some (Watchdog.rule_name rule, n) else None)
    Watchdog.[ Cpu_silent 0; Lock_spike; Runq_growth; Ring_drop ]

let samples m = Watchdog.samples m.watchdog

let capture_exemplars ?max_exemplars m =
  ignore m;
  Exemplar.capture ?max_exemplars ~records:(Sink.records ()) (Span.slow_roots ())
