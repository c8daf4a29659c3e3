(* atmo: command-line front end for the Atmosphere reproduction.

   Subcommands:
     verify   discharge the verification obligation suites
     fuzz     randomized refinement checking of the kernel
     ni       noninterference harness (unwinding conditions)
     boot     boot a kernel and print its abstract state
     trace    flight-record a workload; dump events, export Chrome traces
     profile  post-mortem profiler over the kv-store demo workload
     top      per-container / per-process cycle accounting tables
     metrics  metrics registry snapshot / Prometheus text exposition
     monitor  online SLO monitor over a workload; exit code is compliance
     san      run the scripted workload under the atmo-san sanitizer *)

open Cmdliner
module Runner = Atmo_verif.Runner
module Catalog = Atmo_verif.Catalog
module Obligation = Atmo_verif.Obligation
module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Obs_event = Atmo_obs.Event
module Obs_flight = Atmo_obs.Flight
module Obs_metrics = Atmo_obs.Metrics
module Obs_sink = Atmo_obs.Sink
module Obs_span = Atmo_obs.Span
module Obs_profile = Atmo_obs.Profile
module Obs_export = Atmo_obs.Export
module Obs_timeseries = Atmo_obs.Timeseries
module Obs_slo = Atmo_obs.Slo
module Obs_monitor = Atmo_obs.Monitor
module Obs_watchdog = Atmo_obs.Watchdog
module Obs_exemplar = Atmo_obs.Exemplar
module Kv_demo = Atmo_workloads.Kv_demo
module Scenario = Atmo_workloads.Scenario
module Plants = Atmo_workloads.Plants
module San_report = Atmo_san.Report

let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Info)

(* ------------------------------------------------------------------ *)

module Incremental = Atmo_verif.Incremental

(* Multi-domain discharge is the default: [--threads 0] (the default)
   resolves to the machine's recommended domain count, as the parallel
   benches do. *)
let resolve_threads threads =
  if threads > 0 then threads else min 8 (Domain.recommended_domain_count ())

let print_report ~threads ~verbose report =
  if verbose then Format.printf "%a@." Runner.pp report
  else
    Format.printf "%d obligations, %d threads, wall %.3f s, check %.3f s@."
      (List.length report.Runner.results)
      threads report.Runner.wall_s
      (Runner.total_check_time report)

let report_failures report =
  match Runner.failures report with
  | [] ->
    Format.printf "all obligations discharged.@.";
    0
  | fs ->
    List.iter (fun f -> Format.printf "FAILED %a@." Obligation.pp_result f) fs;
    1

let verdicts report =
  List.map
    (fun (r : Obligation.result) ->
      (r.Obligation.name, r.Obligation.ok, r.Obligation.detail))
    report.Runner.results

(* One full discharge to populate the verdict cache, one syscall on the
   live world, then an incremental re-run: only obligations whose read
   set intersects the transition's dirty set may be re-discharged, and
   the spliced report must be verdict-identical to a from-scratch run. *)
let verify_incremental ~threads ~verbose k init suite =
  let full = Incremental.run ~threads suite in
  Format.printf "full run:        ";
  print_report ~threads ~verbose:false full;
  (match Kernel.step k ~thread:init Syscall.Yield with
   | Syscall.Rerr e -> Format.printf "(transition yield -> %a)@." Atmo_util.Errno.pp e
   | _ -> ());
  Format.printf "transition:      yield; dirty = {%s}@."
    (String.concat ", " (Incremental.dirty_ids ()));
  let incr = Incremental.run ~threads suite in
  Format.printf "incremental run: ";
  print_report ~threads ~verbose incr;
  let oracle = Runner.run ~threads suite in
  let n = List.length suite in
  let frac = 100. *. float_of_int incr.Runner.rechecked /. float_of_int (max 1 n) in
  Format.printf "re-discharged %d/%d obligations (%.1f%%), reused %d cached verdicts@."
    incr.Runner.rechecked n frac incr.Runner.reused;
  let identical = verdicts incr = verdicts oracle in
  Format.printf "verdicts vs full re-check: %s@."
    (if identical then "bit-identical" else "DIVERGED");
  let ok = Runner.all_ok incr in
  if not ok then ignore (report_failures incr);
  if identical && ok && frac <= 20. then begin
    Format.printf "incremental verification sound; re-check fraction within the 20%% budget.@.";
    0
  end
  else begin
    if frac > 20. then
      Format.printf "FAILED: re-checked %.1f%% of the suite (budget 20%%)@." frac;
    1
  end

(* [atmo verify --plant]: plant a bug behind the armed incremental
   verifier and require its lint to catch it, by exactly its rule. *)
let verify_plant ~scale ~threads (e : Plants.t) =
  match Plants.verify ~scale ~threads e with
  | Error msg ->
    Format.eprintf "failed to build the verification world: %s@." msg;
    1
  | Ok v ->
    Format.printf "planted: %s@." e.Plants.help;
    List.iter (fun r -> Format.printf "%a@." San_report.pp r) v.Plants.reports;
    (match v.Plants.verdict with
     | Plants.Detected _ ->
       Format.printf "%s plant detected by exactly its rule (%d report(s)).@." e.Plants.name
         (List.length v.Plants.reports);
       0
     | Plants.Collateral n ->
       Format.printf "%s plant NOT detected correctly (%d report(s) under other rules).@."
         e.Plants.name n;
       1
     | Plants.Missed ->
       Format.printf "%s plant NOT detected (%d report(s)).@." e.Plants.name
         (List.length v.Plants.reports);
       1)

let verifier_plants =
  List.filter
    (fun e -> match e.Plants.body with Plants.On_verifier _ -> true | _ -> false)
    Plants.table

let verify scale threads verbose incremental plant =
  setup_logs ();
  let threads = resolve_threads threads in
  match plant with
  | Some name -> (
    match List.find_opt (fun e -> e.Plants.name = name) verifier_plants with
    | Some e -> verify_plant ~scale ~threads e
    | None ->
      Format.eprintf "verify: unknown plant %S (only %s)@." name
        (String.concat ", " (List.map (fun e -> e.Plants.name) verifier_plants));
      124)
  | None when incremental ->
    (match Catalog.build_world ~scale with
     | Error msg ->
       Format.eprintf "failed to build the verification world: %s@." msg;
       1
     | Ok (k, init) ->
       Incremental.arm ();
       Fun.protect ~finally:Incremental.disarm (fun () ->
           verify_incremental ~threads ~verbose k init (Catalog.suite_for ~scale k)))
  | None ->
    (match Catalog.full_suite ~scale with
     | Error msg ->
       Format.eprintf "failed to build the verification world: %s@." msg;
       1
     | Ok suite ->
       let report = Runner.run ~threads suite in
       print_report ~threads ~verbose report;
       report_failures report)

let fuzz seed steps =
  setup_logs ();
  match Kernel.boot Kernel.default_boot with
  | Error e ->
    Format.eprintf "boot: %a@." Atmo_util.Errno.pp e;
    1
  | Ok (k, _) ->
    (match Atmo_verif.Refine_harness.random_trace_check ~seed ~steps k with
     | Ok n ->
       Format.printf "%d random transitions, every one satisfied its spec and total_wf.@." n;
       0
     | Error o ->
       Format.printf "violation at %a -> %a@.spec: %s@.wf: %s@." Atmo_spec.Syscall.pp
         o.Atmo_verif.Refine_harness.call Atmo_spec.Syscall.pp_ret
         o.Atmo_verif.Refine_harness.ret
         (match o.Atmo_verif.Refine_harness.spec with Ok () -> "ok" | Error m -> m)
         (match o.Atmo_verif.Refine_harness.wf with Ok () -> "ok" | Error m -> m);
       1)

let ni seed steps =
  setup_logs ();
  let show = function
    | Ok _ -> true
    | Error (f : Atmo_ni.Harness.failure) ->
      Format.printf "  FAILED at step %d: %s@." f.Atmo_ni.Harness.at_step
        f.Atmo_ni.Harness.what;
      false
  in
  Format.printf "output consistency...@.";
  let oc = show (Atmo_ni.Harness.output_consistency ~seed ~steps) in
  Format.printf "step consistency (with the verified service)...@.";
  let sc = show (Atmo_ni.Harness.step_consistency ~with_service:true ~seed ~steps ()) in
  Format.printf "probe consistency...@.";
  let pc =
    show (Atmo_ni.Harness.probe_consistency ~seed ~steps:(min steps 40) ~probes:5)
  in
  if oc && sc && pc then begin
    Format.printf "all unwinding conditions hold.@.";
    0
  end
  else 1

let boot_cmd () =
  setup_logs ();
  match Kernel.boot Kernel.default_boot with
  | Error e ->
    Format.eprintf "boot: %a@." Atmo_util.Errno.pp e;
    1
  | Ok (k, init) ->
    Format.printf "booted; init thread 0x%x@.%a@." init Atmo_spec.Abstract_state.pp
      (Atmo_core.Abstraction.abstract k);
    (match Atmo_core.Invariants.total_wf k with
     | Ok () ->
       Format.printf "total_wf holds.@.";
       0
     | Error msg ->
       Format.printf "total_wf BROKEN: %s@." msg;
       1)

(* ------------------------------------------------------------------ *)
(* Shared observability plumbing: run the kv-store demo workload under
   a flight recorder, hand back the decoded stream, and restore the
   Disabled sink.  The metrics registry is left populated — top and the
   exporters read it after the run. *)

let write_text_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let run_kv_traced ~requests ~slots =
  Obs_metrics.reset ();
  Obs_span.with_recorder ~cpus:2 ~slots (fun _ ->
      let result = Kv_demo.run ~requests () in
      (result, Obs_sink.records (), Obs_sink.dropped ()))

(* Counters of one family, [prefix] stripped, sorted by descending
   value then name. *)
let counter_family prefix =
  let plen = String.length prefix in
  Obs_metrics.all_counters ()
  |> List.filter_map (fun (name, c) ->
         if String.length name > plen && String.sub name 0 plen = prefix then begin
           let v = Obs_metrics.Counter.value c in
           if v > 0 then Some (String.sub name plen (String.length name - plen), v)
           else None
         end
         else None)
  |> List.sort (fun (na, a) (nb, b) -> compare (b, na) (a, nb))

let total_cycles () = Obs_metrics.Counter.value (Obs_metrics.counter "cycles/total")
let sum_family prefix = List.fold_left (fun a (_, v) -> a + v) 0 (counter_family prefix)

(* ------------------------------------------------------------------ *)
(* profile: post-mortem profiler over the kv-store demo workload       *)

let profile requests folded_out =
  setup_logs ();
  let result, records, dropped = run_kv_traced ~requests ~slots:16384 in
  let p = Obs_profile.build records in
  Format.printf
    "kv workload: %d requests (%d hits), end clock %d cycles;@.\
    \ %d spans decoded (%d truncated by wraparound, %d events dropped), %d causal edges@."
    result.Kv_demo.requests result.Kv_demo.hits result.Kv_demo.end_cycles
    (Obs_profile.span_count p) (Obs_profile.truncated p) dropped
    (List.length (Obs_profile.edges p));
  (* the acceptance query: every Request root must reach an IPC
     rendezvous and both driver halves across CPUs through parent
     links and causal edges *)
  let req_code = Obs_span.code Obs_span.Request in
  let request_roots =
    List.filter
      (fun id ->
        match Obs_profile.find p id with
        | Some s -> s.Obs_profile.kind = req_code
        | None -> false)
      (Obs_profile.roots p)
  in
  let complete = ref 0 in
  List.iter
    (fun id ->
      let reach = Obs_profile.reachable p ~from:id in
      let span_of sid = Obs_profile.find p sid in
      let kinds = List.filter_map (fun sid -> Option.map (fun s -> s.Obs_profile.kind) (span_of sid)) reach in
      let cpus =
        List.sort_uniq compare
          (List.filter_map (fun sid -> Option.map (fun s -> s.Obs_profile.cpu) (span_of sid)) reach)
      in
      let has k = List.mem (Obs_span.code k) kinds in
      if
        has Obs_span.Ipc_rendezvous && has Obs_span.Drv_submit
        && has Obs_span.Drv_complete
        && List.length cpus > 1
      then incr complete)
    request_roots;
  Format.printf
    "request paths: %d/%d Request roots reach an IPC rendezvous and a driver@.\
    \ submit/completion across CPUs@."
    !complete (List.length request_roots);
  let total = total_cycles () in
  let containers = counter_family "cycles/container/" in
  let csum = List.fold_left (fun a (_, v) -> a + v) 0 containers in
  Format.printf "@.-- per-container cycles (sum %d vs cycles/total %d) --@." csum total;
  List.iter
    (fun (nm, v) ->
      Format.printf "  container %-8s %10d  %5.1f%%@." nm v
        (100. *. float_of_int v /. float_of_int (max 1 total)))
    containers;
  Format.printf "@.-- self/total cycles by span kind --@.%a" Obs_profile.pp_kind_table p;
  let folded = Obs_profile.collapsed p in
  Format.printf "@.-- collapsed stacks (folded; flamegraph.pl / speedscope input) --@.";
  List.iter (fun (path, self) -> Format.printf "%s %d@." path self) folded;
  (match folded_out with
   | None -> ()
   | Some f ->
     write_text_file f
       (String.concat "" (List.map (fun (pth, s) -> Printf.sprintf "%s %d\n" pth s) folded));
     Format.printf "wrote %s@." f);
  if !complete = List.length request_roots && request_roots <> [] && csum = total then begin
    Format.printf
      "@.profile ok: every request path reconstructs; container cycles sum to cycles/total.@.";
    0
  end
  else begin
    Format.printf "@.profile FAILED: %d/%d paths complete, container sum %d vs cycles/total %d@."
      !complete (List.length request_roots) csum total;
    1
  end

(* ------------------------------------------------------------------ *)
(* top: per-container / per-process / per-kind cycle accounting        *)

let top requests =
  setup_logs ();
  let result, _records, _dropped = run_kv_traced ~requests ~slots:8192 in
  let total = total_cycles () in
  Format.printf "kv workload: %d requests, end clock %d cycles; cycles/total %d@."
    result.Kv_demo.requests result.Kv_demo.end_cycles total;
  let table title prefix =
    match counter_family prefix with
    | [] -> ()
    | rows ->
      Format.printf "@.%-24s %12s  %6s@." title "CYCLES" "%TOTAL";
      List.iter
        (fun (nm, v) ->
          Format.printf "%-24s %12d  %5.1f%%@." nm v
            (100. *. float_of_int v /. float_of_int (max 1 total)))
        rows
  in
  table "CONTAINER" "cycles/container/";
  table "PROCESS" "cycles/process/";
  table "THREAD" "cycles/thread/";
  table "SPAN KIND" "cycles/kind/";
  let csum = sum_family "cycles/container/" in
  if csum = total then begin
    Format.printf "@.accounting closed: container cycles sum to cycles/total (%d).@." total;
    0
  end
  else begin
    Format.printf "@.accounting LEAK: container sum %d <> cycles/total %d@." csum total;
    1
  end

(* ------------------------------------------------------------------ *)
(* metrics: registry snapshot / Prometheus text exposition             *)

let metrics_main export requests out =
  setup_logs ();
  let _result, _records, _dropped = run_kv_traced ~requests ~slots:8192 in
  let text =
    match export with
    | "prom" -> Obs_export.prometheus ()
    | _ -> Obs_metrics.dump ()
  in
  (match out with
   | None -> print_string text
   | Some f ->
     write_text_file f text;
     Format.printf "wrote %s (%d bytes)@." f (String.length text));
  0

(* ------------------------------------------------------------------ *)
(* monitor: online SLO monitor over the kv-store demo workload         *)

let heartbeat_prefix = "sched/heartbeat/"

let monitor_main workload requests slots slo_strs window_cycles windows slow_every
    slow_cycles prom_out trace_out =
  setup_logs ();
  if workload <> "kv" then begin
    Format.eprintf "monitor: unknown workload %S (only kv is wired)@." workload;
    2
  end
  else begin
    let slo_strs = if slo_strs = [] then [ "lat/request:p99<=262143@8" ] else slo_strs in
    let specs_r = List.map Obs_slo.parse slo_strs in
    match List.find_map (function Error e -> Some e | Ok _ -> None) specs_r with
    | Some e ->
      Format.eprintf "monitor: %s@." e;
      2
    | None ->
      let specs = List.filter_map Result.to_option specs_r in
      Obs_metrics.reset ();
      Obs_span.with_recorder ~cpus:2 ~slots @@ fun _ ->
      let m = Obs_monitor.arm ~windows ~window_cycles ~now:0 ~specs () in
      Fun.protect ~finally:Obs_monitor.disarm
        (fun () ->
          let result = Kv_demo.run ~requests ~slow_every ~slow_cycles () in
          Obs_monitor.finish m ~now:result.Kv_demo.end_cycles;
          let dropped = Obs_sink.dropped () in
          Format.printf
            "kv workload under the SLO monitor: %d requests, end clock %d cycles, %d \
             window(s) closed, %d event(s) dropped@."
            result.Kv_demo.requests result.Kv_demo.end_cycles
            (Obs_timeseries.ticks (Obs_monitor.series m))
            dropped;
          Format.printf "@.-- rollups (windows >= %d cycles wide) --@." window_cycles;
          Format.printf "%4s %10s %10s %6s %10s %7s@." "WIN" "START" "END" "REQS" "p99"
            "BEATS";
          List.iter
            (fun (w : Obs_timeseries.window) ->
              let reqs, p99 =
                match Obs_metrics.Snapshot.hist w.Obs_timeseries.delta "lat/request" with
                | Some h ->
                  (h.Obs_metrics.Snapshot.n, Obs_metrics.Snapshot.quantile h 0.99)
                | None -> (0, 0)
              in
              let beats =
                List.fold_left
                  (fun acc (name, v) ->
                    let plen = String.length heartbeat_prefix in
                    if String.length name > plen && String.sub name 0 plen = heartbeat_prefix
                    then acc + v
                    else acc)
                  0 (Obs_metrics.Snapshot.counters w.Obs_timeseries.delta)
              in
              Format.printf "%4d %10d %10d %6d %10d %7d@." w.Obs_timeseries.seq
                w.Obs_timeseries.w_start w.Obs_timeseries.w_end reqs p99 beats)
            (Obs_timeseries.windows (Obs_monitor.series m));
          Format.printf "@.-- SLO verdicts --@.";
          let verdicts = Obs_monitor.verdicts m in
          List.iter (fun v -> Format.printf "%a@." Obs_slo.pp_verdict v) verdicts;
          (match Obs_monitor.findings m with
          | [] -> Format.printf "@.watchdog: quiet.@."
          | fs ->
            Format.printf "@.-- watchdog findings --@.";
            List.iter (fun f -> Format.printf "%a@." Obs_watchdog.pp_report f) fs;
            List.iter
              (fun (rule, n) ->
                Format.printf "%-12s %d more finding(s) past the %d-per-rule cap@." rule n
                  Obs_monitor.findings_cap)
              (Obs_monitor.unfiled m));
          let exemplars = Obs_monitor.capture_exemplars m in
          (match exemplars with
          | [] -> ()
          | es ->
            Format.printf "@.-- slow-request exemplars --@.";
            List.iter (fun e -> Format.printf "%a@." Obs_exemplar.pp e) es);
          (match trace_out with
          | Some f when exemplars <> [] ->
            write_text_file f (Obs_exemplar.chrome exemplars);
            Format.printf "wrote %s@." f
          | Some f -> Format.printf "no exemplars captured; %s not written@." f
          | None -> ());
          (match prom_out with
          | Some f ->
            write_text_file f
              (Obs_export.prometheus
                 ~exemplars:[ ("lat/request", Obs_exemplar.prom_refs exemplars) ]
                 ());
            Format.printf "wrote %s@." f
          | None -> ());
          let ok =
            List.for_all (fun (v : Obs_slo.verdict) -> v.Obs_slo.compliant) verdicts
          in
          Format.printf "@.%s@." (if ok then "SLO compliant." else "SLO VIOLATED.");
          if ok then 0 else 1)
  end

(* ------------------------------------------------------------------ *)
(* trace: flight-record a scripted IPC + mmap + driver workload        *)

let trace sink_kind workload iterations max_events slots filter sample export out =
  setup_logs ();
  if slots <= 0 || slots land (slots - 1) <> 0 then begin
    Format.eprintf "trace: --slots must be a positive power of two (got %d)@." slots;
    exit 2
  end;
  if sample < 0 || sample > 30 then begin
    Format.eprintf "trace: --sample must be in 0..30 (got %d)@." sample;
    exit 2
  end;
  (* admission config before install: the sink snapshots the filter
     mask when the recorder goes live *)
  (match filter with
   | None -> Obs_sink.set_filter Obs_event.all_tags_mask
   | Some spec ->
     let mask =
       List.fold_left
         (fun acc name ->
           let name = String.trim name in
           match Obs_event.tag_of_name name with
           | Some tag -> acc lor (1 lsl tag)
           | None ->
             Format.eprintf
               "trace: unknown event kind %S in --filter (names as printed under \
                'event kinds', e.g. syscall_enter,page_alloc)@."
               name;
             exit 2)
         0
         (String.split_on_char ',' spec)
     in
     Obs_sink.set_filter mask);
  Obs_sink.set_sample_all ~shift:sample;
  Obs_metrics.reset ();
  Obs_span.reset ();
  let recorder =
    Obs_flight.create ~cpus:2 ~slots ~slot_size:Obs_event.slot_bytes
  in
  (match sink_kind with
   | "disabled" -> Obs_sink.install Obs_sink.Disabled
   | "flight" -> Obs_sink.install (Obs_sink.Flight recorder)
   | other -> Fmt.failwith "trace: unknown sink %S (flight|disabled)" other);
  let finish code =
    Obs_sink.install Obs_sink.Disabled;
    Obs_sink.set_filter Obs_event.all_tags_mask;
    Obs_sink.set_sample_all ~shift:0;
    Obs_sink.set_clock (fun () -> 0);
    Obs_sink.set_cpu 0;
    Obs_span.reset ();
    code
  in
  (match workload with
   | "kv" ->
     let r = Kv_demo.run ~requests:iterations () in
     Format.printf
       "kv workload: %d requests (%d hits) over two IPC rendezvous + NVMe,@.\
       \ end clock %d cycles@."
       r.Kv_demo.requests r.Kv_demo.hits r.Kv_demo.end_cycles
   | _ ->
     let r = Scenario.trace ~iterations in
     let smp = r.Scenario.smp in
     Format.printf "workload: %d syscalls under the big lock (2 CPUs), wall %d cycles,@."
       smp.Atmo_sim.Smp.syscalls_executed smp.Atmo_sim.Smp.wall_cycles;
     Format.printf "          lock wait %d cycles; memory phase to %d; driver clock %d@."
       smp.Atmo_sim.Smp.lock_wait_cycles r.Scenario.memory_end r.Scenario.driver_end);
  let records = Obs_sink.records () in
  (match sink_kind with
   | "disabled" ->
     Format.printf
       "sink disabled: 0 events recorded; the cycle totals above are the@.\
       \ bit-identical baseline any instrumented run must reproduce.@.";
     if export <> None then
       Format.printf "(nothing to export with the disabled sink)@.";
     finish 0
   | _ ->
     Format.printf "@.-- flight recorder: %d live events (%d dropped, oldest-first) --@."
       (List.length records) (Obs_sink.dropped ());
     if filter <> None || sample > 0 then begin
       let emitted = ref 0 and sampled = ref 0 in
       for tag = 1 to Obs_event.tag_count do
         emitted := !emitted + Obs_sink.emitted_count ~tag;
         sampled := !sampled + Obs_sink.sampled_out_count ~tag
       done;
       Format.printf "-- admission: %d emitted, %d sampled out (shift %d) --@."
         !emitted !sampled sample
     end;
     let shown = ref 0 in
     List.iter
       (fun r ->
         if !shown < max_events then begin
           Format.printf "%a@." Obs_event.pp_record r;
           incr shown
         end)
       records;
     if List.length records > max_events then
       Format.printf "... (%d more; raise --events to see them)@."
         (List.length records - max_events);
     let by_kind = Hashtbl.create 16 in
     List.iter
       (fun (r : Obs_event.record) ->
         let key = Obs_event.tag_name r.Obs_event.tag in
         Hashtbl.replace by_kind key
           (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind key)))
       records;
     Format.printf "@.-- event kinds --@.";
     Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_kind []
     |> List.sort compare
     |> List.iter (fun (kind, n) -> Format.printf "%-16s %6d@." kind n);
     Format.printf "@.-- metrics (latencies in model cycles) --@.%a"
       Obs_metrics.pp_table ();
     (match export with
      | Some "chrome" ->
        let json = Obs_export.chrome_trace records in
        write_text_file out json;
        Format.printf "@.wrote %s (%d bytes; load in chrome://tracing or Perfetto)@." out
          (String.length json)
      | Some other -> Fmt.failwith "trace: unknown export %S (chrome)" other
      | None -> ());
     finish 0)

(* ------------------------------------------------------------------ *)
(* san: the scripted workload under the full sanitizer, plus plants    *)

let san plant iterations seed =
  setup_logs ();
  let r = Plants.san ~seed ~iterations plant in
  Format.printf
    "san: %d syscalls under the big lock, %d accesses checked, %d hostile fault(s) absorbed \
     as typed errors over %d checked accesses (seed %d), %d structural check(s) failed@."
    r.Plants.smp.Atmo_sim.Smp.syscalls_executed r.Plants.accesses r.Plants.absorbed
    r.Plants.sweep_accesses seed r.Plants.structural;
  let name = match plant with Some e -> e.Plants.name | None -> "none" in
  let code =
    match (r.Plants.outcome, plant) with
    | Plants.Clean, _ ->
      Format.printf "clean: no violations.@.";
      0
    | Plants.Unclean, None ->
      Format.printf "%a@." San_report.pp_summary ();
      1
    | Plants.Unclean, Some _ ->
      Format.printf "workload was not clean before planting:@.%a@." San_report.pp_summary ();
      1
    | Plants.Planted (Plants.Detected report), _ ->
      Format.printf "planted %s detected:@.%a@." name San_report.pp report;
      0
    | Plants.Planted (Plants.Collateral n), _ ->
      Format.printf "planted %s tripped %d unrelated report(s) too:@.%a@." name n
        San_report.pp_summary ();
      1
    | Plants.Planted Plants.Missed, _ ->
      Format.printf "planted %s NOT detected (%d other report(s)):@.%a@." name
        (San_report.count ()) San_report.pp_summary ();
      1
  in
  if code <> 0 then Format.printf "san: failing run is replayable with --seed %d@." seed;
  code

(* ------------------------------------------------------------------ *)

(* The converter of every count argument: a positive integer, or a
   non-negative one with [~zero:true] where the option's doc says what 0
   means.  Anything else is a cmdliner usage error (exit 124). *)
let count ?(zero = false) () =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 || (zero && n = 0) -> Ok n
    | Some _ ->
      Error
        (Printf.sprintf "invalid value '%s', expected a count %s" s
           (if zero then ">= 0" else "> 0"))
    | None -> Error (Printf.sprintf "invalid value '%s', expected an integer" s)
  in
  Arg.conv' ~docv:"N" (parse, Format.pp_print_int)

let scale_arg =
  Arg.(
    value & opt (count ()) 6 & info [ "scale" ] ~doc:"World size for the verification suite.")

let threads_arg =
  Arg.(
    value
    & opt (count ~zero:true ()) 0
    & info [ "threads"; "j" ]
        ~doc:"Discharge obligations on N domains (0 = auto, the default).")

let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-obligation report.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")
let steps_arg =
  Arg.(value & opt (count ()) 300 & info [ "steps" ] ~doc:"Number of transitions.")

let incremental_arg =
  Arg.(
    value & flag
    & info [ "incremental" ]
        ~doc:
          "Full run, one syscall transition, then a dirty-set incremental re-run \
           checked verdict-identical against a full re-check.")

(* One plant of the table in --help: its name and what it breaks. *)
let plant_doc (e : Plants.t) = Printf.sprintf "$(b,%s) (%s)" e.Plants.name e.Plants.help

let verify_plant_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "plant" ] ~docv:"BUG"
        ~doc:
          ("Plant a bug behind the armed incremental verifier and require its lint to catch \
            it: " ^ String.concat ", " (List.map plant_doc verifier_plants) ^ "."))

let verify_cmd =
  Cmd.v
    (Cmd.info "verify" ~doc:"Discharge the verification obligation suites")
    Term.(const verify $ scale_arg $ threads_arg $ verbose_arg $ incremental_arg
          $ verify_plant_arg)

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Randomized refinement checking of the kernel")
    Term.(const fuzz $ seed_arg $ steps_arg)

let ni_cmd =
  Cmd.v
    (Cmd.info "ni" ~doc:"Noninterference harness (unwinding conditions)")
    Term.(const ni $ seed_arg $ steps_arg)

let boot_cmdliner =
  Cmd.v (Cmd.info "boot" ~doc:"Boot a kernel and print its abstract state")
    Term.(const boot_cmd $ const ())

let sink_arg =
  Arg.(
    value
    & opt (enum [ ("flight", "flight"); ("disabled", "disabled") ]) "flight"
    & info [ "sink" ] ~doc:"Event sink: $(b,flight) records; $(b,disabled) is the baseline.")

let trace_iters_arg =
  Arg.(
    value
    & opt (count ()) 50
    & info [ "iterations" ] ~doc:"IPC ping-pong rounds in the SMP phase.")

let trace_events_arg =
  Arg.(
    value
    & opt (count ~zero:true ()) 40
    & info [ "events" ] ~doc:"Maximum decoded events to print (0 = none).")

let trace_slots_arg =
  Arg.(
    value
    & opt (count ()) 256
    & info [ "slots" ] ~doc:"Flight-recorder slots per CPU (power of two).")

let workload_arg =
  Arg.(
    value
    & opt (enum [ ("scripted", "scripted"); ("kv", "kv") ]) "scripted"
    & info [ "workload" ]
        ~doc:
          "Workload to record: $(b,scripted) (IPC ping-pong, mmap churn, NVMe) or \
           $(b,kv) (the kv-store GET demo; $(b,--iterations) is the request count).")

let trace_export_arg =
  Arg.(
    value
    & opt (some (enum [ ("chrome", "chrome") ])) None
    & info [ "export" ]
        ~doc:"Export the recorded stream: $(b,chrome) writes Chrome trace_event JSON.")

let trace_out_arg =
  Arg.(value & opt string "trace_chrome.json" & info [ "out" ] ~doc:"Output file for --export.")

let trace_filter_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "filter" ]
        ~doc:
          "Record only these event kinds: a comma-separated list of names as printed \
           under 'event kinds' (e.g. $(b,syscall_enter,syscall_exit,page_alloc)).  \
           Masked kinds cost one load+mask at the tracepoint and touch no counters.")

let trace_sample_arg =
  Arg.(
    value & opt (count ~zero:true ()) 0
    & info [ "sample" ]
        ~doc:
          "Keep 1 in 2^$(docv) admitted events per kind (0 = keep all).  Rejected \
           events are counted exactly in obs/sampled_out/<kind>."
        ~docv:"SHIFT")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Flight-record a workload; dump events and latency tables, optionally export \
          a Chrome trace")
    Term.(
      const trace $ sink_arg $ workload_arg $ trace_iters_arg $ trace_events_arg
      $ trace_slots_arg $ trace_filter_arg $ trace_sample_arg $ trace_export_arg
      $ trace_out_arg)

let requests_arg =
  Arg.(
    value & opt (count ()) 16
    & info [ "requests" ] ~doc:"GET requests to drive through the kv-store demo workload.")

let folded_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "folded" ]
        ~doc:"Also write the collapsed stacks to $(docv) (flamegraph.pl input).")

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Post-mortem profiler over the kv-store demo workload: request-path \
          reconstruction, self/total cycles per span kind, collapsed stacks")
    Term.(const profile $ requests_arg $ folded_arg)

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Per-container / per-process / per-thread / per-kind cycle accounting for the \
          kv-store demo workload; fails if container totals do not sum to cycles/total")
    Term.(const top $ requests_arg)

let metrics_export_arg =
  Arg.(
    value
    & opt (enum [ ("dump", "dump"); ("prom", "prom") ]) "dump"
    & info [ "export" ]
        ~doc:
          "Output format: $(b,dump) (deterministic registry snapshot) or $(b,prom) \
           (Prometheus text exposition).")

let metrics_out_arg =
  Arg.(value & opt (some string) None & info [ "out" ] ~doc:"Write to $(docv) instead of stdout.")

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Dump the metrics registry populated by the kv-store demo workload")
    Term.(const metrics_main $ metrics_export_arg $ requests_arg $ metrics_out_arg)

let monitor_workload_arg =
  Arg.(
    value & opt string "kv"
    & info [ "workload" ] ~doc:"Workload to drive under the monitor (only $(b,kv)).")

let monitor_slots_arg =
  Arg.(
    value & opt (count ()) 16384 & info [ "slots" ] ~doc:"Flight-recorder ring slots per CPU.")

let monitor_slo_arg =
  Arg.(
    value & opt_all string []
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          "SLO spec $(i,<metric>:p<q><=<limit>[@<windows>]), repeatable — e.g. \
           $(b,lat/request:p99<=262143@8).  Default: lat/request:p99<=262143@8.")

let monitor_window_arg =
  Arg.(
    value & opt (count ()) 32768
    & info [ "window-cycles" ] ~doc:"Rollup window width on the virtual cycle clock.")

let monitor_windows_arg =
  Arg.(value & opt (count ()) 64 & info [ "windows" ] ~doc:"Rollup ring capacity in windows.")

let monitor_slow_every_arg =
  Arg.(
    value & opt (count ~zero:true ()) 0
    & info [ "slow-every" ]
        ~doc:"Inject a slow request every $(docv) requests (0 = none).")

let monitor_slow_cycles_arg =
  Arg.(
    value & opt (count ()) 200_000
    & info [ "slow-cycles" ] ~doc:"Extra handler cycles per injected slow request.")

let monitor_prom_arg =
  Arg.(
    value & opt (some string) None
    & info [ "prom" ]
        ~doc:"Write Prometheus exposition (with exemplar references) to $(docv).")

let monitor_trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "exemplar-trace" ]
        ~doc:"Write captured exemplar trails as a flow-annotated Chrome trace to $(docv).")

let monitor_cmd =
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Online SLO monitor over the kv-store demo workload: windowed rollups, \
          streaming tail-latency verdicts, watchdog findings and slow-request \
          exemplars; exit 0 iff every SLO is compliant")
    Term.(
      const monitor_main $ monitor_workload_arg $ requests_arg $ monitor_slots_arg
      $ monitor_slo_arg $ monitor_window_arg $ monitor_windows_arg
      $ monitor_slow_every_arg $ monitor_slow_cycles_arg $ monitor_prom_arg
      $ monitor_trace_arg)

let plant_arg =
  let san_plants =
    List.filter
      (fun e -> match e.Plants.body with Plants.After_workload _ -> true | _ -> false)
      Plants.table
  in
  Arg.(
    value
    & opt (enum (("none", None) :: List.map (fun e -> (e.Plants.name, Some e)) san_plants)) None
    & info [ "plant" ]
        ~doc:
          ("Plant a bug after the clean workload and require the sanitizer to catch it: "
          ^ String.concat ", " (List.map plant_doc san_plants)
          ^ "."))

let san_iters_arg =
  Arg.(
    value
    & opt (count ()) 50
    & info [ "iterations" ] ~doc:"IPC ping-pong rounds in the SMP phase.")

let san_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ]
        ~doc:
          "Seed for the hostile device sweep (deterministic: the same seed replays the \
           same injected faults; printed on any failure).")

let san_cmd =
  Cmd.v
    (Cmd.info "san"
       ~doc:
         "Run the scripted workload under atmo-san (shadow permission map, free-page \
          poisoning, lock-discipline checking, container attribution, page-table lint, \
          leak audit); exit 0 iff clean — or, with $(b,--plant), iff the planted bug is \
          detected")
    Term.(const san $ plant_arg $ san_iters_arg $ san_seed_arg)

let () =
  let info =
    Cmd.info "atmo" ~version:"1.0"
      ~doc:"Atmosphere verified-microkernel reproduction toolkit"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ verify_cmd; fuzz_cmd; ni_cmd; boot_cmdliner; trace_cmd; profile_cmd; top_cmd;
            metrics_cmd; monitor_cmd; san_cmd ]))
