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

(* Plant for the stale-proof lint: drop the tracker's dirty marks while
   a transition mutates the kernel; the always-on intrinsic counters
   keep advancing, so the lint must flag the unmarked mutation (and
   exactly that rule). *)
let verify_plant_stale_proof ~threads k init suite =
  let module R = Atmo_san.Report in
  let _full = Incremental.run ~threads suite in
  R.clear ();
  Incremental.set_miss_plant true;
  Fun.protect
    ~finally:(fun () -> Incremental.set_miss_plant false)
    (fun () -> ignore (Kernel.step k ~thread:init Syscall.Yield));
  let n = Atmo_san.Proof_lint.lint k in
  let reports = R.reports () in
  let stale, other =
    List.partition (fun (r : R.t) -> r.R.rule = R.Stale_proof) reports
  in
  Format.printf "planted: a syscall mutated the kernel behind the dirty tracker@.";
  List.iter (fun r -> Format.printf "%a@." R.pp r) reports;
  if n > 0 && stale <> [] && other = [] then begin
    Format.printf "stale-proof plant detected by exactly its rule (%d report(s)).@." n;
    0
  end
  else begin
    Format.printf "stale-proof plant NOT detected correctly (%d stale, %d other).@."
      (List.length stale) (List.length other);
    1
  end

let verify scale threads verbose incremental plant =
  setup_logs ();
  let threads = resolve_threads threads in
  match plant with
  | Some p when p <> "stale-proof" ->
    Format.eprintf "verify: unknown plant %S (only stale-proof)@." p;
    124
  | Some _ | None when incremental || plant <> None ->
    (match Catalog.build_world ~scale with
     | Error msg ->
       Format.eprintf "failed to build the verification world: %s@." msg;
       1
     | Ok (k, init) ->
       Incremental.arm ();
       Fun.protect ~finally:Incremental.disarm (fun () ->
           let suite = Catalog.suite_for ~scale k in
           if plant <> None then verify_plant_stale_proof ~threads k init suite
           else verify_incremental ~threads ~verbose k init suite))
  | _ ->
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
  Obs_span.reset ();
  let recorder = Obs_flight.create ~cpus:2 ~slots ~slot_size:Obs_event.slot_bytes in
  Obs_sink.install (Obs_sink.Flight recorder);
  Fun.protect
    ~finally:(fun () ->
      Obs_sink.install Obs_sink.Disabled;
      Obs_sink.set_clock (fun () -> 0);
      Obs_sink.set_cpu 0;
      Obs_span.reset ())
    (fun () ->
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
      Obs_span.reset ();
      let recorder = Obs_flight.create ~cpus:2 ~slots ~slot_size:Obs_event.slot_bytes in
      Obs_sink.install (Obs_sink.Flight recorder);
      let m = Obs_monitor.arm ~windows ~window_cycles ~now:0 ~specs () in
      Fun.protect
        ~finally:(fun () ->
          Obs_monitor.disarm ();
          Obs_sink.install Obs_sink.Disabled;
          Obs_sink.set_clock (fun () -> 0);
          Obs_sink.set_cpu 0;
          Obs_span.reset ())
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

(* The workload is deterministic: boot, an SMP send/recv ping-pong over
   a shared endpoint, a memory phase (multi-page mmap, MMU walks,
   superpage formation, munmap), and an NVMe submit/poll phase.  Every
   cycle figure printed comes from the simulation's cost model, so a
   run with the Disabled sink doubles as the bit-identical baseline for
   the zero-overhead guarantee. *)
let run_trace_workload k ~init ~iterations =
  let cost = Atmo_sim.Cost.default in
  let pm = k.Kernel.pm in
  (* a second thread sharing init's endpoint (the capability a parent
     would hand a child at spawn) *)
  let t2 =
    match Kernel.step k ~thread:init Syscall.New_thread with
    | Syscall.Rptr t -> t
    | r -> Fmt.failwith "trace: new_thread -> %a" Syscall.pp_ret r
  in
  let ep =
    match Kernel.step k ~thread:init (Syscall.New_endpoint { slot = 0 }) with
    | Syscall.Rptr e -> e
    | r -> Fmt.failwith "trace: new_endpoint -> %a" Syscall.pp_ret r
  in
  Atmo_pm.Perm_map.update pm.Atmo_pm.Proc_mgr.thrd_perms ~ptr:t2 (fun th ->
      Atmo_pm.Thread.set_slot th 0 (Some ep));
  (* phase 1: IPC ping-pong under the big lock; the receiver runs first
     so sends rendezvous with a waiting receiver (ep_send), and the
     receiver's first call of each round blocks (ep_block) *)
  let programs =
    [
      { Atmo_sim.Smp.thread = t2; think_cycles = 600;
        call_of = (fun _ -> Syscall.Recv { slot = 0 }) };
      { Atmo_sim.Smp.thread = init; think_cycles = 800;
        call_of = (fun i -> Syscall.Send { slot = 0; msg = Atmo_pm.Message.scalars_only [ i ] }) };
    ]
  in
  let stats =
    match Atmo_sim.Smp.run k ~cost ~cpus:2 ~programs ~iterations with
    | Ok s -> s
    | Error msg -> Fmt.failwith "trace: smp phase failed: %s" msg
  in
  (* phase 2: memory; a manual virtual clock continues where the SMP
     timeline stopped *)
  let vnow = ref stats.Atmo_sim.Smp.wall_cycles in
  if Obs_sink.tracing () then Obs_sink.set_clock (fun () -> !vnow);
  let tstep thread call =
    let c = Atmo_sim.Smp.syscall_cycles cost call in
    let r = Kernel.step k ~thread call in
    vnow := !vnow + c;
    if Obs_sink.tracing () then
      Obs_metrics.observe ("lat/syscall/" ^ Syscall.name call) c;
    r
  in
  let s4k = Atmo_pmem.Page_state.S4k and s2m = Atmo_pmem.Page_state.S2m in
  let rw = Atmo_hw.Pte_bits.perm_rw in
  ignore (tstep init (Syscall.Mmap { va = 0x4000_0000; count = 8; size = s4k; perm = rw }));
  (* user-level loads: real MMU walks through the new page tables *)
  for i = 0 to 7 do
    ignore (Kernel.resolve_user k ~thread:init ~vaddr:(0x4000_0000 + (i * 0x1000)))
  done;
  ignore (Kernel.resolve_user k ~thread:init ~vaddr:0x7fff_0000);  (* miss *)
  ignore (tstep init (Syscall.Munmap { va = 0x4000_0000; count = 8; size = s4k }));
  (* a 2 MiB mapping forces superpage formation out of free 4 KiB frames *)
  ignore (tstep init (Syscall.Mmap { va = 0x8000_0000; count = 1; size = s2m; perm = rw }));
  ignore (tstep init (Syscall.Munmap { va = 0x8000_0000; count = 1; size = s2m }));
  (* phase 3: one last rendezvous in the other direction (sender blocks,
     receiver harvests it) *)
  ignore (tstep init (Syscall.Send { slot = 0; msg = Atmo_pm.Message.scalars_only [ 99 ] }));
  ignore (tstep t2 (Syscall.Recv { slot = 0 }));
  (* phase 4: NVMe queue pair *)
  let dclock = Atmo_hw.Clock.create () in
  Atmo_hw.Clock.advance dclock !vnow;
  if Obs_sink.tracing () then
    Obs_sink.set_clock (fun () -> Atmo_hw.Clock.now dclock);
  let nvme = Atmo_drivers.Nvme.create ~clock:dclock ~cost ~capacity_blocks:1024 in
  Atmo_drivers.Nvme.set_device nvme 7;
  let block = Bytes.make Atmo_drivers.Nvme.block_bytes 'a' in
  for lba = 0 to 7 do
    ignore (Atmo_drivers.Nvme.submit_write nvme ~lba ~data:block)
  done;
  ignore (Atmo_drivers.Nvme.wait_all nvme);
  for lba = 0 to 3 do
    ignore (Atmo_drivers.Nvme.submit_read nvme ~lba)
  done;
  ignore (Atmo_drivers.Nvme.wait_all nvme);
  (stats, !vnow, Atmo_hw.Clock.now dclock)

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
  let ran =
    match workload with
    | "kv" ->
      let r = Kv_demo.run ~requests:iterations () in
      Format.printf
        "kv workload: %d requests (%d hits) over two IPC rendezvous + NVMe,@.\
        \ end clock %d cycles@."
        r.Kv_demo.requests r.Kv_demo.hits r.Kv_demo.end_cycles;
      Ok ()
    | _ -> (
      match Kernel.boot Kernel.default_boot with
      | Error e -> Error e
      | Ok (k, init) ->
        let stats, mem_cycles, drv_cycles = run_trace_workload k ~init ~iterations in
        Format.printf "workload: %d syscalls under the big lock (2 CPUs), wall %d cycles,@."
          stats.Atmo_sim.Smp.syscalls_executed stats.Atmo_sim.Smp.wall_cycles;
        Format.printf "          lock wait %d cycles; memory phase to %d; driver clock %d@."
          stats.Atmo_sim.Smp.lock_wait_cycles mem_cycles drv_cycles;
        Ok ())
  in
  match ran with
  | Error e ->
    Format.eprintf "boot: %a@." Atmo_util.Errno.pp e;
    finish 1
  | Ok () ->
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
           let key = Obs_event.kind r.Obs_event.ev in
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
(* san: the trace workload under the full sanitizer, plus plants       *)

module San_runtime = Atmo_san.Runtime
module San_report = Atmo_san.Report
module Lockcheck = Atmo_san.Lockcheck
module Phys_mem = Atmo_hw.Phys_mem
module Mmu = Atmo_hw.Mmu
module Pte_bits = Atmo_hw.Pte_bits
module Page_table = Atmo_pt.Page_table

(* Harness code legitimately mutates kernel state outside the SMP loop
   (setup syscalls, device interrupt injection); it takes the modelled
   big lock like any CPU would. *)
let locked_step k ~thread call =
  Lockcheck.locked ~site:"san.harness" ~cpu:0 (fun () -> Kernel.step k ~thread call)

(* Physical address of the L1 entry mapping [vaddr] (the mapping must be
   a present 4 KiB one). *)
let leaf_entry_addr pt ~vaddr =
  let mem = Page_table.mem pt in
  let walk table index =
    Pte_bits.addr_of (Phys_mem.read_u64 mem ~addr:(Mmu.entry_addr ~table ~index))
  in
  let l3t = walk (Page_table.cr3 pt) (Mmu.l4_index vaddr) in
  let l2t = walk l3t (Mmu.l3_index vaddr) in
  let l1t = walk l2t (Mmu.l2_index vaddr) in
  Mmu.entry_addr ~table:l1t ~index:(Mmu.l1_index vaddr)

let pt_of_thread k ~thread =
  let proc = Option.get (Kernel.proc_of_thread k ~thread) in
  (Atmo_pm.Perm_map.borrow k.Kernel.pm.Atmo_pm.Proc_mgr.proc_perms ~ptr:proc)
    .Atmo_pm.Process.pt

(* The scripted workload of the trace subcommand — IPC ping-pong on two
   CPUs, mmap / superpage / mprotect churn, IOMMU device assignment with
   a DMA window, an NVMe phase — driven with every checker armed. *)
let run_san_workload k ~init ~iterations =
  let pm = k.Kernel.pm in
  let t2 =
    match locked_step k ~thread:init Syscall.New_thread with
    | Syscall.Rptr t -> t
    | r -> Fmt.failwith "san: new_thread -> %a" Syscall.pp_ret r
  in
  let ep =
    match locked_step k ~thread:init (Syscall.New_endpoint { slot = 0 }) with
    | Syscall.Rptr e -> e
    | r -> Fmt.failwith "san: new_endpoint -> %a" Syscall.pp_ret r
  in
  Atmo_pm.Perm_map.update pm.Atmo_pm.Proc_mgr.thrd_perms ~ptr:t2 (fun th ->
      Atmo_pm.Thread.set_slot th 0 (Some ep));
  let programs =
    [
      { Atmo_sim.Smp.thread = t2; think_cycles = 600;
        call_of = (fun _ -> Syscall.Recv { slot = 0 }) };
      { Atmo_sim.Smp.thread = init; think_cycles = 800;
        call_of = (fun i -> Syscall.Send { slot = 0; msg = Atmo_pm.Message.scalars_only [ i ] }) };
    ]
  in
  let stats =
    match Atmo_sim.Smp.run k ~cost:Atmo_sim.Cost.default ~cpus:2 ~programs ~iterations with
    | Ok s -> s
    | Error msg -> Fmt.failwith "san: smp phase failed: %s" msg
  in
  (* memory phase: small pages, user-level MMU walks, permission
     tightening, then a superpage round trip *)
  let s4k = Atmo_pmem.Page_state.S4k and s2m = Atmo_pmem.Page_state.S2m in
  let rw = Atmo_hw.Pte_bits.perm_rw and ro = Atmo_hw.Pte_bits.perm_ro in
  ignore (locked_step k ~thread:init (Syscall.Mmap { va = 0x4000_0000; count = 8; size = s4k; perm = rw }));
  for i = 0 to 7 do
    ignore (Kernel.resolve_user k ~thread:init ~vaddr:(0x4000_0000 + (i * 0x1000)))
  done;
  ignore (locked_step k ~thread:init (Syscall.Mprotect { va = 0x4000_0000; perm = ro }));
  ignore (locked_step k ~thread:init (Syscall.Munmap { va = 0x4000_0000; count = 8; size = s4k }));
  ignore (locked_step k ~thread:init (Syscall.Mmap { va = 0x8000_0000; count = 1; size = s2m; perm = rw }));
  ignore (locked_step k ~thread:init (Syscall.Munmap { va = 0x8000_0000; count = 1; size = s2m }));
  (* device phase: an IOMMU domain with a live DMA window, interrupt
     routed through the shared endpoint *)
  ignore (locked_step k ~thread:init (Syscall.Mmap { va = 0x5000_0000; count = 1; size = s4k; perm = rw }));
  (match locked_step k ~thread:init (Syscall.Assign_device { device = 7 }) with
   | Syscall.Runit -> ()
   | r -> Fmt.failwith "san: assign_device -> %a" Syscall.pp_ret r);
  ignore (locked_step k ~thread:init (Syscall.Io_map { device = 7; iova = 0x1_0000; va = 0x5000_0000 }));
  ignore (locked_step k ~thread:init (Syscall.Register_irq { device = 7; slot = 0 }));
  ignore (locked_step k ~thread:t2 (Syscall.Recv { slot = 0 }));
  ignore (locked_step k ~thread:init (Syscall.Irq_fire { device = 7 }));
  ignore (locked_step k ~thread:init (Syscall.Io_unmap { device = 7; iova = 0x1_0000 }));
  (* container lifecycle: delegate quota, then revoke it wholesale *)
  (match locked_step k ~thread:init (Syscall.New_container { quota = 64; cpus = Atmo_util.Iset.empty }) with
   | Syscall.Rptr c ->
     ignore (locked_step k ~thread:init (Syscall.Terminate_container { container = c }))
   | r -> Fmt.failwith "san: new_container -> %a" Syscall.pp_ret r);
  (* NVMe phase (driver-private buffers; exercises the cost model and
     the flight recorder, not the shadow map) *)
  let dclock = Atmo_hw.Clock.create () in
  let nvme = Atmo_drivers.Nvme.create ~clock:dclock ~cost:Atmo_sim.Cost.default ~capacity_blocks:1024 in
  Atmo_drivers.Nvme.set_device nvme 7;
  let block = Bytes.make Atmo_drivers.Nvme.block_bytes 'a' in
  for lba = 0 to 7 do
    ignore (Atmo_drivers.Nvme.submit_write nvme ~lba ~data:block)
  done;
  ignore (Atmo_drivers.Nvme.wait_all nvme);
  (stats, t2)

(* ------------------------------------------------------------------ *)
(* Hostile device sweep: all four device models under seeded fault
   injection.  Every fault the engines emit must be absorbed as a typed
   error and every ledger must balance at quiescence — Driver_lint runs
   right after inside [San_runtime.full_check]. *)

module Model = Atmo_devmodel.Model
module Hostile = Atmo_devmodel.Hostile
module Ixgbe = Atmo_drivers.Ixgbe
module Virtio_net = Atmo_drivers.Virtio_net
module Virtio_blk = Atmo_drivers.Virtio_blk
module Nvme = Atmo_drivers.Nvme

(* A standalone DMA environment: private memory, an IOMMU domain rooted
   in an identity-style page table, and a bump allocator of mapped iova
   spans.  Device traffic here cannot touch the workload kernel. *)
let mk_dev_env ~device =
  let mem = Phys_mem.create ~page_count:128 in
  let alloc = Atmo_pmem.Page_alloc.create mem ~reserved_frames:0 in
  let iommu = Atmo_hw.Iommu.create mem in
  let pt =
    match Page_table.create mem alloc with
    | Ok p -> p
    | Error _ -> Fmt.failwith "san: device env page table"
  in
  let next = ref 0x20_0000 in
  let span bytes =
    let base = !next in
    let pages = (bytes + Phys_mem.page_size - 1) / Phys_mem.page_size in
    for i = 0 to pages - 1 do
      let frame =
        match Atmo_pmem.Page_alloc.alloc_4k alloc ~purpose:Atmo_pmem.Page_alloc.User with
        | Some f -> f
        | None -> Fmt.failwith "san: device env out of frames"
      in
      match
        Page_table.map_4k pt ~vaddr:(base + (i * Phys_mem.page_size)) ~frame
          ~perm:Pte_bits.perm_rw
      with
      | Ok () -> ()
      | Error _ -> Fmt.failwith "san: device env map"
    done;
    next := base + (pages * Phys_mem.page_size);
    base
  in
  Atmo_hw.Iommu.attach iommu ~device ~root:(Page_table.cr3 pt);
  (mem, iommu, span)

let sweep_frame = Bytes.make 96 '\x5a'

let hostile_nic_sweep ~seed ~steps ~kind =
  let cost = Atmo_sim.Cost.default in
  let clock = Atmo_hw.Clock.create () in
  let slots = 8 in
  let rx drv_rx = ignore (drv_rx ~max:slots) in
  match kind with
  | `Ixgbe ->
    let mem, iommu, span = mk_dev_env ~device:11 in
    let nic = Ixgbe.create mem iommu ~device:11 ~clock ~cost in
    let buffers () = Array.init slots (fun _ -> (span 2048, 2048)) in
    (match Ixgbe.setup_rx nic ~ring_iova:(span Phys_mem.page_size) ~buffers:(buffers ()) with
     | Ok () -> ()
     | Error e -> Fmt.failwith "san: ixgbe setup: %s" (Atmo_devmodel.Fault.error_to_string e));
    (match Ixgbe.setup_tx nic ~ring_iova:(span Phys_mem.page_size) ~buffers:(buffers ()) with
     | Ok () -> ()
     | Error e -> Fmt.failwith "san: ixgbe setup: %s" (Atmo_devmodel.Fault.error_to_string e));
    Ixgbe.set_hostile nic (Some (Hostile.create ~seed ()));
    for i = 1 to steps do
      ignore (Ixgbe.wire_deliver nic sweep_frame);
      rx (Ixgbe.rx_burst nic);
      if i mod 4 = 0 then begin
        ignore (Ixgbe.tx_burst nic [ sweep_frame ]);
        ignore (Ixgbe.wire_collect nic)
      end
    done;
    Ixgbe.set_hostile nic None;
    for _ = 1 to 4 do rx (Ixgbe.rx_burst nic) done;
    Ixgbe.error_count nic
  | `Virtio ->
    let mem, iommu, span = mk_dev_env ~device:14 in
    let nic = Virtio_net.create mem iommu ~device:14 ~clock ~cost in
    let buffers () = Array.init slots (fun _ -> (span 2048, 2048)) in
    (match Virtio_net.setup_rx nic ~ring_iova:(span Phys_mem.page_size) ~buffers:(buffers ()) with
     | Ok () -> ()
     | Error e -> Fmt.failwith "san: virtio-net setup: %s" (Atmo_devmodel.Fault.error_to_string e));
    (match Virtio_net.setup_tx nic ~ring_iova:(span Phys_mem.page_size) ~buffers:(buffers ()) with
     | Ok () -> ()
     | Error e -> Fmt.failwith "san: virtio-net setup: %s" (Atmo_devmodel.Fault.error_to_string e));
    Virtio_net.set_hostile nic (Some (Hostile.create ~seed ()));
    for i = 1 to steps do
      ignore (Virtio_net.wire_deliver nic sweep_frame);
      rx (Virtio_net.rx_burst nic);
      if i mod 4 = 0 then begin
        ignore (Virtio_net.tx_burst nic [ sweep_frame ]);
        ignore (Virtio_net.wire_collect nic)
      end
    done;
    Virtio_net.set_hostile nic None;
    for _ = 1 to 4 do rx (Virtio_net.rx_burst nic) done;
    Virtio_net.error_count nic

let hostile_blk_sweep ~seed ~steps ~kind =
  let cost = Atmo_sim.Cost.default in
  let clock = Atmo_hw.Clock.create () in
  let block = Bytes.make Nvme.block_bytes 'b' in
  match kind with
  | `Nvme ->
    let dev = Nvme.create ~clock ~cost ~capacity_blocks:256 in
    Nvme.set_device dev 12;
    Nvme.set_hostile dev (Some (Hostile.create ~seed ()));
    for i = 1 to steps do
      let lba = i mod 256 in
      (match
         if i mod 3 = 0 then Result.map ignore (Nvme.submit_write dev ~lba ~data:block)
         else Result.map ignore (Nvme.submit_read dev ~lba)
       with
       | Ok () -> ()
       | Error _ -> ignore (Nvme.wait_all dev));
      if i mod 8 = 0 then ignore (Nvme.poll dev)
    done;
    ignore (Nvme.wait_all dev);
    Nvme.set_hostile dev None;
    ignore (Nvme.wait_all dev);
    Nvme.error_count dev
  | `Virtio ->
    let mem, iommu, span = mk_dev_env ~device:13 in
    let dev = Virtio_blk.create mem iommu ~device:13 ~clock ~cost ~capacity_blocks:256 in
    let depth = 16 in
    let _, _, _, ring_bytes = Atmo_drivers.Virtio_ring.layout ~qsz:(3 * depth) ~base:0 in
    let ring_iova = span ring_bytes in
    let arena_iova = span (depth * Virtio_blk.slot_bytes) in
    (match Virtio_blk.setup dev ~ring_iova ~arena_iova ~depth with
     | Ok () -> ()
     | Error e -> Fmt.failwith "san: virtio-blk setup: %s" (Atmo_devmodel.Fault.error_to_string e));
    Virtio_blk.set_hostile dev (Some (Hostile.create ~seed ()));
    for i = 1 to steps do
      let lba = i mod 256 in
      (match
         if i mod 3 = 0 then Result.map ignore (Virtio_blk.submit_write dev ~lba ~data:block)
         else Result.map ignore (Virtio_blk.submit_read dev ~lba)
       with
       | Ok () -> ()
       | Error _ -> ignore (Virtio_blk.wait_all dev));
      if i mod 8 = 0 then ignore (Virtio_blk.poll dev)
    done;
    ignore (Virtio_blk.wait_all dev);
    Virtio_blk.set_hostile dev None;
    ignore (Virtio_blk.wait_all dev);
    Virtio_blk.error_count dev

let run_hostile_sweep ~seed ~steps =
  let absorbed =
    hostile_nic_sweep ~seed ~steps ~kind:`Ixgbe
    + hostile_nic_sweep ~seed:(seed + 1) ~steps ~kind:`Virtio
    + hostile_blk_sweep ~seed:(seed + 2) ~steps ~kind:`Nvme
    + hostile_blk_sweep ~seed:(seed + 3) ~steps ~kind:`Virtio
  in
  absorbed

(* ------------------------------------------------------------------ *)
(* Driver plants: each must trip exactly its Driver_lint rule. *)

let plant_undefined_state k =
  (match Model.find ~device:7 with
   | Some m -> Model.force_undefined m ~why:"planted by atmo san"
   | None -> Fmt.failwith "san: no device model registered for device 7");
  ignore (Atmo_san.Driver_lint.lint k)

let plant_dma_escape k =
  (* an IOMMU window left mapped over the device's escape target: the
     stray write reaches memory, and the ledger records it unblocked *)
  let m = Model.register ~name:"rogue21" ~device:21 ~initial:Model.Active in
  Model.note_escape m ~blocked:false;
  ignore (Atmo_san.Driver_lint.lint k)

let plant_irq_storm k =
  (* a driver that disabled its storm auto-mask and stopped acking *)
  let m = Model.register ~name:"storm22" ~device:22 ~initial:Model.Active in
  Model.set_auto_mask m false;
  for _ = 1 to Model.storm_threshold + 8 do
    Model.raise_irq m
  done;
  ignore (Atmo_san.Driver_lint.lint k)

let plant_lost_completion k =
  let clock = Atmo_hw.Clock.create () in
  let dev = Nvme.create ~clock ~cost:Atmo_sim.Cost.default ~capacity_blocks:16 in
  Nvme.set_device dev 23;
  Nvme.set_drop_completion_plant dev true;
  (match Nvme.submit_read dev ~lba:1 with
   | Ok _ -> ()
   | Error e -> Fmt.failwith "san: plant submit: %s" (Atmo_devmodel.Fault.error_to_string e));
  ignore (Nvme.wait_all dev);
  ignore (Atmo_san.Driver_lint.lint k)

let plant_double_free k =
  match Atmo_pmem.Page_alloc.alloc_4k k.Kernel.alloc ~purpose:Atmo_pmem.Page_alloc.Kernel with
  | None -> Fmt.failwith "san: plant allocation failed"
  | Some addr ->
    Atmo_pmem.Page_alloc.free_kernel_page k.Kernel.alloc ~addr;
    (* second free: the allocator's own guard raises, but the sanitizer
       must already have classified the request *)
    (try Atmo_pmem.Page_alloc.free_kernel_page k.Kernel.alloc ~addr
     with Invalid_argument _ -> ())

let plant_unlocked k ~init =
  (* a bare Kernel.step: kernel state mutates inside a syscall with the
     big lock free *)
  ignore
    (Kernel.step k ~thread:init
       (Syscall.Mmap { va = 0x6000_0000; count = 1; size = Atmo_pmem.Page_state.S4k;
                       perm = Atmo_hw.Pte_bits.perm_rw }))

let plant_bad_pte k ~init =
  ignore
    (locked_step k ~thread:init
       (Syscall.Mmap { va = 0x7000_0000; count = 1; size = Atmo_pmem.Page_state.S4k;
                       perm = Atmo_hw.Pte_bits.perm_rw }));
  let pt = pt_of_thread k ~thread:init in
  let slot = leaf_entry_addr pt ~vaddr:0x7000_0000 in
  let mem = Page_table.mem pt in
  let e = Phys_mem.read_u64 mem ~addr:slot in
  (* set a bit the kernel never programs (bit 9, "available") *)
  Phys_mem.write_u64 mem ~addr:slot (Int64.logor e 0x200L);
  ignore (Atmo_san.Pt_lint.lint k)

let plant_stale_tlb k ~init =
  ignore
    (locked_step k ~thread:init
       (Syscall.Mmap { va = 0x7800_0000; count = 1; size = Atmo_pmem.Page_state.S4k;
                       perm = Atmo_hw.Pte_bits.perm_rw }));
  (* warm the TLB with the translation... *)
  ignore (Kernel.resolve_user k ~thread:init ~vaddr:0x7800_0000);
  let pt = pt_of_thread k ~thread:init in
  let slot = leaf_entry_addr pt ~vaddr:0x7800_0000 in
  (* ...then rip the leaf out from under it with no shootdown — the
     missing-invlpg bug class the coherence lint exists to catch *)
  Phys_mem.write_u64 (Page_table.mem pt) ~addr:slot 0L;
  ignore (Atmo_san.Tlb_lint.lint k)

let plant_fastpath_skip k ~init ~t2 =
  let pm = k.Kernel.pm in
  (* park the workload's receiver on the shared endpoint (draining any
     leftover messages first) so a sender finds a rendezvous partner *)
  let rec park n =
    if n = 0 then Fmt.failwith "san: could not park the receiver"
    else
      match locked_step k ~thread:t2 (Syscall.Recv { slot = 0 }) with
      | Syscall.Rblocked -> ()
      | Syscall.Rmsg _ -> park (n - 1)
      | r -> Fmt.failwith "san: park recv -> %a" Syscall.pp_ret r
  in
  park 8;
  (* put the sender alone on the CPU: with t2 parked, init is the only
     schedulable thread left *)
  if Atmo_pm.Proc_mgr.current pm = None then
    ignore (Atmo_pm.Proc_mgr.dequeue_next pm);
  if
    Atmo_pm.Proc_mgr.current pm <> Some init
    || not (Atmo_pm.Sched_queue.is_empty (Atmo_pm.Proc_mgr.cur_queue pm))
  then Fmt.failwith "san: fastpath guard could not be established";
  (* one rendezvous through the fastpath with the requeue skipped: the
     preempted sender ends up Runnable but queued nowhere *)
  Kernel.set_fastpath_skip_plant true;
  Fun.protect
    ~finally:(fun () -> Kernel.set_fastpath_skip_plant false)
    (fun () ->
      match
        locked_step k ~thread:init
          (Syscall.Send { slot = 0; msg = Atmo_pm.Message.scalars_only [ 0xdead ] })
      with
      | Syscall.Runit -> ()
      | r -> Fmt.failwith "san: plant send -> %a" Syscall.pp_ret r);
  ignore (Atmo_san.Sched_lint.lint k)

let plant_span_leak k ~init ~t2 =
  (* park the receiver so init's send rendezvouses, then force the
     slowpath and make it drop the rendezvous span's end: the open-span
     stack is left unbalanced at quiescence *)
  let rec park n =
    if n = 0 then Fmt.failwith "san: could not park the receiver"
    else
      match locked_step k ~thread:t2 (Syscall.Recv { slot = 0 }) with
      | Syscall.Rblocked -> ()
      | Syscall.Rmsg _ -> park (n - 1)
      | r -> Fmt.failwith "san: park recv -> %a" Syscall.pp_ret r
  in
  park 8;
  Kernel.set_fastpath false;
  Kernel.set_span_leak_plant true;
  Fun.protect
    ~finally:(fun () ->
      Kernel.set_span_leak_plant false;
      Kernel.set_fastpath true)
    (fun () ->
      match
        locked_step k ~thread:init
          (Syscall.Send { slot = 0; msg = Atmo_pm.Message.scalars_only [ 0xbeef ] })
      with
      | Syscall.Runit -> ()
      | r -> Fmt.failwith "san: plant send -> %a" Syscall.pp_ret r);
  ignore (Atmo_san.Span_lint.lint k)

(* Fine-grained-regime plants: the three cross-CPU failure classes the
   broken-up big lock introduces, each tripping exactly its rule. *)

let plant_lock_order () =
  (* acquire against the hierarchy: an endpoint shard is rank 1, a CPU
     queue rank 0, so taking the queue lock second inverts the order
     every kernel entry must follow (cpu-queue < endpoint < map-writer) *)
  let ep = Lockcheck.Endpoint_shard 3 and q = Lockcheck.Cpu_queue 0 in
  Lockcheck.acquire_class ~site:"plant.lock_order" ~cpu:0 ep;
  Lockcheck.acquire_class ~site:"plant.lock_order" ~cpu:0 q;
  Lockcheck.release_class ~cpu:0 q;
  Lockcheck.release_class ~cpu:0 ep

let plant_queue_corrupt k ~init =
  let pm = k.Kernel.pm in
  if Atmo_pm.Proc_mgr.sched_cpus pm < 2 then
    Fmt.failwith "san: queue-corrupt plant needs >= 2 run queues";
  (* a fresh Runnable thread sits on its home queue (cpu 0)... *)
  let t3 =
    match locked_step k ~thread:init Syscall.New_thread with
    | Syscall.Rptr t -> t
    | r -> Fmt.failwith "san: plant new_thread -> %a" Syscall.pp_ret r
  in
  (* ...and a buggy wakeup path enqueues it on cpu 1 as well.  Each
     deque stays individually well-formed; only the global census can
     see the double enqueue. *)
  Atmo_pm.Sched_queue.push_back (Atmo_pm.Proc_mgr.queue pm ~cpu:1) t3;
  ignore (Atmo_san.Sched_lint.lint k)

let plant_lost_steal k ~init =
  let pm = k.Kernel.pm in
  if Atmo_pm.Proc_mgr.sched_cpus pm < 2 then
    Fmt.failwith "san: lost-steal plant needs >= 2 run queues";
  if Atmo_pm.Proc_mgr.current_of pm ~cpu:1 <> None then
    Fmt.failwith "san: lost-steal plant needs cpu 1 idle";
  (* a Runnable thread homed on cpu 0, and nothing else to run *)
  let t3 =
    match locked_step k ~thread:init Syscall.New_thread with
    | Syscall.Rptr t -> t
    | r -> Fmt.failwith "san: plant new_thread -> %a" Syscall.pp_ret r
  in
  (* idle cpu 1 steals it — the ledger records (thief, victim, thread) *)
  Atmo_pm.Proc_mgr.set_cpu pm 1;
  let stole = Atmo_pm.Proc_mgr.dequeue_next pm in
  Atmo_pm.Proc_mgr.set_cpu pm 0;
  if stole <> Some t3 then Fmt.failwith "san: lost-steal plant: steal did not happen";
  if not (List.exists (fun (_, _, th) -> th = t3) (Atmo_pm.Proc_mgr.steal_ledger pm))
  then Fmt.failwith "san: lost-steal plant: steal left no ledger entry";
  (* ...then a terminate races the in-flight steal: the buggy teardown
     skips the ledger scrub, leaving the thief a dead reference *)
  Atmo_pm.Proc_mgr.set_lost_steal_plant pm true;
  Fun.protect
    ~finally:(fun () -> Atmo_pm.Proc_mgr.set_lost_steal_plant pm false)
    (fun () -> Atmo_pm.Proc_mgr.destroy_thread pm ~thread:t3);
  ignore (Atmo_san.Sched_lint.lint k)

(* A CPU silently stops scheduling mid-run: with an SLO monitor armed,
   both CPUs beat (spans close, heartbeat counters advance) through
   several rollup windows, then CPU 1 goes quiet while CPU 0 keeps
   working.  The watchdog's cpu-silent rule must notice the dead
   heartbeat, and the watchdog lint must file it as the
   [watchdog-silent] sanitizer rule — no kernel state is touched, so
   nothing else may fire. *)
let plant_stalled_cpu k =
  let window = 2_000 in
  let vnow = ref 0 in
  let m = Obs_monitor.arm ~windows:16 ~window_cycles:window ~now:0 ~specs:[] () in
  let beat cpu =
    Obs_sink.set_cpu cpu;
    let sid = Obs_span.begin_ ~ts:!vnow Obs_span.User in
    vnow := !vnow + 250;
    Obs_span.end_ ~ts:!vnow sid
  in
  (* both CPUs alive across ~6 windows... *)
  while !vnow < 6 * window do
    beat 0;
    beat 1
  done;
  (* ...then CPU 1 stops scheduling while CPU 0 keeps going *)
  while !vnow < 12 * window do
    beat 0
  done;
  Obs_monitor.finish m ~now:!vnow;
  ignore (Atmo_san.Watchdog_lint.lint k);
  Obs_monitor.disarm ()

let san plant iterations seed =
  setup_logs ();
  Obs_metrics.reset ();
  Obs_span.reset ();
  Model.reset ();
  (* trace into a flight recorder so violation reports carry the event
     trail leading up to them *)
  let recorder = Obs_flight.create ~cpus:2 ~slots:256 ~slot_size:Obs_event.slot_bytes in
  Obs_sink.install (Obs_sink.Flight recorder);
  San_runtime.arm ~poison:true ~lockcheck:true ~attribution:true ();
  let finish code =
    San_runtime.disarm ();
    Obs_sink.install Obs_sink.Disabled;
    Obs_sink.set_clock (fun () -> 0);
    Obs_sink.set_cpu 0;
    Obs_span.reset ();
    Model.reset ();
    if code <> 0 then
      Format.printf "san: failing run is replayable with --seed %d@." seed;
    code
  in
  match Kernel.boot Kernel.default_boot with
  | Error e ->
    Format.eprintf "boot: %a@." Atmo_util.Errno.pp e;
    finish 1
  | Ok (k, init) ->
    San_runtime.attach k;
    let stats, t2 = run_san_workload k ~init ~iterations in
    let absorbed = run_hostile_sweep ~seed ~steps:200 in
    let structural = San_runtime.full_check k in
    let clean_count = San_report.count () in
    Format.printf
      "san: %d syscalls under the big lock, %d accesses checked, %d hostile fault(s) \
       absorbed as typed errors (seed %d), %d structural check(s) failed@."
      stats.Atmo_sim.Smp.syscalls_executed
      (Atmo_san.Memsan.checked ())
      absorbed seed structural;
    (match plant with
     | "none" ->
       if clean_count = 0 then begin
         Format.printf "clean: no violations.@.";
         finish 0
       end
       else begin
         Format.printf "%a@." San_report.pp_summary ();
         finish 1
       end
     | _ ->
       if clean_count <> 0 then begin
         Format.printf "workload was not clean before planting:@.%a@."
           San_report.pp_summary ();
         finish 1
       end
       else begin
         let expected =
           match plant with
           | "double-free" -> plant_double_free k; San_report.Double_free
           | "unlocked" -> plant_unlocked k ~init; San_report.Unlocked_mutation
           | "bad-pte" -> plant_bad_pte k ~init; San_report.Malformed_pte
           | "stale-tlb" -> plant_stale_tlb k ~init; San_report.Tlb_stale
           | "fastpath-skip" ->
             plant_fastpath_skip k ~init ~t2; San_report.Sched_incoherent
           | "span-leak" -> plant_span_leak k ~init ~t2; San_report.Span_leak
           | "lock-order" -> plant_lock_order (); San_report.Lock_order
           | "queue-corrupt" ->
             plant_queue_corrupt k ~init; San_report.Queue_corrupt
           | "lost-steal" -> plant_lost_steal k ~init; San_report.Lost_steal
           | "undefined-state" ->
             plant_undefined_state k; San_report.Drv_undefined_state
           | "dma-escape" -> plant_dma_escape k; San_report.Drv_dma_escape
           | "irq-storm" -> plant_irq_storm k; San_report.Drv_irq_storm
           | "lost-completion" ->
             plant_lost_completion k; San_report.Drv_lost_completion
           | "stalled-cpu" -> plant_stalled_cpu k; San_report.Watchdog_silent
           | other -> Fmt.failwith "san: unknown plant %S" other
         in
         let hits, others =
           List.partition (fun r -> r.San_report.rule = expected) (San_report.reports ())
         in
         let surgical =
           (* these plants must trip exactly their rule, nothing else *)
           match expected with
           | San_report.Drv_undefined_state | San_report.Drv_dma_escape
           | San_report.Drv_irq_storm | San_report.Drv_lost_completion
           | San_report.Watchdog_silent -> true
           | _ -> false
         in
         match hits with
         | _ :: _ when surgical && others <> [] ->
           Format.printf "planted %s tripped %d unrelated report(s) too:@.%a@." plant
             (List.length others) San_report.pp_summary ();
           finish 1
         | r :: _ ->
           Format.printf "planted %s detected:@.%a@." plant San_report.pp r;
           finish 0
         | [] ->
           Format.printf "planted %s NOT detected (%d other report(s)):@.%a@." plant
             (San_report.count ()) San_report.pp_summary ();
           finish 1
       end)

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

let verify_plant_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "plant" ] ~docv:"BUG"
        ~doc:"Plant $(b,stale-proof): mutate the kernel behind the dirty tracker.")

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
  Arg.(
    value
    & opt
        (enum
           [ ("none", "none"); ("double-free", "double-free");
             ("unlocked", "unlocked"); ("bad-pte", "bad-pte");
             ("stale-tlb", "stale-tlb"); ("fastpath-skip", "fastpath-skip");
             ("span-leak", "span-leak"); ("lock-order", "lock-order");
             ("queue-corrupt", "queue-corrupt"); ("lost-steal", "lost-steal");
             ("undefined-state", "undefined-state");
             ("dma-escape", "dma-escape"); ("irq-storm", "irq-storm");
             ("lost-completion", "lost-completion");
             ("stalled-cpu", "stalled-cpu") ])
        "none"
    & info [ "plant" ]
        ~doc:
          "Plant a bug after the clean workload and require the sanitizer to catch it: \
           $(b,double-free), $(b,unlocked) (mutation without the big lock), \
           $(b,bad-pte) (reserved bits in a leaf entry), $(b,stale-tlb) \
           (a PTE torn out without a TLB shootdown), $(b,fastpath-skip) \
           (the IPC fastpath forgets to requeue the preempted sender), \
           $(b,span-leak) (the IPC slowpath opens its rendezvous span and never \
           closes it), $(b,lock-order) (a kernel path acquires a cpu-queue lock \
           while holding an endpoint shard, inverting the hierarchy), \
           $(b,queue-corrupt) (a thread enqueued on two CPUs' run queues at once), \
           $(b,lost-steal) (a terminate races an in-flight work steal, leaving the \
           thief a dead thread reference), \
           $(b,undefined-state) (a device model pushed into the state \
           the driver theorems forbid), $(b,dma-escape) (device DMA outside its \
           IOMMU window reaches memory), $(b,irq-storm) (auto-mask disabled, vector \
           never acked), $(b,lost-completion) (the NVMe driver silently drops a \
           completion) or $(b,stalled-cpu) (a CPU silently stops scheduling under an \
           armed SLO monitor; the watchdog's dead-heartbeat rule must file \
           watchdog-silent).")

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
