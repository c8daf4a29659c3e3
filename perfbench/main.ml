(* perfbench: the repo benchmark.

     dune exec perfbench/main.exe -- --workload kv|mm|verify|all \
       [--seed N] [--seconds S] [--trace 0|1]

   [--trace 0] runs the workload untraced and reports the end-to-end
   metrics; [--trace 1] runs an untraced pass and a traced pass of the
   same seed (half the time each), checks that their simulated results
   are bit-identical, and reports the per-layer metrics.  [--workload
   all] runs every workload both ways.  The last line of standard
   output is one JSON object: correct, attempted, failed, metrics.  The
   exit code is 0 only if every correctness and simulated-time check
   held. *)

open Perfbench

let default_seed = 1

(* Never used while tuning the benchmark; run it to check that nothing
   was fitted to the default seed. *)
let held_out_seed = 7919

let end_to_end =
  [
    ("setup_s", "s");
    ("host_ops_per_s", "1/s");
    ("verify_s", "s");
    ("sim_ops_per_s", "1/s");
    ("sim_lat_p50_cyc", "cyc");
    ("sim_lat_p99_cyc", "cyc");
    ("heap_peak_mb", "MB");
  ]

let invariant_names =
  List.map
    (fun (name, _) -> ("core.invariants." ^ Verify.strip_prefix name ^ ".us", "us"))
    Atmo_core.Invariants.obligations

let groups = [ "pt-flat"; "kernel"; "pm"; "pm-rec"; "refine"; "spec" ]

let per_layer =
  [
    ("core.step.ns", "ns");
    ("core.step.words", "words");
    ("core.step.us", "us");
    ("core.ipc.fastpath_ratio", "ratio");
    ("pm.borrows_per_op", "count");
    ("drivers.nic.ns", "ns");
    ("drivers.blk.ns", "ns");
    ("hw.iotlb.hit_ratio", "ratio");
    ("drivers.errors", "count");
    ("hw.iommu.blocked", "count");
    ("net.app.ns", "ns");
    ("net.kv.probe_mean", "probes");
    ("obs.events_per_op", "count");
    ("obs.dropped_per_op", "count");
    ("obs.windows", "count");
    ("sim.kernel_cyc", "cyc");
    ("sim.nic_cyc", "cyc");
    ("sim.app_cyc", "cyc");
    ("sim.device_wait_cyc", "cyc");
    ("sim.smp.ns", "ns");
    ("sim.smp.lock_wait_pct", "%");
    ("sim.smp.busy_pct", "%");
    ("pt.live_mappings", "count");
    ("hw.tlb.invlpgs_per_op", "count");
    ("pmem.free_4k_min", "count");
    ("pmem.free_2m_min", "count");
    ("pmem.refused_2m", "count");
    ("core.abstraction.us", "us");
    ("spec.check.us", "us");
  ]
  @ invariant_names
  @ List.map (fun g -> ("verif.group." ^ g ^ ".ms", "ms")) groups
  @ [ ("verif.parallel_eff", "ratio"); ("bench.trace_overhead_pct", "%") ]

(* ------------------------------------------------------------------ *)

(* [kv] and [mm] close by discharging the state obligations over the
   kernel they leave: verifier turnaround on their state, and a check
   that the state satisfies every invariant. *)
let with_discharge (o : Harness.outcome) k =
  let ref_s, host_s, results = Discharge.state_obligations k in
  let failed = Discharge.failed results in
  {
    Harness.attempted = o.Harness.attempted + List.length results;
    failed = o.Harness.failed + List.length failed;
    checks = o.Harness.checks @ [ ("verify_s: every state obligation holds", failed = []) ];
    notes =
      o.Harness.notes @ Discharge.failure_notes results
      @ [ Printf.sprintf "verify_s: state obligations, median pass %.6f host s" host_s ];
    metrics = Harness.metric "verify_s" "s" ref_s :: o.Harness.metrics;
  }

let spans_file workload seed = Printf.sprintf ".bench_out/%s-seed%d.spans.tsv" workload seed

let run_kv ~seed ~seconds ~trace =
  if not trace then begin
    let p = Kv.pass ~traced:false ~seed ~seconds in
    Kv.teardown ();
    with_discharge
      {
        Harness.attempted = Kv.attempted p;
        failed = Kv.failed p;
        checks = Kv.checks p;
        metrics = Kv.end_to_end p;
        notes = Kv.notes p;
      }
      p.Kv.w.Kv.k
  end
  else begin
    let u = Kv.pass ~traced:false ~seed ~seconds:(seconds /. 2.) in
    let t = Kv.pass ~traced:true ~seed ~seconds:(seconds /. 2.) in
    let metrics = Kv.per_layer ~u ~t in
    Kv.teardown ();
    Tracer.write t.Kv.w.Kv.tr (spans_file "kv" seed);
    {
      Harness.attempted = Kv.attempted u + Kv.attempted t;
      failed = Kv.failed u + Kv.failed t;
      checks = Kv.checks u @ Kv.checks t @ Kv.identity ~u ~t;
      metrics;
      notes = Kv.notes u @ Kv.notes t;
    }
  end

let run_mm ~seed ~seconds ~trace =
  if not trace then begin
    let p = Mm.pass ~traced:false ~seed ~seconds in
    with_discharge
      {
        Harness.attempted = Mm.attempted p;
        failed = Mm.failed p;
        checks = Mm.checks p;
        metrics = Mm.end_to_end p;
        notes = Mm.notes p;
      }
      p.Mm.w.Mm.k
  end
  else begin
    let u = Mm.pass ~traced:false ~seed ~seconds:(seconds /. 2.) in
    let t = Mm.pass ~traced:true ~seed ~seconds:(seconds /. 2.) in
    Tracer.write t.Mm.w.Mm.tr (spans_file "mm" seed);
    {
      Harness.attempted = Mm.attempted u + Mm.attempted t;
      failed = Mm.failed u + Mm.failed t;
      checks = Mm.checks u @ Mm.checks t @ Mm.identity ~u ~t;
      metrics = Mm.per_layer ~u ~t;
      notes = Mm.notes u @ Mm.notes t;
    }
  end

let run_verify ~seed ~seconds ~trace =
  if not trace then begin
    let p = Verify.pass ~seed ~seconds ~mode:`Sequential in
    {
      Harness.attempted = Verify.attempted p;
      failed = Verify.failed p;
      checks = Verify.checks p;
      metrics = Verify.end_to_end p;
      notes = Verify.notes p;
    }
  end
  else begin
    let u = Verify.pass ~seed ~seconds:(seconds /. 2.) ~mode:`Parallel in
    let t = Verify.pass ~seed ~seconds:(seconds /. 2.) ~mode:`Groups in
    Tracer.write t.Verify.w.Verify.tr (spans_file "verify" seed);
    {
      Harness.attempted = Verify.attempted u + Verify.attempted t;
      failed = Verify.failed u + Verify.failed t;
      checks = Verify.checks u @ Verify.checks t @ Verify.identity ~u ~t;
      metrics = Verify.per_layer ~u ~t;
      notes = Verify.notes u @ Verify.notes t;
    }
  end

let workloads = [ ("kv", run_kv); ("mm", run_mm); ("verify", run_verify) ]

(* ------------------------------------------------------------------ *)
(* Reporting *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* Every listed metric, in list order; one the workload does not measure
   reads 0. *)
let complete names (o : Harness.outcome) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Harness.metric) -> m.Harness.name = name) o.Harness.metrics with
      | Some m -> m
      | None -> Harness.metric name unit_ 0.)
    names

let print_outcome ~label ~names (o : Harness.outcome) =
  let metrics = complete names o in
  Printf.printf "== %s\n" label;
  List.iter
    (fun (m : Harness.metric) ->
      Printf.printf "  %-40s %18.6f %s\n" m.Harness.name m.Harness.value m.Harness.unit_)
    metrics;
  let ratio =
    if o.Harness.attempted = 0 then 0.
    else float_of_int o.Harness.failed /. float_of_int o.Harness.attempted
  in
  Printf.printf "  %-40s %18.6f failed/attempted (%d/%d)\n" "fail_ratio" ratio o.Harness.failed
    o.Harness.attempted;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) o.Harness.notes;
  List.iter
    (fun (c, ok) -> Printf.printf "  check %s: %s\n" (if ok then "ok  " else "FAIL") c)
    o.Harness.checks;
  metrics

let correct (o : Harness.outcome) metrics =
  o.Harness.failed = 0
  && List.for_all snd o.Harness.checks
  && List.for_all (fun (m : Harness.metric) -> Float.is_finite m.Harness.value) metrics

let print_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (prefix, (x : Harness.metric)) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" (prefix ^ x.Harness.name)
          (json_number x.Harness.value) x.Harness.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "kv|mm|verify|all");
      ( "--seed",
        Arg.Set_int seed,
        Printf.sprintf "N  input seed (default %d; held-out %d)" default_seed held_out_seed );
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per run (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "perfbench --workload kv|mm|verify|all [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let selected =
    if !workload = "all" then List.concat_map (fun w -> [ (w, false); (w, true) ]) workloads
    else
      match List.assoc_opt !workload workloads with
      | Some run when !trace = 0 || !trace = 1 -> [ ((!workload, run), !trace = 1) ]
      | _ ->
        prerr_endline usage;
        exit 2
  in
  let results =
    List.map
      (fun ((name, run), traced) ->
        let o = run ~seed:!seed ~seconds:!seconds ~trace:traced in
        let label = Printf.sprintf "%s seed=%d trace=%d" name !seed (Bool.to_int traced) in
        let metrics =
          print_outcome ~label ~names:(if traced then per_layer else end_to_end) o
        in
        flush stdout;
        (name, o, metrics))
      selected
  in
  let ok = List.for_all (fun (_, o, metrics) -> correct o metrics) results in
  let sum f = List.fold_left (fun acc (_, o, _) -> acc + f o) 0 results in
  let prefixed =
    List.concat_map
      (fun (name, _, metrics) ->
        List.map (fun m -> ((if !workload = "all" then name ^ "." else ""), m)) metrics)
      results
  in
  print_json ~correct:ok
    ~attempted:(sum (fun o -> o.Harness.attempted))
    ~failed:(sum (fun o -> o.Harness.failed))
    prefixed;
  exit (if ok then 0 else 1)
