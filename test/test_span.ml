(* Span layer: request-path reconstruction over the kv-store demo
   workload, per-container cycle accounting, histogram merging,
   deterministic metric dumps, exporters, and ring-wraparound behaviour
   of the span decoder. *)

module Event = Atmo_obs.Event
module Flight = Atmo_obs.Flight
module Metrics = Atmo_obs.Metrics
module Sink = Atmo_obs.Sink
module Span = Atmo_obs.Span
module Profile = Atmo_obs.Profile
module Export = Atmo_obs.Export
module Kv_demo = Atmo_workloads.Kv_demo

(* Run [f] with fresh metrics and a fresh flight recorder installed. *)
let with_flight ?(slots = 4096) f =
  Metrics.reset ();
  Span.with_recorder ~cpus:2 ~slots f

(* ------------------------------------------------------------------ *)
(* zero overhead: the kv workload's cycle model is sink-independent    *)

let test_kv_disabled_identity () =
  Sink.install Sink.Disabled;
  Span.reset ();
  let base = Kv_demo.run ~requests:6 () in
  let traced, events =
    with_flight (fun _ ->
        let r = Kv_demo.run ~requests:6 () in
        (r, Sink.records ()))
  in
  Alcotest.(check int) "end cycles identical" base.Kv_demo.end_cycles
    traced.Kv_demo.end_cycles;
  Alcotest.(check (list int)) "per-request latencies identical" base.Kv_demo.latencies
    traced.Kv_demo.latencies;
  Alcotest.(check int) "every GET hit" base.Kv_demo.requests base.Kv_demo.hits;
  Alcotest.(check bool) "identical abstract kernel state" true
    (Atmo_core.Abstraction.abstract base.Kv_demo.kernel
     = Atmo_core.Abstraction.abstract traced.Kv_demo.kernel);
  let has tag = List.exists (fun (r : Event.record) -> tag r.Event.ev) events in
  Alcotest.(check bool) "traced run recorded span begins" true
    (has (function Event.Span_begin _ -> true | _ -> false));
  Alcotest.(check bool) "traced run recorded span ends" true
    (has (function Event.Span_end _ -> true | _ -> false));
  Alcotest.(check bool) "traced run recorded causal edges" true
    (has (function Event.Causal _ -> true | _ -> false))

(* the server's descriptors are wired with their reference counts, so
   the kernel the workload leaves behind satisfies every invariant *)
let test_kv_kernel_wf () =
  Sink.install Sink.Disabled;
  Span.reset ();
  let r = Kv_demo.run ~requests:4 () in
  match Atmo_core.Invariants.total_wf r.Kv_demo.kernel with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "kv demo kernel not wf: %s" msg

(* Two traced runs into one recorder, cleared between them, decode to
   the same stream: the workload installs its clock before it boots, so
   the second run's boot events carry its own time, not the clock the
   first run left installed. *)
let test_kv_rerun_same_stream () =
  with_flight (fun recorder ->
      let run () =
        Flight.clear recorder;
        Span.reset ();
        ignore (Kv_demo.run ~requests:20 ());
        List.map (Format.asprintf "%a" Event.pp_record) (Sink.records ())
      in
      let first = run () in
      let second = run () in
      Alcotest.(check int) "as many records" (List.length first) (List.length second);
      List.iter2 (Alcotest.(check string) "same record") first second)

(* ------------------------------------------------------------------ *)
(* the acceptance scenario: one GET reconstructs end to end            *)

let test_kv_request_path_reconstructs () =
  let events =
    with_flight (fun _ ->
        ignore (Kv_demo.run ~requests:4 ());
        Sink.records ())
  in
  let p = Profile.build events in
  Alcotest.(check int) "ring held the whole run" 0 (Profile.truncated p);
  let requests =
    List.filter (fun s -> s.Profile.kind = Span.code Span.Request) (Profile.spans p)
  in
  Alcotest.(check int) "one request root per GET" 4 (List.length requests);
  let handler_code = Span.code (Span.register_app "kv_handler") in
  List.iter
    (fun (req : Profile.span) ->
      Alcotest.(check bool) "request span closed" true req.Profile.ended;
      Alcotest.(check bool) "request has positive duration" true
        (Profile.duration req > 0);
      let reach = Profile.reachable p ~from:req.Profile.id in
      let kind_of id =
        match Profile.find p id with Some s -> s.Profile.kind | None -> -1
      in
      let kinds = List.map kind_of reach in
      let mem k = List.mem (Span.code k) kinds in
      (* the path crosses the IPC rendezvous into the server... *)
      Alcotest.(check bool) "reaches an IPC rendezvous" true (mem Span.Ipc_rendezvous);
      Alcotest.(check bool) "reaches the kv handler" true (List.mem handler_code kinds);
      (* ...and the driver round trip inside the handler *)
      Alcotest.(check bool) "reaches the driver submit" true (mem Span.Drv_submit);
      Alcotest.(check bool) "reaches the driver completion" true (mem Span.Drv_complete);
      (* spans on both CPUs participate *)
      let cpus =
        List.sort_uniq compare (List.filter_map (fun id ->
            Option.map (fun s -> s.Profile.cpu) (Profile.find p id)) reach)
      in
      Alcotest.(check (list int)) "path crosses both CPUs" [ 0; 1 ] cpus;
      (* the connecting edges are the advertised causal kinds *)
      let ekinds = List.map (fun e -> e.Profile.ekind) (Profile.edges_within p reach) in
      Alcotest.(check bool) "ipc edge present" true (List.mem 1 ekinds);
      Alcotest.(check bool) "drv edge present" true (List.mem 3 ekinds);
      Alcotest.(check bool) "wakeup edge present" true (List.mem 4 ekinds))
    requests;
  (* the collapsed stacks and kind table agree on the span population *)
  let folded = Profile.collapsed p in
  Alcotest.(check bool) "collapsed stacks non-empty" true (folded <> []);
  Alcotest.(check bool) "a request-rooted stack exists" true
    (List.exists (fun (path, _) -> String.length path >= 7 && String.sub path 0 7 = "request")
       folded);
  let table = Profile.kind_table p in
  let total_self = List.fold_left (fun a (k : Profile.kind_stat) -> a + k.Profile.self) 0 table in
  let folded_self = List.fold_left (fun a (_, s) -> a + s) 0 folded in
  Alcotest.(check int) "kind table self == folded self" total_self folded_self

(* ------------------------------------------------------------------ *)
(* accounting: per-container cycles partition the whole-run total      *)

let test_container_cycles_sum_to_total () =
  let result = with_flight (fun _ -> Kv_demo.run ~requests:5 ()) in
  let total = Metrics.Counter.value (Metrics.counter "cycles/total") in
  Alcotest.(check bool) "whole-run total is positive" true (total > 0);
  let sum_family prefix =
    List.fold_left
      (fun acc (name, c) ->
        if String.starts_with ~prefix name then acc + Metrics.Counter.value c else acc)
      0 (Metrics.all_counters ())
  in
  Alcotest.(check int) "container self-cycles partition the total" total
    (sum_family "cycles/container/");
  Alcotest.(check int) "process self-cycles partition the total" total
    (sum_family "cycles/process/");
  let per c = Metrics.Counter.value (Metrics.counter ("cycles/container/" ^ string_of_int c)) in
  Alcotest.(check bool) "client container charged" true
    (per result.Kv_demo.client_container > 0);
  Alcotest.(check bool) "server container charged" true
    (per result.Kv_demo.server_container > 0)

(* ------------------------------------------------------------------ *)
(* histogram merging (bench-report shard aggregation)                  *)

let test_histogram_merge () =
  let a = Metrics.Histogram.make "merge/a" in
  let b = Metrics.Histogram.make "merge/b" in
  List.iter (Metrics.Histogram.observe a) [ 1; 2; 3; 1000 ];
  List.iter (Metrics.Histogram.observe b) [ 5; 7 ];
  Metrics.Histogram.merge ~into:a b;
  Alcotest.(check int) "count adds" 6 (Metrics.Histogram.count a);
  Alcotest.(check int) "sum adds" 1018 (Metrics.Histogram.sum a);
  Alcotest.(check int) "min keeps" 1 (Metrics.Histogram.min_value a);
  Alcotest.(check int) "max keeps" 1000 (Metrics.Histogram.max_value a);
  (* bucket-exact: merging shards equals observing everything in one *)
  let c = Metrics.Histogram.make "merge/c" in
  List.iter (Metrics.Histogram.observe c) [ 1; 2; 3; 1000; 5; 7 ];
  Alcotest.(check (array int)) "buckets equal the unsharded histogram"
    (Metrics.Histogram.buckets c) (Metrics.Histogram.buckets a);
  Alcotest.(check int) "p99 equal" (Metrics.Histogram.p99 c) (Metrics.Histogram.p99 a);
  (* merging an empty source or a histogram into itself changes nothing *)
  let e = Metrics.Histogram.make "merge/e" in
  Metrics.Histogram.merge ~into:a e;
  Metrics.Histogram.merge ~into:a a;
  Alcotest.(check int) "self/empty merges are no-ops" 6 (Metrics.Histogram.count a);
  Alcotest.(check int) "source unchanged" 2 (Metrics.Histogram.count b)

(* ------------------------------------------------------------------ *)
(* deterministic registry dumps                                        *)

let test_metrics_dump_deterministic () =
  Metrics.reset ();
  ignore (Metrics.counter "zz/ctr");
  Metrics.bump ~by:5 "aa/ctr";
  Metrics.observe "aa/hist" 7;
  ignore (Metrics.histogram "zz/hist");
  let d1 = Metrics.dump () in
  let d2 = Metrics.dump () in
  Alcotest.(check string) "dump is stable" d1 d2;
  let index sub =
    let rec go i =
      if i + String.length sub > String.length d1 then Alcotest.failf "missing %S" sub
      else if String.sub d1 i (String.length sub) = sub then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "counters sorted by name" true
    (index "counter aa/ctr" < index "counter zz/ctr");
  Alcotest.(check bool) "counters precede histograms" true
    (index "counter zz/ctr" < index "histogram aa/hist");
  Alcotest.(check bool) "zero-valued metrics included" true
    (index "counter zz/ctr 0" >= 0)

(* ------------------------------------------------------------------ *)
(* exporters                                                           *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let count_occurrences s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_chrome_export () =
  let events =
    with_flight (fun _ ->
        ignore (Kv_demo.run ~requests:2 ());
        Sink.records ())
  in
  let json = String.trim (Export.chrome_trace events) in
  Alcotest.(check bool) "is a JSON array" true
    (String.length json > 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  Alcotest.(check int) "begin/end slices balance"
    (count_occurrences json "\"ph\":\"B\"")
    (count_occurrences json "\"ph\":\"E\"");
  Alcotest.(check int) "flow starts pair with flow finishes"
    (count_occurrences json "\"ph\":\"s\"")
    (count_occurrences json "\"ph\":\"f\"");
  Alcotest.(check bool) "has flow events" true (contains json "\"ph\":\"s\"");
  Alcotest.(check bool) "names the request span" true (contains json "\"request\"")

let test_prometheus_export () =
  let prom =
    with_flight (fun _ ->
        ignore (Kv_demo.run ~requests:2 ());
        Export.prometheus ())
  in
  Alcotest.(check bool) "counter family exported" true
    (contains prom "# TYPE atmo_cycles_total counter");
  Alcotest.(check bool) "counter help line precedes it" true
    (contains prom "# HELP atmo_cycles_total Atmosphere counter cycles/total.");
  Alcotest.(check bool) "histogram family exported" true
    (contains prom "# TYPE atmo_lat_nvme_io histogram");
  Alcotest.(check bool) "histogram help line precedes it" true
    (contains prom "# HELP atmo_lat_nvme_io Atmosphere log2-bucketed histogram lat/nvme_io (cycles).");
  Alcotest.(check bool) "cumulative buckets present" true
    (contains prom "atmo_lat_nvme_io_bucket{le=\"+Inf\"}");
  Alcotest.(check bool) "sum and count present" true
    (contains prom "atmo_lat_nvme_io_count")

(* ------------------------------------------------------------------ *)
(* ring wraparound through the span decoder                            *)

let test_span_wraparound_decode () =
  with_flight ~slots:8 (fun recorder ->
      Sink.set_cpu 0;
      (* 20 one-shot spans = 40 events through an 8-slot ring *)
      for i = 1 to 20 do
        let s = Span.begin_ ~ts:i Span.User in
        Span.end_ ~ts:i s
      done;
      let rs = Sink.records () in
      Alcotest.(check int) "exactly capacity events survive" 8 (List.length rs);
      Alcotest.(check int) "drop counter saw the rest" 32 (Flight.total_dropped recorder);
      let ts = List.map (fun (r : Event.record) -> r.Event.ts) rs in
      Alcotest.(check (list int)) "newest events, oldest first"
        [ 17; 17; 18; 18; 19; 19; 20; 20 ] ts;
      (* every surviving slot decodes to a span event — no torn slots *)
      Alcotest.(check bool) "all survivors are span events" true
        (List.for_all
           (fun (r : Event.record) ->
             match r.Event.ev with
             | Event.Span_begin _ | Event.Span_end _ -> true
             | _ -> false)
           rs);
      let p = Profile.build rs in
      Alcotest.(check int) "aligned wrap: no truncated spans" 0 (Profile.truncated p);
      Alcotest.(check int) "four whole spans rebuilt" 4 (Profile.span_count p));
  (* torn wrap: an enclosing span's begin is overwritten by its own
     children before the end arrives; the profiler counts the orphan
     end as truncated instead of crashing or inventing a span *)
  with_flight ~slots:8 (fun _ ->
      Sink.set_cpu 0;
      let outer = Span.begin_ ~ts:0 Span.Request in
      for i = 1 to 10 do
        let s = Span.begin_ ~ts:i Span.User in
        Span.end_ ~ts:i s
      done;
      Span.end_ ~ts:11 outer;
      let rs = Sink.records () in
      Alcotest.(check int) "capacity events survive" 8 (List.length rs);
      let p = Profile.build rs in
      (* two orphans: the outer end, plus the child end the 8-event
         window cut in half *)
      Alcotest.(check int) "orphan ends counted as truncated" 2 (Profile.truncated p))

(* ------------------------------------------------------------------ *)
(* cost: an owned span on the request path                             *)

(* A syscall-shaped span as the kv request loop opens it — explicit
   timestamps, container and process from [Kernel] lookups, an explicit
   thread — closed under a root so it charges all three owner families
   and its kind.  The pooled frame stack and the int-keyed owner tables
   leave only the caller's option boxes (two words per timestamp and
   per owner argument).  A frame record, a cons cell, option results
   and a tuple per pair would come to about 31 words. *)
let test_owned_pair_allocation_floor () =
  with_flight ~slots:64 (fun _ ->
      Sink.set_cpu 0;
      let now = ref 0 in
      let container = Some 0x1000 and proc = Some 0x2000 and thread = 0x3000 in
      let root = Span.begin_ ~ts:0 Span.Request in
      let once () =
        let t0 = !now in
        let id = Span.begin_ ~ts:t0 ?container ?proc ~thread (Span.Syscall 3) in
        now := t0 + 17;
        Span.end_ ~ts:!now id
      in
      for _ = 1 to 64 do
        once ()
      done;
      Alloc.check_at_most "an owned Span.begin_/end_ pair" ~limit:12. (Alloc.per_call once);
      Span.end_ ~ts:(!now + 1) root;
      Alcotest.(check (list (triple int int int))) "stack balanced" [] (Span.open_spans ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "span"
    [
      ( "kv-demo",
        [
          Alcotest.test_case "disabled sink is bit-identical" `Quick
            test_kv_disabled_identity;
          Alcotest.test_case "final kernel is well-formed" `Quick test_kv_kernel_wf;
          Alcotest.test_case "a second run records the same stream" `Quick
            test_kv_rerun_same_stream;
          Alcotest.test_case "request path reconstructs" `Quick
            test_kv_request_path_reconstructs;
          Alcotest.test_case "container cycles sum to total" `Quick
            test_container_cycles_sum_to_total;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          Alcotest.test_case "dump deterministic" `Quick test_metrics_dump_deterministic;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace" `Quick test_chrome_export;
          Alcotest.test_case "prometheus text" `Quick test_prometheus_export;
        ] );
      ( "flight",
        [
          Alcotest.test_case "wraparound decode" `Quick test_span_wraparound_decode;
        ] );
      ( "cost",
        [
          Alcotest.test_case "owned begin/end pair allocation floor" `Quick
            test_owned_pair_allocation_floor;
        ] );
    ]
