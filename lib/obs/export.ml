(* Exporters: Chrome trace_event JSON for a decoded event stream, and
   Prometheus text exposition for the metrics registry.  Both are
   deterministic — records are consumed in timestamp order and the
   registry is iterated via its sorted bindings — so snapshots diff
   cleanly across runs. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace_event "JSON array format".  Spans become duration
   begin/end ("B"/"E") slices — pid is the owning container (0 when
   unowned) so chrome://tracing groups per container, tid is the CPU.
   Causal edges become flow-event pairs ("s" start / "f" finish) bound
   to the source and destination spans; other tracepoints become
   instant events.  Timestamps are cycle counts passed through as the
   microsecond field — absolute units don't matter to the viewer. *)
let chrome_trace records =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b line
  in
  let pid owner = if owner >= 0 then owner else 0 in
  let flow = ref 0 in
  (* Spans indexed up front so a flow event can land on the destination
     span's coordinates. *)
  let span_at : (int, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (r : Event.record) ->
      match r.ev with
      | Event.Span_begin { span; owner; _ } ->
        Hashtbl.replace span_at span (r.ts, r.cpu, pid owner)
      | _ -> ())
    records;
  List.iter
    (fun (r : Event.record) ->
      match r.ev with
      | Event.Span_begin { span; kind; owner; parent } ->
        emit
          (Printf.sprintf
             {|{"name":"%s","ph":"B","ts":%d,"pid":%d,"tid":%d,"args":{"span":%d,"parent":%d}}|}
             (json_escape (Span.label_of_code kind))
             r.ts (pid owner) r.cpu span parent)
      | Event.Span_end { kind; owner; span } ->
        emit
          (Printf.sprintf {|{"name":"%s","ph":"E","ts":%d,"pid":%d,"tid":%d,"args":{"span":%d}}|}
             (json_escape (Span.label_of_code kind))
             r.ts (pid owner) r.cpu span)
      | Event.Causal { edge; src; dst } ->
        incr flow;
        let name = json_escape (Event.causal_name edge) in
        let sts, scpu, spid =
          match Hashtbl.find_opt span_at src with
          | Some c -> c
          | None -> (r.ts, r.cpu, 0)
        in
        let dts, dcpu, dpid =
          match Hashtbl.find_opt span_at dst with
          | Some c -> c
          | None -> (r.ts, r.cpu, 0)
        in
        emit
          (Printf.sprintf {|{"name":"%s","cat":"causal","ph":"s","id":%d,"ts":%d,"pid":%d,"tid":%d}|}
             name !flow (max sts r.ts) spid scpu);
        emit
          (Printf.sprintf
             {|{"name":"%s","cat":"causal","ph":"f","bp":"e","id":%d,"ts":%d,"pid":%d,"tid":%d}|}
             name !flow (max dts r.ts) dpid dcpu)
      | _ ->
        emit
          (Printf.sprintf {|{"name":"%s","ph":"i","ts":%d,"pid":0,"tid":%d,"s":"t"}|}
             (json_escape (Event.tag_name r.tag)) r.ts r.cpu))
    records;
  Buffer.add_string b "]\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

let prom_sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

(* Exposition per the text format: each family gets `# HELP` and
   `# TYPE` metadata, histograms are cumulative `_bucket{le}` series
   plus `_sum`/`_count`.  [exemplars] attaches OpenMetrics-style
   exemplar references — [(hist name, [(span id, value); ...])] — to
   bucket lines: each exemplar rides the line of the log2 bucket its
   value falls in (at most one per line, later ones win), spilling to
   the `+Inf` line when its bucket is beyond the last rendered one.
   The span id is the flight-recorder span of the sampled request, so
   a scraped breach links straight back to its captured trail. *)
let prometheus ?(exemplars = []) () =
  let b = Buffer.create 2048 in
  List.iter
    (fun (name, c) ->
      let n = "atmo_" ^ prom_sanitize name in
      Buffer.add_string b
        (Printf.sprintf "# HELP %s Atmosphere counter %s.\n# TYPE %s counter\n%s %d\n" n name n n
           (Metrics.Counter.value c)))
    (Metrics.all_counters ());
  List.iter
    (fun (name, h) ->
      let n = "atmo_" ^ prom_sanitize name in
      Buffer.add_string b
        (Printf.sprintf "# HELP %s Atmosphere log2-bucketed histogram %s (cycles).\n# TYPE %s histogram\n"
           n name n);
      let counts = Metrics.Histogram.buckets h in
      let refs = Option.value ~default:[] (List.assoc_opt name exemplars) in
      let by_bucket = Hashtbl.create 8 in
      List.iter
        (fun (span, v) -> Hashtbl.replace by_bucket (Metrics.Histogram.bucket_of v) (span, v))
        refs;
      let cum = ref 0 in
      let last = ref (-1) in
      Array.iteri (fun i c -> if c > 0 then last := i) counts;
      let overflow = ref [] in
      Hashtbl.iter (fun i r -> if i > !last then overflow := r :: !overflow) by_bucket;
      for i = 0 to !last do
        cum := !cum + counts.(i);
        let le = (1 lsl (i + 1)) - 1 in
        (match Hashtbl.find_opt by_bucket i with
        | Some (span, v) ->
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%d\"} %d # {span=\"%d\"} %d\n" n le !cum span v)
        | None -> Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n le !cum))
      done;
      (match List.sort compare !overflow with
      | (span, v) :: _ ->
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d # {span=\"%d\"} %d\n" n
             (Metrics.Histogram.count h) span v)
      | [] ->
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (Metrics.Histogram.count h)));
      Buffer.add_string b
        (Printf.sprintf "%s_sum %d\n%s_count %d\n" n (Metrics.Histogram.sum h) n
           (Metrics.Histogram.count h)))
    (Metrics.all_histograms ());
  Buffer.contents b
