(* Oracle for the monitor's window close: the list-based path.  A
   snapshot is two name-sorted association
   lists built by folding and sorting the registry; a delta is their
   merge-join; the window ring holds immutable windows; the watchdog
   re-scans the last windows' deltas by name at every check; findings
   are deduped through a [seen] table and never capped.  The tests tick
   it alongside [Monitor] over the same registry and compare windows,
   verdicts and findings. *)

module Metrics = Atmo_obs.Metrics
module Sink = Atmo_obs.Sink
module Slo = Atmo_obs.Slo
module Watchdog = Atmo_obs.Watchdog

type hist = Metrics.Snapshot.hist = { counts : int array; n : int; sum : int }
type snapshot = { counters : (string * int) list; hists : (string * hist) list }

let take () =
  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  {
    counters =
      by_name (List.map (fun (n, c) -> (n, Metrics.Counter.value c)) (Metrics.all_counters ()));
    hists =
      by_name
        (List.map
           (fun (n, h) ->
             ( n,
               { counts = Metrics.Histogram.buckets h; n = Metrics.Histogram.count h;
                 sum = Metrics.Histogram.sum h } ))
           (Metrics.all_histograms ()));
  }

let empty_hist = { counts = Array.make Metrics.Histogram.bucket_count 0; n = 0; sum = 0 }

let diff ~base cur =
  let rec dc bs cs acc =
    match (bs, cs) with
    | _, [] -> List.rev acc
    | [], (n, v) :: cs -> dc [] cs ((n, max 0 v) :: acc)
    | (bn, bv) :: bs', ((n, v) :: cs' as cs0) ->
      let c = String.compare bn n in
      if c < 0 then dc bs' cs0 acc
      else if c = 0 then dc bs' cs' ((n, max 0 (v - bv)) :: acc)
      else dc bs cs' ((n, max 0 v) :: acc)
  in
  let dh (bh : hist) (h : hist) =
    let counts =
      Array.init Metrics.Histogram.bucket_count (fun i -> max 0 (h.counts.(i) - bh.counts.(i)))
    in
    { counts; n = Array.fold_left ( + ) 0 counts; sum = max 0 (h.sum - bh.sum) }
  in
  let rec dhs bs cs acc =
    match (bs, cs) with
    | _, [] -> List.rev acc
    | [], (n, h) :: cs -> dhs [] cs ((n, dh empty_hist h) :: acc)
    | (bn, bh) :: bs', ((n, h) :: cs' as cs0) ->
      let c = String.compare bn n in
      if c < 0 then dhs bs' cs0 acc
      else if c = 0 then dhs bs' cs' ((n, dh bh h) :: acc)
      else dhs bs cs' ((n, dh empty_hist h) :: acc)
  in
  { counters = dc base.counters cur.counters []; hists = dhs base.hists cur.hists [] }

type window = { seq : int; w_start : int; w_end : int; delta : snapshot }

type t = {
  cap : int;
  window_cycles : int;
  ring : window option array;
  mutable nticks : int;
  mutable base : snapshot;
  mutable w_open : int;
  config : Watchdog.config;
  depth_probe : unit -> int;
  mutable samples : Watchdog.sample list;  (* newest first *)
  mutable findings : Watchdog.report list;  (* newest first *)
  seen : (int * int * int, unit) Hashtbl.t;
  mutable dedups : int;  (* reports [seen] suppressed *)
}

let create ?(config = Watchdog.default_config) ?(depth_probe = fun () -> 0) ~windows
    ~window_cycles ~now () =
  let t =
    {
      cap = windows;
      window_cycles;
      ring = Array.make windows None;
      nticks = 0;
      base = take ();
      w_open = now;
      config;
      depth_probe;
      samples = [];
      findings = [];
      seen = Hashtbl.create 16;
      dedups = 0;
    }
  in
  t.samples <- [ { Watchdog.sseq = -1; depth = depth_probe (); drops = Sink.dropped () } ];
  t

let windows t =
  let lo = max 0 (t.nticks - t.cap) in
  let rec go i acc =
    if i < lo then acc
    else match t.ring.(i mod t.cap) with Some w -> go (i - 1) (w :: acc) | None -> go (i - 1) acc
  in
  go (t.nticks - 1) []

let last t n =
  let ws = windows t in
  let drop = max 0 (List.length ws - n) in
  List.filteri (fun i _ -> i >= drop) ws

(* ------------------------------------------------------------------ *)
(* The watchdog sweep over the retained windows                        *)

let prefixed prefix name =
  String.length name > String.length prefix
  && String.sub name 0 (String.length prefix) = prefix

let prefix_sum prefix w =
  List.fold_left (fun acc (name, v) -> if prefixed prefix name then acc + v else acc) 0
    w.delta.counters

let horizon (cfg : Watchdog.config) = max (cfg.Watchdog.silent_windows + 1) 8

let check_cpu_silent (cfg : Watchdog.config) (ws : window array) acc =
  let silent = cfg.Watchdog.silent_windows in
  let n = Array.length ws in
  if n < silent + 1 then acc
  else begin
    let tail_from = n - silent in
    let latest = ws.(n - 1) in
    let prefix = "sched/heartbeat/" in
    let cpus : (int, bool * bool) Hashtbl.t = Hashtbl.create 8 in
    let tail_beats = Array.make silent [] in
    Array.iteri
      (fun i w ->
        List.iter
          (fun (name, v) ->
            if prefixed prefix name then
              match
                int_of_string_opt
                  (String.sub name (String.length prefix)
                     (String.length name - String.length prefix))
              with
              | Some cpu ->
                let active_head, active_tail =
                  Option.value ~default:(false, false) (Hashtbl.find_opt cpus cpu)
                in
                let in_tail = i >= tail_from in
                Hashtbl.replace cpus cpu
                  (active_head || ((not in_tail) && v > 0), active_tail || (in_tail && v > 0));
                if in_tail && v > 0 then
                  tail_beats.(i - tail_from) <- cpu :: tail_beats.(i - tail_from)
              | None -> ())
          w.delta.counters)
      ws;
    let others_beat cpu =
      Array.for_all (fun beats -> List.exists (fun c -> c <> cpu) beats) tail_beats
    in
    Hashtbl.fold
      (fun cpu (active_head, active_tail) acc ->
        if active_head && (not active_tail) && others_beat cpu then
          {
            Watchdog.wrule = Watchdog.Cpu_silent cpu;
            wseq = latest.seq;
            detail =
              Printf.sprintf "cpu %d: no heartbeat for %d window(s) while others ran" cpu silent;
          }
          :: acc
        else acc)
      cpus acc
  end

let check_lock_spike (cfg : Watchdog.config) (ws : window array) acc =
  let n = Array.length ws in
  if n < 2 then acc
  else begin
    let latest = ws.(n - 1) in
    let cur = prefix_sum "smp/lock_wait/" latest in
    let trailing = ref 0 in
    for i = 0 to n - 2 do
      trailing := !trailing + prefix_sum "smp/lock_wait/" ws.(i)
    done;
    let avg = float_of_int !trailing /. float_of_int (n - 1) in
    if cur >= cfg.Watchdog.spike_min && float_of_int cur > cfg.Watchdog.spike_factor *. avg then
      {
        Watchdog.wrule = Watchdog.Lock_spike;
        wseq = latest.seq;
        detail = Printf.sprintf "lock wait %d cycles this window vs %.0f trailing average" cur avg;
      }
      :: acc
    else acc
  end

let check_runq_growth (cfg : Watchdog.config) (samples : Watchdog.sample list) acc =
  let n = List.length samples in
  let k = cfg.Watchdog.growth_windows in
  if n < k + 1 then acc
  else begin
    let tail = List.filteri (fun i _ -> i >= n - k - 1) samples in
    let rec monotone = function
      | (a : Watchdog.sample) :: (b :: _ as rest) -> a.depth <= b.depth && monotone rest
      | _ -> true
    in
    let first = List.hd tail and last = List.nth tail (List.length tail - 1) in
    if monotone tail && last.depth - first.depth >= cfg.Watchdog.growth_min then
      {
        Watchdog.wrule = Watchdog.Runq_growth;
        wseq = last.sseq;
        detail =
          Printf.sprintf "run-queue depth grew %d -> %d over %d window(s)" first.depth last.depth k;
      }
      :: acc
    else acc
  end

let check_ring_drop (samples : Watchdog.sample list) acc =
  let rec newest_pair = function
    | [ a; b ] -> Some (a, b)
    | _ :: rest -> newest_pair rest
    | [] -> None
  in
  match newest_pair samples with
  | Some ((a : Watchdog.sample), (b : Watchdog.sample)) when b.drops > a.drops ->
    {
      Watchdog.wrule = Watchdog.Ring_drop;
      wseq = b.sseq;
      detail = Printf.sprintf "%d event(s) dropped in window" (b.drops - a.drops);
    }
    :: acc
  | _ -> acc

let check t ~samples =
  let ws = Array.of_list (last t (horizon t.config)) in
  []
  |> check_cpu_silent t.config ws
  |> check_lock_spike t.config ws
  |> check_runq_growth t.config samples
  |> check_ring_drop samples
  |> List.sort (fun a b -> compare (Watchdog.report_key a) (Watchdog.report_key b))

(* ------------------------------------------------------------------ *)
(* One window close                                                    *)

let tick t ~now =
  let s = { Watchdog.sseq = t.nticks; depth = t.depth_probe (); drops = Sink.dropped () } in
  let cur = take () in
  t.ring.(t.nticks mod t.cap) <-
    Some { seq = t.nticks; w_start = t.w_open; w_end = now; delta = diff ~base:t.base cur };
  t.nticks <- t.nticks + 1;
  t.base <- cur;
  t.w_open <- now;
  t.samples <- s :: t.samples;
  let cap = t.cap + 1 in
  if List.length t.samples > cap then t.samples <- List.filteri (fun i _ -> i < cap) t.samples;
  List.iter
    (fun r ->
      let k = Watchdog.report_key r in
      if Hashtbl.mem t.seen k then t.dedups <- t.dedups + 1
      else begin
        Hashtbl.replace t.seen k ();
        t.findings <- r :: t.findings
      end)
    (check t ~samples:(List.rev t.samples))

let findings t = List.rev t.findings
let samples t = List.rev t.samples

let merged t ~name ~n =
  last t n
  |> List.filter_map (fun w -> List.assoc_opt name w.delta.hists)
  |> Metrics.Snapshot.merge_hists

(* [Slo.evaluate]'s arithmetic over the oracle's windows. *)
let verdict (spec : Slo.spec) t =
  let h = merged t ~name:spec.Slo.metric ~n:spec.Slo.over in
  let value = Metrics.Snapshot.quantile h spec.Slo.q in
  let violators = ref 0 in
  Array.iteri
    (fun i c ->
      if c > 0 && (if i = 0 then 0 else 1 lsl i) > spec.Slo.limit then violators := !violators + c)
    h.counts;
  let budget = (1. -. spec.Slo.q) *. float_of_int h.n in
  {
    Slo.vspec = spec;
    samples = h.n;
    value;
    violators = !violators;
    budget;
    burn = (if !violators = 0 then 0. else float_of_int !violators /. Float.max 1e-9 budget);
    compliant = h.n = 0 || value <= spec.Slo.limit;
  }
