(* Typed stall/overload detectors over the windowed rollups.

   Each rule has a stable code (wire-compatible across versions, like
   the sanitizer's report rules) and reads only window deltas plus the
   per-tick gauge samples the monitor collects — no rule touches live
   kernel state, so checks are safe to run from the span close path.
   What the rules need of a window (which CPUs beat, the summed lock
   wait) is summarised once, as the window closes, into a ring as deep
   as the longest rule looks back; a sweep then reads a few ints per
   window instead of re-scanning every retained delta by name.

   Rules:
   - cpu-silent: a CPU that beat earlier in the horizon has a zero
     `sched/heartbeat/<cpu>` delta for the last [silent_windows]
     windows while other CPUs kept beating — it stopped scheduling.
   - lock-spike: the latest window's summed `smp/lock_wait/<cpu>`
     delta exceeds [spike_factor] times the trailing-window average
     (and an absolute floor) — contention collapse.
   - runq-growth: the sampled run-queue depth is non-decreasing across
     the last [growth_windows] ticks and grew by at least
     [growth_min] — the backlog is diverging (overload).
   - ring-drop: the flight recorder's lifetime drop count advanced
     inside a window — trace loss under pressure. *)

type rule = Cpu_silent of int | Lock_spike | Runq_growth | Ring_drop

let rule_code = function Cpu_silent _ -> 1 | Lock_spike -> 2 | Runq_growth -> 3 | Ring_drop -> 4

let rule_name = function
  | Cpu_silent _ -> "cpu-silent"
  | Lock_spike -> "lock-spike"
  | Runq_growth -> "runq-growth"
  | Ring_drop -> "ring-drop"

let rule_aux = function Cpu_silent cpu -> cpu | Lock_spike | Runq_growth | Ring_drop -> 0

type report = { wrule : rule; wseq : int; detail : string }

let report_key r = (rule_code r.wrule, rule_aux r.wrule, r.wseq)

type config = {
  silent_windows : int;
  spike_factor : float;
  spike_min : int;
  growth_windows : int;
  growth_min : int;
}

let default_config =
  { silent_windows = 2; spike_factor = 8.; spike_min = 10_000; growth_windows = 4; growth_min = 8 }

type sample = { sseq : int; depth : int; drops : int }

let heartbeat_prefix = "sched/heartbeat/"
let lock_wait_prefix = "smp/lock_wait/"

(* Allocation-free prefix test. *)
let prefixed prefix name =
  let lp = String.length prefix in
  String.length name > lp
  &&
  let rec go i =
    i >= lp || (String.unsafe_get name i = String.unsafe_get prefix i && go (i + 1))
  in
  go 0

(* How far back any rule looks: the summary ring keeps this many
   windows, which is what keeps the tick cost independent of the
   series' ring size. *)
let horizon cfg = max (cfg.silent_windows + 1) 8

(* What the rules read of one closed window, computed once when it
   closes: the distinct CPUs whose heartbeat delta was positive and the
   summed lock-wait delta. *)
type summary = {
  mutable seq : int;
  mutable beats : int array;  (* distinct beating CPUs in [0, nbeats) *)
  mutable nbeats : int;
  mutable lock_wait : int;
}

type t = {
  config : config;
  series_cap : int;
  sums : summary array;  (* ring of [horizon config] summaries *)
  mutable nsums : int;
  samples : sample array;  (* ring of [series_cap + 1] gauge samples *)
  mutable nsamples : int;
  (* where the heartbeat (index, cpu) and lock-wait counters sit in the
     snapshot name array [names]; rebuilt when a registration replaces
     it *)
  mutable names : string array;
  mutable hb : (int * int) array;
  mutable lw : int array;
}

let push_sample t s =
  t.samples.(t.nsamples mod Array.length t.samples) <- s;
  t.nsamples <- t.nsamples + 1

let create ?(config = default_config) ~windows ~baseline () =
  let t =
    {
      config;
      series_cap = windows;
      sums =
        Array.init (horizon config) (fun _ -> { seq = 0; beats = [||]; nbeats = 0; lock_wait = 0 });
      nsums = 0;
      samples = Array.make (windows + 1) baseline;
      nsamples = 0;
      names = [||];
      hb = [||];
      lw = [||];
    }
  in
  push_sample t baseline;
  t

let reindex t names =
  let lp = String.length heartbeat_prefix in
  let cpu_of name = int_of_string_opt (String.sub name lp (String.length name - lp)) in
  let indexed = List.mapi (fun i name -> (i, name)) (Array.to_list names) in
  t.names <- names;
  t.hb <-
    Array.of_list
      (List.filter_map
         (fun (i, name) ->
           if prefixed heartbeat_prefix name then Option.map (fun cpu -> (i, cpu)) (cpu_of name)
           else None)
         indexed);
  t.lw <-
    Array.of_list
      (List.filter_map (fun (i, name) -> if prefixed lock_wait_prefix name then Some i else None) indexed)

let has_beat sm cpu =
  let rec go i = i < sm.nbeats && (sm.beats.(i) = cpu || go (i + 1)) in
  go 0

let summarise t ~seq delta =
  let names = Metrics.Snapshot.counter_names delta in
  if names != t.names then reindex t names;
  let sm = t.sums.(t.nsums mod Array.length t.sums) in
  t.nsums <- t.nsums + 1;
  sm.seq <- seq;
  if Array.length sm.beats < Array.length t.hb then sm.beats <- Array.make (Array.length t.hb) 0;
  sm.nbeats <- 0;
  Array.iter
    (fun (i, cpu) ->
      if Metrics.Snapshot.counter_value delta i > 0 && not (has_beat sm cpu) then begin
        sm.beats.(sm.nbeats) <- cpu;
        sm.nbeats <- sm.nbeats + 1
      end)
    t.hb;
  sm.lock_wait <-
    Array.fold_left (fun acc i -> acc + Metrics.Snapshot.counter_value delta i) 0 t.lw

(* The last [n] summaries, oldest at index 0. *)
let summary t ~n i = t.sums.((t.nsums - n + i) mod Array.length t.sums)

let check_cpu_silent cfg t ~n acc =
  if n < cfg.silent_windows + 1 then acc
  else begin
    let tail_from = n - cfg.silent_windows in
    let latest = summary t ~n (n - 1) in
    let beat_in lo hi cpu =
      let rec go i = i < hi && (has_beat (summary t ~n i) cpu || go (i + 1)) in
      go lo
    in
    (* Others must keep beating through the whole silent suffix. *)
    let others_beat cpu =
      let rec go i =
        i >= n
        ||
        let sm = summary t ~n i in
        let rec other k = k < sm.nbeats && (sm.beats.(k) <> cpu || other (k + 1)) in
        other 0 && go (i + 1)
      in
      go tail_from
    in
    (* A candidate beat before the suffix; each CPU is judged once, at
       its first head window. *)
    let acc = ref acc in
    for i = 0 to tail_from - 1 do
      let sm = summary t ~n i in
      for k = 0 to sm.nbeats - 1 do
        let cpu = sm.beats.(k) in
        if (not (beat_in 0 i cpu)) && (not (beat_in tail_from n cpu)) && others_beat cpu then
          acc :=
            {
              wrule = Cpu_silent cpu;
              wseq = latest.seq;
              detail =
                Printf.sprintf "cpu %d: no heartbeat for %d window(s) while others ran" cpu
                  cfg.silent_windows;
            }
            :: !acc
      done
    done;
    !acc
  end

let check_lock_spike cfg t ~n acc =
  if n < 2 then acc
  else begin
    let latest = summary t ~n (n - 1) in
    let cur = latest.lock_wait in
    let trailing = ref 0 in
    for i = 0 to n - 2 do
      trailing := !trailing + (summary t ~n i).lock_wait
    done;
    let avg = float_of_int !trailing /. float_of_int (n - 1) in
    if cur >= cfg.spike_min && float_of_int cur > cfg.spike_factor *. avg then
      {
        wrule = Lock_spike;
        wseq = latest.seq;
        detail =
          Printf.sprintf "lock wait %d cycles this window vs %.0f trailing average" cur avg;
      }
      :: acc
    else acc
  end

(* Sample [i] of the last [n], oldest at index 0. *)
let sample t ~n i = t.samples.((t.nsamples - n + i) mod Array.length t.samples)
let retained t = min t.nsamples (Array.length t.samples)

let check_runq_growth cfg t acc =
  let n = retained t and k = cfg.growth_windows + 1 in
  if n < k then acc
  else begin
    let depth i = (sample t ~n i).depth in
    let rec monotone i = i >= n - 1 || (depth i <= depth (i + 1) && monotone (i + 1)) in
    let first = depth (n - k) and last = sample t ~n (n - 1) in
    if monotone (n - k) && last.depth - first >= cfg.growth_min then
      {
        wrule = Runq_growth;
        wseq = last.sseq;
        detail =
          Printf.sprintf "run-queue depth grew %d -> %d over %d window(s)" first last.depth
            cfg.growth_windows;
      }
      :: acc
    else acc
  end

(* Only the newest pair: each tick adds one sample, so consecutive
   sweeps cover every delta between them. *)
let check_ring_drop t acc =
  let n = retained t in
  if n < 2 then acc
  else begin
    let a = sample t ~n (n - 2) and b = sample t ~n (n - 1) in
    if b.drops > a.drops then
      {
        wrule = Ring_drop;
        wseq = b.sseq;
        detail = Printf.sprintf "%d event(s) dropped in window" (b.drops - a.drops);
      }
      :: acc
    else acc
  end

let observe t series sample =
  summarise t ~seq:(Timeseries.ticks series - 1) (Timeseries.newest series);
  push_sample t sample;
  let cfg = t.config in
  let n = min t.nsums (min (horizon cfg) t.series_cap) in
  match
    []
    |> check_cpu_silent cfg t ~n
    |> check_lock_spike cfg t ~n
    |> check_runq_growth cfg t
    |> check_ring_drop t
  with
  | ([] | [ _ ]) as rs -> rs
  | rs -> List.sort (fun a b -> compare (report_key a) (report_key b)) rs

let samples t =
  let n = retained t in
  List.init n (sample t ~n)

let pp_report ppf r =
  Format.fprintf ppf "%-12s window %d: %s" (rule_name r.wrule) r.wseq r.detail
