(* Windowed time-series rollups over the metrics registry.

   The registry's counters and histograms are cumulative; production
   monitoring wants *rates* — what happened in the last window, not
   since boot.  A [tick] closes the open window by taking one registry
   snapshot and storing its delta against the previous snapshot in a
   fixed-size wraparound ring, so the whole rollup machinery costs one
   registry pass per window boundary and nothing per event.

   The ring's slots are allocated once and overwritten in place: a tick
   snapshots into a scratch buffer, diffs it into the evicted slot's
   arrays and swaps the scratch with the base, so while the registry
   keeps its shape a window close allocates nothing and the retained
   deltas are never re-promoted.  Readers get copies ([windows],
   [latest], [last]); only [newest] hands out the live slot.

   Window boundaries ride on the cycle clock of whoever owns the
   timeline (the span layer's close path polls it), so window edges are
   "at least [window_cycles] apart": each window records its actual
   [w_start]/[w_end] and rates divide by the real width. *)

module Snapshot = Metrics.Snapshot

type window = {
  seq : int;  (* 0-based tick number, monotone across wraparound *)
  w_start : int;
  w_end : int;
  delta : Snapshot.t;
}

type slot = {
  mutable s_seq : int;
  mutable s_start : int;
  mutable s_end : int;
  s_delta : Snapshot.t;
}

type t = {
  cap : int;
  window_cycles : int;
  ring : slot array;
  mutable nticks : int;
  mutable base : Snapshot.t;
  mutable scratch : Snapshot.t;
  mutable w_open : int;  (* start timestamp of the currently-open window *)
}

let create ?(windows = 64) ~window_cycles ~now () =
  if windows <= 0 then invalid_arg "Timeseries.create: windows must be positive";
  if window_cycles <= 0 then invalid_arg "Timeseries.create: window_cycles must be positive";
  {
    cap = windows;
    window_cycles;
    ring =
      Array.init windows (fun _ ->
          { s_seq = 0; s_start = 0; s_end = 0; s_delta = Snapshot.create () });
    nticks = 0;
    base = Snapshot.take ();
    scratch = Snapshot.create ();
    w_open = now;
  }

let tick t ~now =
  Snapshot.take_into t.scratch;
  let s = t.ring.(t.nticks mod t.cap) in
  Snapshot.diff_into ~base:t.base t.scratch s.s_delta;
  s.s_seq <- t.nticks;
  s.s_start <- t.w_open;
  s.s_end <- now;
  let b = t.base in
  t.base <- t.scratch;
  t.scratch <- b;
  t.nticks <- t.nticks + 1;
  t.w_open <- now

let ticks t = t.nticks
let capacity t = t.cap
let window_cycles t = t.window_cycles
let next_boundary t = t.w_open + t.window_cycles

let newest t =
  if t.nticks = 0 then invalid_arg "Timeseries.newest: no window closed";
  t.ring.((t.nticks - 1) mod t.cap).s_delta

(* Fold [f] over the last [n] retained slots, oldest first. *)
let fold_slots t ~n f acc =
  let lo = max 0 (t.nticks - min n t.cap) in
  let acc = ref acc in
  for i = lo to t.nticks - 1 do
    acc := f !acc t.ring.(i mod t.cap)
  done;
  !acc

let window_of s =
  { seq = s.s_seq; w_start = s.s_start; w_end = s.s_end; delta = Snapshot.copy s.s_delta }

let last t n = List.rev (fold_slots t ~n (fun acc s -> window_of s :: acc) [])
let windows t = last t t.cap
let latest t = if t.nticks = 0 then None else Some (window_of t.ring.((t.nticks - 1) mod t.cap))

let merged t ~name ~n =
  fold_slots t ~n
    (fun acc s -> match Snapshot.hist s.s_delta name with Some h -> h :: acc | None -> acc)
    []
  |> List.rev |> Snapshot.merge_hists

let counter w ~name = Snapshot.counter w.delta name

let rate w ~name =
  let dur = max 1 (w.w_end - w.w_start) in
  float_of_int (counter w ~name) /. float_of_int dur
