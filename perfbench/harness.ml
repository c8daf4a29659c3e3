(* The one timing loop of the benchmark: a monotonic nanosecond clock,
   GC settling before every timed region, calibration against machine
   speed, block medians with their spread, and the metric/outcome
   records every workload returns. *)

(* [Unix] in this toolchain has no [clock_gettime]; bechamel's stub reads
   CLOCK_MONOTONIC without allocating. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let settle () = Gc.full_major ()

(* ------------------------------------------------------------------ *)
(* Calibration.

   A shared VM's speed swings by up to 2x within a minute, in phases of
   a fraction of a second to several seconds, and every workload slows
   down with it.  So host time is measured in short slices, each preceded
   by one run of a fixed calibration kernel, and reported in reference
   seconds: host seconds scaled by how much slower the kernel ran than
   its reference duration.  The kernel mixes what the workloads spend
   their time on -- short-lived allocation, sequential stores, hashing,
   table updates, lookups in a balanced tree -- and uses none of the
   repo's code.  Its allocations die at once, so it promotes nothing
   and leaves no major-GC work behind; with them it tracks the
   allocation-heavy workloads about twice as closely as without. *)

module Int_map = Map.Make (Int)

let cal_words = 1 lsl 18
let cal_buf = Array.make cal_words 0
let cal_pos = ref 0
let cal_table = Array.make 4096 0
let cal_strings = Array.init 4096 (fun i -> Printf.sprintf "key-%08d" (i * 7))

let cal_tree, cal_keys =
  let rng = Random.State.make [| 3 |] in
  let rec fill m n = if n = 0 then m else fill (Int_map.add (Random.State.bits rng) n m) (n - 1) in
  let m = fill Int_map.empty 8192 in
  (m, Array.of_list (List.map fst (Int_map.bindings m)))

let calibration_kernel () =
  let acc = ref 0 in
  for i = 1 to 1000 do
    let s = string_of_int i in
    let b = Bytes.make 16 (Char.unsafe_chr (i land 0x7f)) in
    let _, s, b = Sys.opaque_identity (i, s, b) in
    let k = Hashtbl.hash s land 4095 in
    cal_table.(k) <- cal_table.(k) + Bytes.length b + String.length s
  done;
  for i = 1 to 10_000 do
    let w = !cal_pos in
    cal_buf.(w) <- i;
    cal_buf.((w + 1) land (cal_words - 1)) <- !acc;
    cal_pos := (w + 2) land (cal_words - 1);
    let k = (i * 2654435761) land 4095 in
    cal_table.(k) <- cal_table.(k) + 1;
    acc := !acc + cal_table.(k)
  done;
  for i = 1 to 1500 do
    acc := !acc + Int_map.find cal_keys.((i * 7919) land 8191) cal_tree
  done;
  for i = 1 to 2000 do
    let s = cal_strings.((i * 131) land 4095) in
    let k = Hashtbl.hash s land 4095 in
    cal_table.(k) <- cal_table.(k) + String.length s;
    acc := !acc + cal_table.(k)
  done;
  ignore (Sys.opaque_identity !acc)

(* Reference duration of one kernel run: roughly what it takes on the
   2-vCPU x86-64 VM this benchmark was tuned on, in a quiet phase.  It
   only sets the scale of reference seconds. *)
let cal_ref_ns = 400_000.

(* Host time of measured work, and the mean calibration run weighted
   by how long the work after each run took: the work's reference time
   is its host time scaled by that mean.  Weighting by time keeps a
   burst of short slices from outvoting one long slice. *)
type meter = { mutable work_ns : int; mutable weighted : float; mutable last_cal : int }

let meter () = { work_ns = 0; weighted = 0.; last_cal = 0 }

let calibrate m =
  let t0 = now_ns () in
  calibration_kernel ();
  m.last_cal <- now_ns () - t0

(* One slice of measured work, after one calibration run. *)
let slice m f =
  calibrate m;
  let t0 = now_ns () in
  let r = f () in
  let dt = now_ns () - t0 in
  m.work_ns <- m.work_ns + dt;
  m.weighted <- m.weighted +. (float_of_int dt *. float_of_int m.last_cal);
  r

let host_s m = float_of_int m.work_ns *. 1e-9
let ref_s m = host_s m *. cal_ref_ns /. (m.weighted /. float_of_int m.work_ns)

(* Time [f] once on a settled heap as a single slice; for short work
   (set-up). *)
let measured f =
  settle ();
  let m = meter () in
  let r = slice m f in
  (r, m)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> 0.
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (the default
   "exclusive" method): the spread of a metric over runs is taken that
   way. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else begin
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)
  end

(* Inter-quartile range as a share of the median. *)
let spread xs =
  let m = median xs in
  let q1, q3 = quartiles xs in
  if m = 0. then 0. else (q3 -. q1) /. m

(* Nearest-rank quantile of an int sample. *)
let quantile_int (a : int array) q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* 63-bit FNV-1a over ints: the digests that pin simulated results and
   request/op streams. *)
let fnv_init = 0x4bf29ce484222325
let fnv h x =
  let h = ref h in
  for i = 0 to 7 do
    h := (!h lxor ((x lsr (8 * i)) land 0xff)) * 0x100000001b3
  done;
  !h land max_int

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv !h (Char.code c)) s;
  !h

(* Timed blocks.  Before each block, [prepare] runs untimed (input
   generation) and the heap is settled; [block m] runs its work as
   slices of [m] and returns how many operations it performed.  Blocks
   repeat until [seconds] of wall time have gone by and at least
   [min_blocks] have run. *)
type rates = {
  per_ref_s : float list;  (** operations per reference second, per block *)
  per_host_s : float list;  (** operations per host second, per block *)
}

let timed_blocks ~seconds ~min_blocks ~prepare ~block =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go r h n =
    if n >= min_blocks && now_ns () >= deadline then
      { per_ref_s = List.rev r; per_host_s = List.rev h }
    else begin
      prepare ();
      settle ();
      let m = meter () in
      let ops = float_of_int (block m) in
      go ((ops /. ref_s m) :: r) ((ops /. host_s m) :: h) (n + 1)
    end
  in
  go [] [] 0

let describe_rates what r =
  Printf.sprintf
    "%s: %d timed blocks; per reference s median %.1f (spread %.1f%%); per host s median \
     %.1f (spread %.1f%%)"
    what (List.length r.per_ref_s) (median r.per_ref_s) (100. *. spread r.per_ref_s)
    (median r.per_host_s) (100. *. spread r.per_host_s)

(* How many times each workload sets up per run; set-up takes tens of
   milliseconds at most, so a median of several is cheap. *)
let setup_times = 7

(* Peak major heap of the process so far, in MB. *)
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Set up [times] times and keep the last world; report the median
   set-up time in reference seconds, and in host seconds.  Only one world
   is alive at a time. *)
let repeated_setup ~times f =
  let rec go r h i =
    let w, m = measured f in
    let r = ref_s m :: r and h = host_s m :: h in
    if i = times then (w, median r, median h) else go r h (i + 1)
  in
  go [] [] 1

let fail fmt = Fmt.kstr failwith fmt

(* Sum of the [pm/borrows/*] counters: permission-map borrows and
   updates.  They count whether or not the sink is tracing. *)
let pm_borrows () =
  List.fold_left
    (fun acc (name, c) ->
      if String.starts_with ~prefix:"pm/borrows/" name then acc + Atmo_obs.Metrics.Counter.value c
      else acc)
    0 (Atmo_obs.Metrics.all_counters ())

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* What one workload pass hands back: its correctness tallies, the
   named checks that must hold, metrics, and free-form notes (spreads,
   digests) printed for humans only. *)
type outcome = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  metrics : metric list;
  notes : string list;
}
