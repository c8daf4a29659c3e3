(* The verify workload: Table 2's "Atmosphere (full)" row followed by
   the [atmo fuzz] loop.

   The full suite ([Catalog.full_suite ~scale:3]) is discharged; then a
   seeded stream of refinement-checked random
   transitions runs on a scale-3 world.  Each checked transition is α
   before the step, [Kernel.step], α after, [Syscall_spec.check], and
   every check in [Invariants.obligations].  Each block of transitions
   starts from a freshly built world, so the work per transition does
   not drift with how far a seed's stream has grown or shrunk the
   world.  The workload exercises the verifier side ([verif], [spec],
   α, the invariants) and almost none of the kernel's run-time path:
   verifier and kernel speedups show up in different workloads. *)

module Kernel = Atmo_core.Kernel
module Abstraction = Atmo_core.Abstraction
module Invariants = Atmo_core.Invariants
module Syscall = Atmo_spec.Syscall
module Syscall_spec = Atmo_spec.Syscall_spec
module Catalog = Atmo_verif.Catalog
module Obligation = Atmo_verif.Obligation
module Runner = Atmo_verif.Runner
module Refine_harness = Atmo_verif.Refine_harness

(* Sequential full-suite passes per untraced run; [verify_s] is their
   median. *)
let passes = 2
let block_transitions = 16
let sim_transitions = 1024
let min_blocks = sim_transitions / block_transitions

type names = {
  transition : int;
  abstraction : int;
  step : int;
  spec : int;
  invariants : (string * int * (Kernel.t -> (unit, string) result)) list;
}

type t = {
  suite : Obligation.t list;
  mutable k : Kernel.t;
  rng : Random.State.t;
  cost : Atmo_sim.Cost.t;
  mutable transitions : int;
  mutable bad : int;
  mutable rebuilds : int;
  mutable stream : int;  (** digest of (thread, call, ret) per transition *)
  kcycles : int array;  (** cycle-model cost of the first transitions *)
  tr : Tracer.t;
  names : names;
}

let fail = Harness.fail

let world () =
  match Catalog.build_world ~scale:Discharge.scale with
  | Ok (k, _) -> k
  | Error msg -> fail "verify: building the world: %s" msg

let strip_prefix name =
  match String.index_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* The transition world and the full suite (which builds its own). *)
let setup ?(traced = false) ~seed () =
  let k = world () in
  let suite =
    match Catalog.full_suite ~scale:Discharge.scale with
    | Ok s -> s
    | Error msg -> fail "verify: building the suite: %s" msg
  in
  let tr = Tracer.create ~on:traced in
  {
    suite;
    k;
    rng = Random.State.make [| seed |];
    cost = Atmo_sim.Cost.default;
    transitions = 0;
    bad = 0;
    rebuilds = 0;
    stream = Harness.fnv_init;
    kcycles = Array.make sim_transitions 0;
    tr;
    names =
      {
        transition = Tracer.name tr "transition";
        abstraction = Tracer.name tr "core.abstraction";
        step = Tracer.name tr "core.step";
        spec = Tracer.name tr "spec.check";
        invariants =
          List.map
            (fun (name, check) ->
              let metric = "core.invariants." ^ strip_prefix name in
              (metric, Tracer.name tr metric, check))
            Invariants.obligations;
      };
  }

let span w id f =
  let s = Tracer.enter w.tr id in
  let r = f () in
  Tracer.leave w.tr s;
  r

(* One checked transition from a random live thread. *)
let transition w =
  let thread =
    match Refine_harness.random_thread w.rng w.k with
    | Some th -> th
    | None ->
      (* every thread died: start over on a fresh world *)
      w.k <- world ();
      w.rebuilds <- w.rebuilds + 1;
      Option.get (Refine_harness.random_thread w.rng w.k)
  in
  let call = Refine_harness.random_call w.rng w.k ~thread in
  let n = w.names and k = w.k in
  let op = Tracer.enter_op w.tr n.transition in
  let pre = span w n.abstraction (fun () -> Abstraction.abstract k) in
  let ret = span w n.step (fun () -> Kernel.step k ~thread call) in
  let post = span w n.abstraction (fun () -> Abstraction.abstract k) in
  let spec = span w n.spec (fun () -> Syscall_spec.check ~pre ~post ~thread call ret) in
  let wf =
    List.for_all (fun (_, id, check) -> span w id (fun () -> check k) = Ok ()) n.invariants
  in
  Tracer.leave w.tr op;
  if spec <> Ok () || not wf then w.bad <- w.bad + 1;
  if w.transitions < sim_transitions then begin
    w.kcycles.(w.transitions) <- Atmo_sim.Smp.syscall_cycles w.cost call;
    w.stream <-
      Harness.fnv_string (Harness.fnv w.stream thread)
        (Format.asprintf "%a%a" Syscall.pp call Syscall.pp_ret ret)
  end;
  w.transitions <- w.transitions + 1

(* A fresh world for the next block (untimed). *)
let prepare w = w.k <- world ()

(* Each checked transition is one calibrated slice. *)
let block w m =
  for _ = 1 to block_transitions do
    Harness.slice m (fun () -> transition w)
  done;
  block_transitions

(* The sequential discharge the per-group self times come from: one
   [Obligation.discharge] at a time, each inside a group span. *)
let sequential_groups w =
  let ids = Hashtbl.create 8 in
  let id g =
    match Hashtbl.find_opt ids g with
    | Some i -> i
    | None ->
      let i = Tracer.name w.tr ("verif.group." ^ g ^ ".ms") in
      Hashtbl.replace ids g i;
      i
  in
  let results =
    List.map
      (fun (o : Obligation.t) -> span w (id o.Obligation.group) (fun () -> Obligation.discharge o))
      w.suite
  in
  Tracer.flush w.tr;
  (Hashtbl.fold (fun g i acc -> (g, i) :: acc) ids [], results)

(* ------------------------------------------------------------------ *)

type pass = {
  w : t;
  setup_s : float;
  setup_host_s : float;
  verify_s : float;  (** median sequential pass, reference s (0 in other modes) *)
  verify_host_s : float;
  verdicts : Obligation.result list;
  parallel : Discharge.t option;  (** the 2-domain discharge *)
  rates : Harness.rates;
  heap_mb : float;
  groups : (string * int) list;  (** span name per obligation group *)
}

(* An untraced pass discharges the suite sequentially [passes] times
   (for [verify_s]) or once on 2 domains (for [verif.parallel_eff]); a
   traced pass discharges it once with a span per obligation group. *)
let pass ~seed ~seconds ~mode =
  let traced = mode = `Groups in
  let w, setup_s, setup_host_s =
    Harness.repeated_setup ~times:Harness.setup_times (fun () -> setup ~traced ~seed ())
  in
  let t0 = Harness.now_ns () in
  let (verify_s, verify_host_s), verdicts, parallel, groups =
    match mode with
    | `Sequential ->
      let r, h, verdicts = Discharge.sequential ~passes w.suite in
      ((r, h), verdicts, None, [])
    | `Parallel ->
      let d = Discharge.parallel w.suite in
      ((0., 0.), d.Discharge.results, Some d, [])
    | `Groups ->
      let groups, verdicts = sequential_groups w in
      ((0., 0.), verdicts, None, groups)
  in
  let left = seconds -. (float_of_int (Harness.now_ns () - t0) *. 1e-9) in
  let rates =
    Harness.timed_blocks ~seconds:left ~min_blocks
      ~prepare:(fun () ->
        Tracer.flush w.tr;
        prepare w)
      ~block:(block w)
  in
  Tracer.flush w.tr;
  {
    w;
    setup_s;
    setup_host_s;
    verify_s;
    verify_host_s;
    verdicts;
    parallel;
    rates;
    heap_mb = Harness.heap_peak_mb ();
    groups;
  }

let obligation_failures p = List.length (Discharge.failed p.verdicts)

let checks p =
  [
    ("verify: every obligation verdict ok", obligation_failures p = 0);
    ("verify: every checked transition refines its spec and keeps every invariant", p.w.bad = 0);
  ]

let attempted p = p.w.transitions + List.length p.verdicts

let failed p = p.w.bad + obligation_failures p

let end_to_end p =
  let w = p.w in
  let cycles = Array.fold_left ( + ) 0 w.kcycles in
  Harness.
    [
      metric "setup_s" "s" p.setup_s;
      metric "host_ops_per_s" "1/s" (median p.rates.per_ref_s);
      metric "verify_s" "s" p.verify_s;
      metric "sim_ops_per_s" "1/s"
        (float_of_int sim_transitions /. float_of_int cycles *. Atmo_hw.Clock.frequency_hz);
      metric "sim_lat_p50_cyc" "cyc" (float_of_int (quantile_int w.kcycles 0.50));
      metric "sim_lat_p99_cyc" "cyc" (float_of_int (quantile_int w.kcycles 0.99));
      metric "heap_peak_mb" "MB" p.heap_mb;
    ]

let notes p =
  Discharge.failure_notes p.verdicts
  @ (match (p.parallel, p.groups) with
     | Some d, _ ->
       [ Printf.sprintf "verify: discharge on %d domains %.3f host s" Discharge.domains d.wall_s ]
     | None, [] ->
       [
         Printf.sprintf "verify: %d obligations; sequential discharge %.3f host s (median of %d)"
           (List.length p.w.suite) p.verify_host_s passes;
       ]
     | None, _ -> [])
  @ [
    Printf.sprintf "verify: %d checked transitions (%d world rebuilds); set-up %.4f host s"
      p.w.transitions p.w.rebuilds p.setup_host_s;
    Harness.describe_rates "verify: transitions" p.rates;
    Printf.sprintf "verify: transition stream digest %016x" p.w.stream;
  ]

let per_layer ~u ~t =
  let w = t.w and tr = t.w.tr and n = t.w.names in
  let us id = Tracer.mean_self_ns tr id /. 1e3 in
  Harness.
    [
      metric "core.step.ns" "ns" (Tracer.mean_self_ns tr n.step);
      metric "core.step.words" "words" (Tracer.mean_self_words tr n.step);
      metric "core.abstraction.us" "us" (us n.abstraction);
      metric "spec.check.us" "us" (us n.spec);
      metric "core.step.us" "us" (us n.step);
    ]
  @ List.map (fun (name, id, _) -> Harness.metric (name ^ ".us") "us" (us id)) n.invariants
  @ List.map
      (fun (g, id) ->
        Harness.metric ("verif.group." ^ g ^ ".ms") "ms" (Tracer.total_self_ns w.tr id /. 1e6))
      t.groups
  @ Harness.
      [
        metric "verif.parallel_eff" "ratio"
          (match u.parallel with Some d -> Discharge.parallel_eff d | None -> 0.);
        metric "bench.trace_overhead_pct" "%"
          (100. *. (1. -. (median t.rates.per_ref_s /. median u.rates.per_ref_s)));
      ]

let identity ~u ~t =
  [ ("verify: traced = untraced (transition stream digest)", u.w.stream = t.w.stream) ]
