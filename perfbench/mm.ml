(* The mm workload: Table 3's "map a page" row under load.

   Eight processes with one thread each run on 4 simulated CPUs under
   [Smp.run] in the fine-grained regime.  Each thread issues a seeded
   mix of 4 KiB mmap, munmap and mprotect that holds about 256 live
   mappings in its address space, plus a few 2 MiB map/unmap pairs that
   make the allocator split and merge superpages.  Every return is
   checked against a per-process shadow address space: the shadow
   decides each call when it is generated, so it also knows what the
   kernel must answer.  The machine boots with 64 MiB; the default
   16 MiB machine refuses some of these calls for lack of memory.

   One answer depends on physical memory rather than the address
   space: the allocator has no anti-fragmentation, so once 4 KiB churn
   has scattered used frames over every 2 MiB-aligned group, a 2 MiB
   map can fail with ENOMEM.  That refusal is accepted only when the
   allocator truly has no superpage to give (no free 2 MiB block and no
   fully free aligned group to merge); the shadow then knows the
   thread's following 2 MiB unmap must fail with EINVAL.  Refusals are
   counted and reported. *)

module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Proc_mgr = Atmo_pm.Proc_mgr
module Perm_map = Atmo_pm.Perm_map
module Page_alloc = Atmo_pmem.Page_alloc
module Page_state = Atmo_pmem.Page_state
module Page_table = Atmo_pt.Page_table
module Pte = Atmo_hw.Pte_bits
module Tlb = Atmo_hw.Tlb
module Smp = Atmo_sim.Smp
module Metrics = Atmo_obs.Metrics

let frames = 16384
let reserved_frames = 16
let procs = 8
let cpus = 4
let think_cycles = 2000
let slots = 1024
let base_4k = 0x4000_0000
let base_2m = 0x8000_0000
let live_target = 256
let live_lo = 192
let live_hi = 320

(* Iterations per [Smp.run] (each thread issues one call per iteration),
   runs per timed block, and how many leading runs the simulated
   metrics and the traced/untraced identity cover. *)
let iterations = 64
let runs_per_block = 16
let sim_runs = 64
let min_blocks = sim_runs / runs_per_block

type shadow = {
  live : bool array;
  ro : bool array;
  mutable nlive : int;
  mutable has_2m : bool;
  rng : Random.State.t;
}

(* What the kernel must answer. *)
type expect = Mapped | Unit | Map_2m | Unmap_2m

type t = {
  k : Kernel.t;
  threads : int array;
  proc_of : int array;
  shadows : shadow array;
  cost : Atmo_sim.Cost.t;
  seed : int;
  (* the next block's calls and expected returns: [run][thread][iter] *)
  calls : Syscall.t array array array;
  expect : expect array array array;
  mutable cur : int;  (** run within the block *)
  mutable runs : int;  (** Smp runs completed *)
  mutable executed : int;
  mutable bad : int;
  held_2m : bool array;  (** per thread: its 2 MiB mapping really exists *)
  mutable refused_2m : int;
  mutable first_bad : string list;  (** the first mismatches, for the report *)
  mutable stream : int;  (** digest of the op stream *)
  (* simulated results of the first [sim_runs] runs *)
  mutable sim_syscalls : int;
  mutable sim_wall : int;
  mutable sim_lock_wait : int;
  mutable sim_busy : int;
  mutable stats_digest : int;
  kcycles : int array;
  mutable abstract_digest : int option;
  (* traced-pass samples *)
  mutable free_4k_min : int;
  mutable free_2m_min : int;
  mutable live_samples : float list;
  tr : Tracer.t;
  smp_n : int;
  step_n : int;
}

let fail = Harness.fail
let slot_va i = base_4k + (i * 4096)

let rec pick rng arr want =
  let i = Random.State.int rng (Array.length arr) in
  if arr.(i) = want then i else pick rng arr want

(* Decide the next call of one thread and update its shadow. *)
let next_call s =
  let r = Random.State.int s.rng 1000 in
  if r < 12 then
    if s.has_2m then begin
      s.has_2m <- false;
      (Syscall.Munmap { va = base_2m; count = 1; size = Page_state.S2m }, Unmap_2m)
    end
    else begin
      s.has_2m <- true;
      (Syscall.Mmap { va = base_2m; count = 1; size = Page_state.S2m; perm = Pte.perm_rw }, Map_2m)
    end
  else if s.nlive <= live_lo || (s.nlive < live_hi && r < 456) then begin
    let i = pick s.rng s.live false in
    s.live.(i) <- true;
    s.ro.(i) <- false;
    s.nlive <- s.nlive + 1;
    (Syscall.Mmap { va = slot_va i; count = 1; size = Page_state.S4k; perm = Pte.perm_rw }, Mapped)
  end
  else if s.nlive >= live_hi || r < 900 then begin
    let i = pick s.rng s.live true in
    s.live.(i) <- false;
    s.nlive <- s.nlive - 1;
    (Syscall.Munmap { va = slot_va i; count = 1; size = Page_state.S4k }, Unit)
  end
  else begin
    let i = pick s.rng s.live true in
    s.ro.(i) <- not s.ro.(i);
    (Syscall.Mprotect { va = slot_va i; perm = (if s.ro.(i) then Pte.perm_ro else Pte.perm_rw) }, Unit)
  end

let matches expect (ret : Syscall.ret) =
  match (expect, ret) with
  | Mapped, Syscall.Rmapped [ _ ] | Unit, Syscall.Runit -> true
  | _ -> false

(* The allocator could not have produced a 2 MiB block: none is free
   and no 2 MiB-aligned group of free 4 KiB frames is left to merge. *)
let no_superpage alloc =
  Page_alloc.free_count_2m alloc = 0
  &&
  let groups = Hashtbl.create 64 in
  Atmo_util.Iset.iter
    (fun addr ->
      let g = addr / Page_state.bytes_per Page_state.S2m in
      Hashtbl.replace groups g (1 + Option.value ~default:0 (Hashtbl.find_opt groups g)))
    (Page_alloc.free_pages_4k alloc);
  not (Hashtbl.fold (fun _ n acc -> acc || n = 512) groups false)

let call_code = function
  | Syscall.Mmap { va; size; _ } -> (1, va, Page_state.bytes_per size)
  | Syscall.Munmap { va; size; _ } -> (2, va, Page_state.bytes_per size)
  | Syscall.Mprotect { va; perm } -> (3, va, if Pte.equal_perm perm Pte.perm_ro then 1 else 0)
  | _ -> (0, 0, 0)

(* Generate the next block's calls (untimed). *)
let prepare w =
  for r = 0 to runs_per_block - 1 do
    for j = 0 to procs - 1 do
      for i = 0 to iterations - 1 do
        let call, e = next_call w.shadows.(j) in
        w.calls.(r).(j).(i) <- call;
        w.expect.(r).(j).(i) <- e;
        if w.runs + r < sim_runs then begin
          let a, b, c = call_code call in
          w.stream <- Harness.fnv (Harness.fnv (Harness.fnv w.stream a) b) c
        end
      done
    done
  done;
  w.cur <- 0

(* 64 MiB boot, eight processes with one thread each, every address
   space populated to its target, and the first block generated. *)
let setup ?(traced = false) ~seed () =
  let boot =
    {
      Kernel.frames;
      reserved_frames;
      root_quota = frames - reserved_frames;
      cpus = Atmo_util.Iset.of_range ~lo:0 ~hi:cpus;
    }
  in
  let k =
    match Kernel.boot boot with
    | Ok (k, _) -> k
    | Error e -> fail "mm: boot: %a" Atmo_util.Errno.pp e
  in
  let pm = k.Kernel.pm in
  let ok what = function Ok v -> v | Error e -> fail "mm: %s: %a" what Atmo_util.Errno.pp e in
  let proc_of =
    Array.init procs (fun _ ->
        ok "new_process"
          (Proc_mgr.new_process pm ~container:pm.Proc_mgr.root_container ~parent:None))
  in
  let threads = Array.map (fun proc -> ok "new_thread" (Proc_mgr.new_thread pm ~proc)) proc_of in
  let shadows =
    Array.init procs (fun j ->
        {
          live = Array.make slots false;
          ro = Array.make slots false;
          nlive = 0;
          has_2m = false;
          rng = Random.State.make [| seed; j |];
        })
  in
  Array.iteri
    (fun j s ->
      for _ = 1 to live_target do
        let i = pick s.rng s.live false in
        s.live.(i) <- true;
        s.nlive <- s.nlive + 1;
        let call =
          Syscall.Mmap { va = slot_va i; count = 1; size = Page_state.S4k; perm = Pte.perm_rw }
        in
        if not (matches Mapped (Kernel.step k ~thread:threads.(j) call)) then
          fail "mm: populating address space %d failed" j
      done)
    shadows;
  let tr = Tracer.create ~on:traced in
  let grid v = Array.init runs_per_block (fun _ -> Array.init procs (fun _ -> Array.make iterations v)) in
  let w =
    {
      k;
      threads;
      proc_of;
      shadows;
      cost = Atmo_sim.Cost.default;
      seed;
      calls = grid Syscall.Yield;
      expect = grid Unit;
      cur = 0;
      runs = 0;
      executed = 0;
      bad = 0;
      held_2m = Array.make procs false;
      refused_2m = 0;
      first_bad = [];
      stream = Harness.fnv_init;
      sim_syscalls = 0;
      sim_wall = 0;
      sim_lock_wait = 0;
      sim_busy = 0;
      stats_digest = Harness.fnv_init;
      kcycles = Array.make (sim_runs * procs * iterations) 0;
      abstract_digest = None;
      free_4k_min = max_int;
      free_2m_min = max_int;
      live_samples = [];
      tr;
      smp_n = Tracer.name tr "sim.smp";
      step_n = Tracer.name tr "core.step";
    }
  in
  prepare w;
  w

let thread_index w thread =
  let rec go j = if w.threads.(j) = thread then j else go (j + 1) in
  go 0

let digest_abstract k =
  Harness.fnv_string Harness.fnv_init
    (Format.asprintf "%a" Atmo_spec.Abstract_state.pp (Atmo_core.Abstraction.abstract k))

(* One [Smp.run] over the current slice of the block. *)
let smp_run w =
  let r = w.cur in
  let programs =
    Array.to_list
      (Array.mapi
         (fun j thread ->
           { Smp.thread; think_cycles; call_of = (fun i -> w.calls.(r).(j).(i)) })
         w.threads)
  in
  let observe ~cpu:_ ~iter ~thread ret =
    let j = thread_index w thread in
    let ok =
      match (w.expect.(r).(j).(iter), ret) with
      | Map_2m, Syscall.Rmapped [ _ ] ->
        w.held_2m.(j) <- true;
        true
      | Map_2m, Syscall.Rerr Atmo_util.Errno.Enomem when no_superpage w.k.Kernel.alloc ->
        w.refused_2m <- w.refused_2m + 1;
        true
      | Unmap_2m, Syscall.Runit when w.held_2m.(j) ->
        w.held_2m.(j) <- false;
        true
      | Unmap_2m, Syscall.Rerr Atmo_util.Errno.Einval -> not w.held_2m.(j)
      | Mapped, Syscall.Rmapped [ _ ] ->
        (* the thread's first touch of its new page fills the TLB, so
           the unmap that follows has an entry to shoot down *)
        (match w.calls.(r).(j).(iter) with
         | Syscall.Mmap { va; _ } -> ignore (Kernel.resolve_user w.k ~thread ~vaddr:va)
         | _ -> ());
        true
      | e, ret -> matches e ret
    in
    if not ok then begin
      w.bad <- w.bad + 1;
      if w.bad <= 3 then
        w.first_bad <-
          Format.asprintf "%a -> %a" Syscall.pp w.calls.(r).(j).(iter) Syscall.pp_ret ret
          :: w.first_bad
    end;
    if w.tr.Tracer.on then begin
      w.free_4k_min <- min w.free_4k_min (Page_alloc.free_count_4k w.k.Kernel.alloc);
      w.free_2m_min <- min w.free_2m_min (Page_alloc.free_count_2m w.k.Kernel.alloc)
    end
  in
  let s = Tracer.enter w.tr w.smp_n in
  let stats =
    match
      Smp.run ~regime:Smp.Fine_grained ~steal_seed:w.seed ~observe w.k ~cost:w.cost ~cpus
        ~programs ~iterations
    with
    | Ok st -> st
    | Error msg -> fail "mm: Smp.run: %s" msg
  in
  Tracer.leave w.tr s;
  if w.runs < sim_runs then begin
    let base = w.runs * procs * iterations in
    for i = 0 to iterations - 1 do
      for j = 0 to procs - 1 do
        w.kcycles.(base + (i * procs) + j) <- Smp.syscall_cycles w.cost w.calls.(r).(j).(i)
      done
    done;
    let busy = Array.fold_left ( + ) 0 stats.Smp.busy_cycles in
    w.sim_syscalls <- w.sim_syscalls + stats.Smp.syscalls_executed;
    w.sim_wall <- w.sim_wall + stats.Smp.wall_cycles;
    w.sim_lock_wait <- w.sim_lock_wait + stats.Smp.lock_wait_cycles;
    w.sim_busy <- w.sim_busy + busy;
    w.stats_digest <-
      List.fold_left Harness.fnv w.stats_digest
        ([ stats.Smp.syscalls_executed; stats.Smp.wall_cycles; stats.Smp.lock_wait_cycles;
           stats.Smp.steals ]
        @ Array.to_list stats.Smp.busy_cycles
        @ Array.to_list stats.Smp.lock_wait_by_cpu
        @ List.concat_map (fun (t, c) -> [ t; c ]) stats.Smp.placement)
  end;
  w.runs <- w.runs + 1;
  w.cur <- w.cur + 1;
  w.executed <- w.executed + stats.Smp.syscalls_executed;
  stats.Smp.syscalls_executed

(* Each [Smp.run] is one calibrated slice. *)
let block w m =
  let n = ref 0 in
  for _ = 1 to runs_per_block do
    n := !n + Harness.slice m (fun () -> smp_run w)
  done;
  !n

(* The abstract state after exactly [sim_runs] runs, taken between
   blocks. *)
let capture_if_due w =
  if w.runs = sim_runs && w.abstract_digest = None then
    w.abstract_digest <- Some (digest_abstract w.k)

let live_mappings w =
  let total =
    Array.fold_left
      (fun acc proc ->
        let p = Perm_map.borrow w.k.Kernel.pm.Proc_mgr.proc_perms ~ptr:proc in
        acc + Atmo_util.Imap.cardinal (Page_table.address_space p.Atmo_pm.Process.pt))
      0 w.proc_of
  in
  float_of_int total /. float_of_int procs

(* ------------------------------------------------------------------ *)

type pass = {
  w : t;
  setup_s : float;
  setup_host_s : float;
  rates : Harness.rates;
  heap_mb : float;
  borrows : int;
  invlpgs : int;
  wf : (unit, string) result;
}

let pass ~traced ~seed ~seconds =
  let w, setup_s, setup_host_s =
    Harness.repeated_setup ~times:Harness.setup_times (fun () -> setup ~traced ~seed ())
  in
  let b0 = Harness.pm_borrows () and tlb0 = Tlb.cpu_stats () in
  let step_span = ref (-1) in
  if traced then
    Kernel.set_step_observer
      (Some
         (fun _ ~thread:_ ~entering ->
           if entering then step_span := Tracer.enter_op w.tr w.step_n
           else Tracer.leave w.tr !step_span));
  let rates =
    Fun.protect
      ~finally:(fun () -> Kernel.set_step_observer None)
      (fun () ->
        Harness.timed_blocks ~seconds ~min_blocks
          ~prepare:(fun () ->
            Tracer.flush w.tr;
            capture_if_due w;
            if traced then w.live_samples <- live_mappings w :: w.live_samples;
            if w.runs > 0 then prepare w)
          ~block:(block w))
  in
  Tracer.flush w.tr;
  capture_if_due w;
  let heap_mb = Harness.heap_peak_mb () in
  let borrows = Harness.pm_borrows () - b0 in
  let invlpgs = (Tlb.cpu_stats ()).Tlb.invlpgs - tlb0.Tlb.invlpgs in
  let wf = Atmo_core.Invariants.total_wf w.k in
  { w; setup_s; setup_host_s; rates; heap_mb; borrows; invlpgs; wf }

let checks p =
  [
    ("mm: every return matches the shadow address space", p.w.bad = 0);
    ("mm: total_wf holds after the timed region", p.wf = Ok ());
  ]

let attempted p = p.w.executed
let failed p = p.w.bad + if p.wf = Ok () then 0 else 1

let end_to_end p =
  let w = p.w in
  Harness.
    [
      metric "setup_s" "s" p.setup_s;
      metric "host_ops_per_s" "1/s" (median p.rates.per_ref_s);
      metric "sim_ops_per_s" "1/s"
        (float_of_int w.sim_syscalls /. float_of_int w.sim_wall *. Atmo_hw.Clock.frequency_hz);
      metric "sim_lat_p50_cyc" "cyc" (float_of_int (quantile_int w.kcycles 0.50));
      metric "sim_lat_p99_cyc" "cyc" (float_of_int (quantile_int w.kcycles 0.99));
      metric "heap_peak_mb" "MB" p.heap_mb;
    ]

let notes p =
  [
    Printf.sprintf "mm: %d syscalls; set-up %.4f host s" p.w.executed p.setup_host_s;
    Harness.describe_rates "mm: syscalls" p.rates;
    Printf.sprintf "mm: %d 2 MiB map(s) refused for lack of a superpage" p.w.refused_2m;
    Printf.sprintf "mm: op stream digest %016x, Smp stats digest %016x, abstract digest %016x"
      p.w.stream p.w.stats_digest (Option.value ~default:0 p.w.abstract_digest);
  ]
  @ List.rev_map (fun m -> "mm: mismatch: " ^ m) p.w.first_bad
  @ match p.wf with Ok () -> [] | Error m -> [ "mm: total_wf: " ^ m ]

let per_layer ~u ~t =
  let w = t.w in
  let per_op x = float_of_int x /. float_of_int w.executed in
  let cpu_cycles = float_of_int (cpus * w.sim_wall) in
  let min_or_zero x = float_of_int (if x = max_int then 0 else x) in
  Harness.
    [
      metric "core.step.ns" "ns" (Tracer.mean_self_ns w.tr w.step_n);
      metric "core.step.words" "words" (Tracer.mean_self_words w.tr w.step_n);
      metric "core.step.us" "us" (Tracer.mean_self_ns w.tr w.step_n /. 1e3);
      metric "pm.borrows_per_op" "count" (per_op t.borrows);
      metric "sim.smp.ns" "ns" (Tracer.total_self_ns w.tr w.smp_n /. float_of_int w.executed);
      metric "sim.smp.lock_wait_pct" "%" (100. *. float_of_int w.sim_lock_wait /. cpu_cycles);
      metric "sim.smp.busy_pct" "%" (100. *. float_of_int w.sim_busy /. cpu_cycles);
      metric "pt.live_mappings" "count" (median w.live_samples);
      metric "hw.tlb.invlpgs_per_op" "count" (per_op t.invlpgs);
      metric "pmem.free_4k_min" "count" (min_or_zero w.free_4k_min);
      metric "pmem.free_2m_min" "count" (min_or_zero w.free_2m_min);
      metric "pmem.refused_2m" "count" (float_of_int w.refused_2m);
      metric "bench.trace_overhead_pct" "%"
        (100. *. (1. -. (median t.rates.per_ref_s /. median u.rates.per_ref_s)));
    ]

let identity ~u ~t =
  [
    ( "mm: traced = untraced (Smp stats, abstract-state digest)",
      u.w.stats_digest = t.w.stats_digest
      && u.w.abstract_digest <> None
      && u.w.abstract_digest = t.w.abstract_digest );
  ]
