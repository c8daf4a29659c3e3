(* Sanitizer overhead: atmo-san armed vs off.

   Same contract as the flight recorder: when disarmed the hooks are a
   single flag load, and when armed the shadow checks cost host time
   only — the simulated cycle model must not move.  A clean workload
   must also report zero violations. *)

open Common

let run () =
  section "Sanitizer: atmo-san overhead on vs off (host time; model cycles)";
  let workload () = smp_pingpong (Scenario.boot_pair ()) ~send_call:Scenario.send in
  (* arming and disarming reset the sanitizer's tallies, so each armed
     run adds its own *)
  let last = Array.make 2 None and checked = ref 0 and violations = ref 0 in
  let off () =
    Atmo_san.Runtime.disarm ();
    fun () -> last.(0) <- workload ()
  in
  let on () =
    Atmo_san.Runtime.arm ();
    fun () ->
      last.(1) <- workload ();
      checked := !checked + Atmo_san.Memsan.checked ();
      violations := !violations + Atmo_san.Report.count ()
  in
  let times = rotating [ off; on ] in
  let off_ms = List.nth times 0 and on_ms = List.nth times 1 in
  let checked = !checked and violations = !violations in
  Atmo_san.Runtime.disarm ();
  let overhead = overhead_pct off_ms on_ms in
  line "two-CPU IPC ping-pong; host ms per run, median [IQR] of %d rounds:" rounds;
  line "sanitizer off: %a" pp_timed off_ms;
  line "sanitizer on:  %a  (%d accesses checked, %d violations)" pp_timed on_ms checked
    violations;
  line "host-time overhead when armed: %.1f%% [IQR %.1f points]" (H.median overhead)
    (iqr overhead);
  let identical = pingpong_identity ~indent:"" last.(0) last.(1) in
  line "(checking must never move simulated time, and a clean run must stay clean)";
  write_bench_json "BENCH_san.json"
    ([ ("bench", J.Str "san_overhead"); ("timing_rounds", J.Num (float_of_int rounds)) ]
    @ timed "disarmed_ms" off_ms
    @ timed "armed_ms" on_ms
    @ timed "overhead_pct" overhead
    @ [
        ("accesses_checked", J.Num (float_of_int checked));
        ("violations", J.Num (float_of_int violations));
        ("cycle_identity", J.Bool identical);
      ])
