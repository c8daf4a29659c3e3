(* verif: incremental dirty-set re-check vs full discharge. *)

open Common
module Runner = Atmo_verif.Runner
module Obligation = Atmo_verif.Obligation
module Incremental = Atmo_verif.Incremental

let verdicts (r : Runner.report) =
  List.map
    (fun (x : Obligation.result) -> (x.Obligation.name, x.Obligation.ok, x.Obligation.detail))
    r.Runner.results

let run () =
  section "Incremental verification: dirty-set re-check vs full discharge";
  line "(arm the dirty tracker and discharge the full suite once; then, each";
  line " round, time a full discharge, and apply one syscall and time the";
  line " re-discharge: only obligations whose read set intersects the";
  line " transition's dirty set may run; verdicts must be bit-identical to an";
  line " oracle full re-check)";
  line "";
  match Atmo_verif.Catalog.build_world ~scale:3 with
  | Error msg ->
    line "world failed to build: %s" msg;
    exit 1
  | Ok (k, init) ->
    let suite = Atmo_verif.Catalog.suite_for ~scale:3 k in
    let n = List.length suite in
    Incremental.arm ();
    Fun.protect ~finally:Incremental.disarm (fun () ->
        let first = Incremental.run ~threads:1 suite in
        let full = ref first and inc = ref first and dirty = ref [] in
        (* a plain discharge runs under the armed tracker's suspension,
           so its scratch worlds dirty nothing the next re-check would
           have to redo *)
        let full_config () () = full := Runner.run ~threads:1 suite in
        (* each round's transition: the running thread yields *)
        let inc_config () =
          let running =
            match Atmo_pm.Proc_mgr.currents_list k.Kernel.pm with
            | Some t :: _ -> t
            | _ -> init
          in
          ignore (Kernel.step k ~thread:running Syscall.Yield);
          dirty := Incremental.dirty_ids ();
          fun () -> inc := Incremental.run ~threads:1 suite
        in
        let times = rotating [ full_config; inc_config ] in
        let full_ms = List.nth times 0 and inc_ms = List.nth times 1 in
        let speedup = List.map2 (fun f i -> f /. Float.max 1e-9 i) full_ms inc_ms in
        let r_inc = !inc in
        line "host ms, median [IQR] of %d rounds:" rounds;
        line "full discharge:        %4d obligations  %a ms  %s" n pp_timed full_ms
          (if Runner.all_ok !full then "ok" else "FAIL");
        line "transition: yield      dirty = {%s}" (String.concat "; " !dirty);
        line "incremental re-check:  %4d obligations  %a ms  re-checked %d, reused %d" n
          pp_timed inc_ms r_inc.Runner.rechecked r_inc.Runner.reused;
        (* oracle: a full re-discharge of the same state must agree on
           every (name, verdict, detail) triple *)
        let r_oracle = Runner.run ~threads:1 suite in
        let identical = verdicts r_inc = verdicts r_oracle in
        let fraction = float_of_int r_inc.Runner.rechecked /. float_of_int (max 1 n) in
        line "verdicts vs oracle full re-check: %s"
          (if identical then "bit-identical" else "DIVERGED");
        line "re-check fraction: %.1f%% (budget 20%%)   speedup: %.1fx [IQR %.1f] (floor 5x)"
          (100. *. fraction) (H.median speedup) (iqr speedup);
        write_bench_json "BENCH_verif.json"
          ([
             ("bench", J.Str "incremental_verif");
             ("obligations", J.Num (float_of_int n));
             ("timing_rounds", J.Num (float_of_int rounds));
           ]
          @ timed "full_ms" full_ms
          @ timed "incremental_ms" inc_ms
          @ timed "speedup" speedup
          @ [
              ("rechecked", J.Num (float_of_int r_inc.Runner.rechecked));
              ("reused", J.Num (float_of_int r_inc.Runner.reused));
              ("recheck_fraction", J.Num fraction);
              ("recheck_within_budget", J.Bool (fraction <= 0.20));
              ("verdicts_identical", J.Bool identical);
              ("all_ok", J.Bool (Runner.all_ok r_inc && Runner.all_ok r_oracle));
            ]))
