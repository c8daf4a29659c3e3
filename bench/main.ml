(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) and the artifact benches behind BENCH_*.json, one
   module each; this file only dispatches.  See EXPERIMENTS.md for the
   paper-vs-measured record.

   Usage: main.exe [table1|table2|table3|fig2|...|fig7|obs|san|tlb|ipc|
   span|slo|dev|verif|smp|report|all] *)

let benches =
  [
    ("table1", Paper.table1);
    ("table2", Paper.table2);
    ("table3", Paper.table3);
    ("fig2", Paper.fig2);
    ("fig3", Paper.fig3);
    ("fig4", Paper.fig4);
    ("fig5", Paper.fig5);
    ("fig6", Paper.fig6);
    ("fig7", Paper.fig7);
    ("obs", Obs.run);
    ("san", San.run);
    ("tlb", Tlb.run);
    ("ipc", Ipc.run);
    ("span", Span.run);
    ("slo", Slo.run);
    ("dev", Dev.run);
    ("verif", Verif.run);
    ("smp", Smp.run);
  ]

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "all" -> List.iter (fun (_, run) -> run ()) benches
  | "report" -> Report.run ()
  | which -> (
    match List.assoc_opt which benches with
    | Some run -> run ()
    | None ->
      Format.eprintf "unknown benchmark %S@." which;
      exit 1)
