(* Bridge from the online monitor's watchdog to the sanitizer's typed
   reports.

   Of the four watchdog rules, cpu-silent is the one that shadows a
   verified property: the scheduler's liveness contract (a runnable
   CPU keeps scheduling).  Lock spikes, run-queue growth, and ring
   drops are overload signals — real operational findings, but not
   violations of anything the paper proves — so they surface through
   `atmo monitor`, not here.

   Stateless with respect to the kernel: the lint reads the active
   monitor's accumulated findings, files one [Watchdog_silent] report
   per stalled CPU, and remembers what it filed so the repeated
   [full_check] calls of a SAN=1 suite don't double-report. *)

module Monitor = Atmo_obs.Monitor
module Watchdog = Atmo_obs.Watchdog

let filed : (int * int * int, unit) Hashtbl.t = Hashtbl.create 8

(* The monitor [filed] belongs to: a finding of a later monitor is new
   even when its key repeats one of an earlier monitor's. *)
let filed_for : Monitor.t option ref = ref None

let reset () =
  Hashtbl.reset filed;
  filed_for := None

let lint (_k : Atmo_core.Kernel.t) =
  match Monitor.active () with
  | None ->
    reset ();
    0
  | Some m ->
    (match !filed_for with
     | Some prev when prev == m -> ()
     | _ ->
       reset ();
       filed_for := Some m);
    let n = ref 0 in
    List.iter
      (fun (r : Watchdog.report) ->
        match r.Watchdog.wrule with
        | Watchdog.Cpu_silent cpu ->
          let key = Watchdog.report_key r in
          if not (Hashtbl.mem filed key) then begin
            Hashtbl.replace filed key ();
            incr n;
            Report.record Report.Watchdog_silent
              ~site:(Printf.sprintf "watchdog.cpu%d" cpu)
              ~page:(-1) ~detail:r.Watchdog.detail
          end
        | Watchdog.Lock_spike | Watchdog.Runq_growth | Watchdog.Ring_drop -> ())
      (Monitor.findings m);
    !n
