(* Obligation discharge, the verifier half of the benchmark. *)

module Runner = Atmo_verif.Runner
module Catalog = Atmo_verif.Catalog
module Obligation = Atmo_verif.Obligation

(* Table 2's "Atmosphere (full)" row: the catalog at scale 3. *)
let scale = 3

(* The discharge runs on 2 domains: [nproc] on the reference machine and
   the CLI's auto default there. *)
let domains = 2

type t = { wall_s : float; results : Obligation.result list }

(* One discharge of [suite] on [domains] domains, on a settled heap, in
   host seconds.  It gives [verif.parallel_eff] but no bounded metric:
   its wall time cannot be calibrated.  Calibration runs between chunks
   of a parallel discharge read the cache and clock state both cores
   were left in, and spread wider than the discharge itself. *)
let parallel suite =
  Harness.settle ();
  let t0 = Harness.now_ns () in
  let report = Runner.run ~threads:domains suite in
  { wall_s = float_of_int (Harness.now_ns () - t0) *. 1e-9; results = report.Runner.results }

let failed results = List.filter (fun (r : Obligation.result) -> not r.Obligation.ok) results
let failures d = List.length (failed d.results)
let obligations d = List.length d.results

(* Total obligation time over wall time times domains. *)
let parallel_eff d =
  List.fold_left (fun acc (r : Obligation.result) -> acc +. r.Obligation.elapsed_s) 0. d.results
  /. (d.wall_s *. float_of_int domains)

let failure_notes results =
  List.map
    (fun (r : Obligation.result) ->
      Printf.sprintf "obligation %s failed: %s" r.Obligation.name
        (Option.value ~default:"" r.Obligation.detail))
    (failed results)

(* [passes] sequential discharges of [suite], each on a settled heap,
   one obligation at a time, each obligation a calibrated slice.
   Returns the median pass in reference and in host seconds, and every
   verdict. *)
let sequential ~passes suite =
  let runs =
    List.init passes (fun _ ->
        Harness.settle ();
        let m = Harness.meter () in
        let results = List.map (fun o -> Harness.slice m (fun () -> Obligation.discharge o)) suite in
        (results, m))
  in
  let median f = Harness.median (List.map (fun (_, m) -> f m) runs) in
  (median Harness.ref_s, median Harness.host_s, List.concat_map fst runs)

(* The state obligations bound to a workload's kernel
   ([Catalog.kernel_obligations]: every subsystem invariant of the state
   the workload left).  A pass takes milliseconds, so 25 run. *)
let state_obligations k = sequential ~passes:25 (Catalog.kernel_obligations k)
