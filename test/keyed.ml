(* Keyed checks against a cache-free evaluation, for the tests that
   plant a fault after a clean keyed check.  The page-table keys are
   forgotten ([Page_table.Backdoor.forget_check]); the allocator's kept
   state, the process-manager keys, the memory view and the kept α are
   set aside for the evaluation and put back after
   ([Backdoor.cache_free]). *)

open Atmo_util
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Perm_map = Atmo_pm.Perm_map
module Proc_mgr = Atmo_pm.Proc_mgr
module Process = Atmo_pm.Process
module Pm_invariants = Atmo_pm.Pm_invariants
module Kernel = Atmo_core.Kernel
module Invariants = Atmo_core.Invariants
module Abstraction = Atmo_core.Abstraction

(* Every page table of the kernel, named as the invariants name it. *)
let tables (k : Kernel.t) =
  Perm_map.fold
    (fun ptr (p : Process.t) acc -> (Printf.sprintf "process 0x%x" ptr, p.Process.pt) :: acc)
    k.Kernel.pm.Proc_mgr.proc_perms []
  @ Imap.fold
      (fun device (d : Kernel.device_info) acc ->
        (Printf.sprintf "device %d" device, d.Kernel.io_pt) :: acc)
      k.Kernel.devices []

(* [f] with every table key of [k] forgotten and nothing else read or
   kept. *)
let cache_free k f =
  List.iter (fun (_, pt) -> Page_table.Backdoor.forget_check pt) (tables k);
  Page_alloc.Backdoor.cache_free (fun () ->
      Pm_invariants.Backdoor.cache_free (fun () ->
          Invariants.Backdoor.cache_free (fun () -> Abstraction.Backdoor.cache_free f)))

let result = function Ok () -> "ok" | Error msg -> msg

let verdict name f = name ^ ": " ^ result (f ())

(* total_wf, and every obligation's and every table entry's verdict and
   message. *)
let verdicts k =
  verdict "total_wf" (fun () -> Invariants.total_wf k)
  :: List.map (fun (name, check) -> verdict name (fun () -> check k)) Invariants.obligations
  @ List.map
      (fun (e : Invariants.entry) ->
        verdict e.Pm_invariants.name (fun () -> Pm_invariants.check e k))
      Invariants.table

(* The keyed verdicts and α, checked twice so a kept verdict that was
   not clean shows on the second check, are the cache-free ones. *)
let check_agrees what k =
  let keyed = verdicts k in
  let again = verdicts k in
  let alpha = Abstraction.abstract k in
  let fresh, fresh_alpha = cache_free k (fun () -> (verdicts k, Abstraction.abstract k)) in
  Alcotest.(check (list string)) (what ^ ": keyed = cache-free") fresh keyed;
  Alcotest.(check (list string)) (what ^ ": keyed again = cache-free") fresh again;
  if not (Atmo_spec.Abstract_state.equal fresh_alpha alpha) then
    Alcotest.failf "%s: the kept α differs from a rebuilt one" what

(* A clean keyed check of everything, so the next check is keyed. *)
let warm what k =
  List.iter
    (fun v ->
      if not (String.ends_with ~suffix:": ok" v) then
        Alcotest.failf "%s: not clean before the plant: %s" what v)
    (verdicts k);
  ignore (Abstraction.abstract k)
