(* Kernel states that break exactly one well-formedness property while
   keeping the accounting honest (the owning container is charged for
   what the plant maps), so the property's own check is what fires.
   Shared by the mutation tests, which check that [total_wf] and the
   named obligation catch each plant, and by the verifier tests, which
   check that both agree.  [expect_flagged] checks that the sanitizer's
   table-derived check files the same violation. *)

open Atmo_util
module Pte = Atmo_hw.Pte_bits
module Page_state = Atmo_pmem.Page_state
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Perm_map = Atmo_pm.Perm_map
module Proc_mgr = Atmo_pm.Proc_mgr
module Process = Atmo_pm.Process
module Container = Atmo_pm.Container
module Endpoint = Atmo_pm.Endpoint
module Thread = Atmo_pm.Thread
module Kernel = Atmo_core.Kernel
module Invariants = Atmo_core.Invariants
module Syscall = Atmo_spec.Syscall
module Report = Atmo_san.Report

(* The table and the sanitizer agree on a planted state: [total_wf]
   fails, and the table-derived check files [rule] at [page]. *)
let expect_flagged what k rule ~page =
  if Invariants.total_wf k = Ok () then Alcotest.failf "%s: total_wf holds" what;
  Report.clear ();
  ignore (Atmo_san.Runtime.wf_check k);
  let hit (r : Report.t) = r.Report.rule = rule && r.Report.page = page in
  if not (List.exists hit (Report.reports ())) then
    Alcotest.failf "%s: no %s report at page 0x%x in %a" what (Report.rule_name rule) page
      Report.pp_summary ()

(* Charge [container] with what it really uses. *)
let recharge k ~container =
  let pm = k.Kernel.pm in
  Perm_map.update pm.Proc_mgr.cntr_perms ~ptr:container (fun c ->
      { c with Container.used = Proc_mgr.used_by_container pm ~container })

let init_proc k ~init =
  Perm_map.borrow k.Kernel.pm.Proc_mgr.proc_perms
    ~ptr:(Option.get (Kernel.proc_of_thread k ~thread:init))

(* An endpoint whose owner container is dead: caught by pm/endpoints_wf. *)
let dead_owner_endpoint k =
  let edpt = k.Kernel.pm.Proc_mgr.edpt_perms in
  let ep = Iset.max_elt (Perm_map.dom edpt) in
  let owner = (Perm_map.borrow edpt ~ptr:ep).Endpoint.owner_container in
  Perm_map.update edpt ~ptr:ep (fun e -> { e with Endpoint.owner_container = 0xdead000 });
  recharge k ~container:owner

(* A 4 KiB entry naming a Free frame, placed next to init's mapping at
   0x5000_0000 (Catalog.build_world) so no table page is allocated:
   caught by kernel/mapped_consistent. *)
let free_frame_pte k ~init =
  let p = init_proc k ~init in
  let frame = Iset.max_elt (Page_alloc.free_pages_4k k.Kernel.alloc) in
  (match Page_table.map_4k p.Process.pt ~vaddr:0x5000_1000 ~frame ~perm:Pte.perm_rw with
   | Ok () -> ()
   | Error _ -> failwith "free_frame_pte: map_4k");
  recharge k ~container:p.Process.owner_container

(* A 2 MiB entry that starts inside the managed frames and runs past
   their top: on a 2064-frame machine, frame 0x800000 (index 2048) is a
   Mapped 4 KiB user frame with one mapping, so the mapped set and the
   reference counts agree, but the 2 MiB block ends at 0xa00000, past
   the top at 0x810000.  Caught by kernel/mapped_consistent. *)
let past_top_2m () =
  let k, init =
    match
      Kernel.boot
        { Kernel.frames = 2064; reserved_frames = 16; root_quota = 2000;
          cpus = Iset.of_range ~lo:0 ~hi:4 }
    with
    | Ok v -> v
    | Error _ -> failwith "past_top_2m: boot"
  in
  let alloc = k.Kernel.alloc in
  let rec claim others =
    match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User with
    | Some 0x800000 -> others
    | Some f -> claim (f :: others)
    | None -> failwith "past_top_2m: frame 0x800000 never allocated"
  in
  List.iter (fun f -> ignore (Page_alloc.dec_ref alloc ~addr:f)) (claim []);
  let p = init_proc k ~init in
  (match
     Page_table.map p.Process.pt ~size:Page_state.S2m ~vaddr:0x4000_0000 ~frame:0x800000
       ~perm:Pte.perm_rw
   with
   | Ok () -> ()
   | Error _ -> failwith "past_top_2m: map_2m");
  recharge k ~container:p.Process.owner_container;
  k

(* A 4 KiB leaf over the head of a 2 MiB block: init's superpage,
   re-entered in its page table as one 4 KiB entry next to its mapping
   at 0x5000_0000.  The mapped set and the reference count still agree;
   caught by kernel/mapped_consistent's block-size clause.  Returns the
   frame. *)
let resized_leaf k ~init =
  match
    Kernel.step k ~thread:init
      (Syscall.Mmap { va = 0x8000_0000; count = 1; size = Page_state.S2m; perm = Pte.perm_rw })
  with
  | Syscall.Rmapped [ frame ] ->
    let p = init_proc k ~init in
    (match Page_table.unmap p.Process.pt ~vaddr:0x8000_0000 with
     | Ok _ -> ()
     | Error _ -> failwith "resized_leaf: unmap");
    (match Page_table.map_4k p.Process.pt ~vaddr:0x5000_2000 ~frame ~perm:Pte.perm_rw with
     | Ok () -> ()
     | Error _ -> failwith "resized_leaf: map_4k");
    recharge k ~container:p.Process.owner_container;
    frame
  | _ -> failwith "resized_leaf: mmap"

(* A current thread that is not Running: on a second run queue, the
   world's helper thread, blocked sending on init's endpoint, is also
   made current on CPU 1.  Caught by pm/scheduler_wf.  Returns the
   thread. *)
let blocked_current k =
  let pm = k.Kernel.pm in
  let sending (_, (th : Thread.t)) =
    match th.Thread.state with Thread.Blocked_send _ -> true | _ -> false
  in
  let th =
    match List.find_opt sending (Perm_map.bindings pm.Proc_mgr.thrd_perms) with
    | Some (th, _) -> th
    | None -> failwith "blocked_current: no thread blocked sending"
  in
  Proc_mgr.set_sched_cpus pm 2;
  Proc_mgr.set_cpu pm 1;
  Proc_mgr.set_current pm (Some th);
  Proc_mgr.set_cpu pm 0;
  th
