(* Mutation testing of the verification hierarchy: for each invariant,
   inject a corruption that a correct checker must catch — and check
   that the *intended* obligation is the one that fires.  This is the
   executable analogue of making sure the proof obligations are not
   vacuous. *)

open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
module Mmu = Atmo_hw.Mmu
module Pte = Atmo_hw.Pte_bits
module Page_state = Atmo_pmem.Page_state
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Pt_refine = Atmo_pt.Pt_refine
module Nros_pt = Atmo_pt.Nros_pt
module Perm_map = Atmo_pm.Perm_map
module Proc_mgr = Atmo_pm.Proc_mgr
module Container = Atmo_pm.Container
module Process = Atmo_pm.Process
module Thread = Atmo_pm.Thread
module Endpoint = Atmo_pm.Endpoint
module Pm_invariants = Atmo_pm.Pm_invariants
module Kernel = Atmo_core.Kernel
module Invariants = Atmo_core.Invariants
module Abstraction = Atmo_core.Abstraction
module Abstract_state = Atmo_spec.Abstract_state
module Syscall = Atmo_spec.Syscall
module Catalog = Atmo_verif.Catalog
module Obligation = Atmo_verif.Obligation

let checkb = Alcotest.(check bool)

let expect_fires what = function
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: corruption not detected" what

let expect_clean what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: unexpectedly dirty before mutation: %s" what msg

let world () =
  match Catalog.build_world ~scale:3 with
  | Ok (k, init) -> (k, init)
  | Error msg -> Alcotest.failf "world: %s" msg

let some_thread k =
  Iset.max_elt (Perm_map.dom k.Kernel.pm.Proc_mgr.thrd_perms)

let some_container k =
  Iset.max_elt (Perm_map.dom k.Kernel.pm.Proc_mgr.cntr_perms)

(* ------------------------------------------------------------------ *)
(* Page-table mutations: both the flat and the recursive checker must
   catch each one.                                                     *)

let pt_with_corruption corrupt =
  let pt = Catalog.build_pt ~mappings:64 in
  expect_clean "pt flat" (Pt_refine.all pt);
  expect_clean "pt recursive" (Nros_pt.all pt);
  corrupt pt;
  Pt_oracle.check_agrees "corrupted pt" pt;
  pt

let leaf_slot pt va =
  match Page_table.find_leaf pt ~vaddr:va with
  | Ok (table, index, _) -> Mmu.entry_addr ~table ~index
  | Error e -> Alcotest.failf "no leaf at 0x%x: %a" va Page_table.pp_error e

let test_pt_mutation_cleared_leaf () =
  let pt =
    pt_with_corruption (fun pt ->
        Phys_mem.write_u64 (Page_table.mem pt) ~addr:(leaf_slot pt 0x4000_0000)
          Pte.not_present)
  in
  expect_fires "flat refinement" (Pt_refine.refinement pt);
  expect_fires "recursive refinement" (Nros_pt.refinement pt)

let test_pt_mutation_redirected_leaf () =
  let pt =
    pt_with_corruption (fun pt ->
        Phys_mem.write_u64 (Page_table.mem pt) ~addr:(leaf_slot pt 0x4000_0000)
          (Pte.make ~addr:0x123000 ~perm:Pte.perm_rw ~huge:false))
  in
  expect_fires "flat refinement" (Pt_refine.refinement pt);
  expect_fires "recursive refinement" (Nros_pt.refinement pt)

let test_pt_mutation_perm_flip () =
  let pt =
    pt_with_corruption (fun pt ->
        let mem = Page_table.mem pt in
        let slot = leaf_slot pt 0x4000_0000 in
        let e = Phys_mem.read_u64 mem ~addr:slot in
        Phys_mem.write_u64 mem ~addr:slot
          (Pte.make ~addr:(Pte.addr_of e) ~perm:Pte.perm_ro ~huge:false))
  in
  expect_fires "flat refinement" (Pt_refine.refinement pt);
  expect_fires "recursive refinement" (Nros_pt.refinement pt)

let test_pt_mutation_table_cycle () =
  (* point an L2 slot back at the L3 table: the flat structure check
     sees a wrong-level reference; the hardware view also changes *)
  let pt =
    pt_with_corruption (fun pt ->
        let mem = Page_table.mem pt in
        let va = 0x4000_0000 in
        let read table index = Phys_mem.read_u64 mem ~addr:(Mmu.entry_addr ~table ~index) in
        let e4 = read (Page_table.cr3 pt) (Mmu.l4_index va) in
        let l3 = Pte.addr_of e4 in
        let e3 = read l3 (Mmu.l3_index va) in
        let l2 = Pte.addr_of e3 in
        Phys_mem.write_u64 mem
          ~addr:(Mmu.entry_addr ~table:l2 ~index:(Mmu.l2_index va))
          (Pte.make_table ~addr:l3))
  in
  expect_fires "flat structure" (Pt_refine.structure pt)

let test_pt_mutation_reserved_bits () =
  (* set a bit the kernel never programs (bit 9, "available") in a
     leaf: the hardware view is unchanged, only the structure clause
     sees it *)
  let pt =
    pt_with_corruption (fun pt ->
        let mem = Page_table.mem pt in
        let slot = leaf_slot pt 0x4000_0000 in
        Phys_mem.write_u64 mem ~addr:slot (Int64.logor (Phys_mem.read_u64 mem ~addr:slot) 0x200L))
  in
  expect_fires "flat structure" (Pt_refine.structure pt);
  expect_fires "recursive structure" (Nros_pt.structure pt)

let test_pt_mutation_l4_past_memory () =
  (* a raw store of 0x07 bytes into the L4 entry above init's mapping
     at 0x5000_0000: present, not huge, pointing far past the end of
     memory.  The walk faults there, so every checker reports a
     violation instead of raising. *)
  let k, init = world () in
  Keyed.warm "kernel" k;
  let pt = (Wf_plants.init_proc k ~init).Process.pt in
  Phys_mem.write_u64 (Page_table.mem pt)
    ~addr:(Mmu.entry_addr ~table:(Page_table.cr3 pt) ~index:(Mmu.l4_index 0x5000_0000))
    0x0707070707070707L;
  Keyed.check_agrees "L4 entry past memory" k;
  Pt_oracle.check_agrees "L4 entry past memory" pt;
  expect_fires "flat refinement" (Pt_refine.refinement pt);
  expect_fires "flat structure" (Pt_refine.structure pt);
  expect_fires "recursive refinement" (Nros_pt.refinement pt);
  expect_fires "recursive structure" (Nros_pt.structure pt);
  expect_fires "total_wf" (Invariants.total_wf k);
  Atmo_san.Report.clear ();
  checkb "the sanitizer files it" true (Atmo_san.Runtime.wf_check k > 0);
  Atmo_san.Report.clear ();
  (* the kernel's own walks fault there too: each call through the
     entry fails and changes nothing, its container's charge included *)
  let p = Wf_plants.init_proc k ~init in
  let container = p.Process.owner_container in
  let used () = (Perm_map.borrow k.Kernel.pm.Proc_mgr.cntr_perms ~ptr:container).Container.used in
  let alpha = Abstraction.abstract k and charged = used () in
  List.iter
    (fun call ->
      let what = Format.asprintf "%a" Syscall.pp call in
      (match Kernel.step k ~thread:init call with
       | Syscall.Rerr _ -> ()
       | ret -> Alcotest.failf "%s returned %a" what Syscall.pp_ret ret);
      checkb (what ^ " leaves the charge") true (used () = charged);
      checkb (what ^ " leaves the abstract state") true
        (Abstract_state.equal alpha (Abstraction.abstract k)))
    [
      Syscall.Mmap { va = 0x5000_2000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw };
      Syscall.Munmap { va = 0x5000_0000; count = 1; size = Page_state.S4k };
      Syscall.Mprotect { va = 0x5000_0000; perm = Pte.perm_ro };
    ];
  expect_fires "total_wf after the calls" (Invariants.total_wf k)

let test_pt_mutation_l4_past_memory_walk () =
  (* the same store under a warm TLB: the MMU's own walk faults there
     too, so the TLB lint files the cached translation as stale and a
     cold resolve faults, where each used to raise *)
  let k, init = world () in
  checkb "warm" true (Kernel.resolve_user k ~thread:init ~vaddr:0x5000_0000 <> None);
  let pt = (Wf_plants.init_proc k ~init).Process.pt in
  Phys_mem.write_u64 (Page_table.mem pt)
    ~addr:(Mmu.entry_addr ~table:(Page_table.cr3 pt) ~index:(Mmu.l4_index 0x5000_0000))
    0x0707070707070707L;
  expect_fires "total_wf" (Invariants.total_wf k);
  Atmo_san.Report.clear ();
  checkb "the TLB lint files it" true (Atmo_san.Tlb_lint.lint k > 0);
  ignore (Atmo_san.Runtime.full_check k);
  Atmo_san.Report.clear ();
  checkb "a cold resolve faults" true
    (Kernel.resolve_user k ~thread:init ~vaddr:0x5000_1000 = None)

let test_pt_mutation_ghost_drift () =
  (* the ghost map claims a mapping the hardware does not have *)
  let pt = Catalog.build_pt ~mappings:16 in
  (* unmap through the API, then re-add only to the ghost side by
     mapping and clearing the concrete slot *)
  (match Page_table.unmap pt ~vaddr:0x4000_0000 with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "unmap");
  expect_clean "after unmap" (Pt_refine.all pt);
  (match Page_table.map_4k pt ~vaddr:0x4000_0000 ~frame:0x7000 ~perm:Pte.perm_rw with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "remap");
  Phys_mem.write_u64 (Page_table.mem pt) ~addr:(leaf_slot pt 0x4000_0000) Pte.not_present;
  Pt_oracle.check_agrees "ghost drift" pt;
  expect_fires "flat refinement" (Pt_refine.refinement pt)

(* ------------------------------------------------------------------ *)
(* Allocator mutations                                                 *)

let test_alloc_mutation_double_state () =
  let mem = Phys_mem.create ~page_count:1024 in
  let a = Page_alloc.create mem ~reserved_frames:0 in
  let addr = Option.get (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel) in
  expect_clean "alloc" (Page_alloc.wf a);
  (* free it and also keep using it: push the same frame twice by
     freeing twice is guarded, so corrupt through a merge instead —
     mark an allocated frame as if merged into a bogus head *)
  ignore addr;
  checkb "double free guarded" true
    (try
       Page_alloc.free_kernel_page a ~addr;
       Page_alloc.free_kernel_page a ~addr;
       false
     with Invalid_argument _ -> true)

let test_alloc_wf_catches_list_state_mismatch () =
  let mem = Phys_mem.create ~page_count:512 in
  let a = Page_alloc.create mem ~reserved_frames:0 in
  (* allocate, then put the page back on the free list via the public
     API while leaving a stale copy mapped: simulate by allocating a
     user page and freeing it while still "mapped" is prevented, so we
     check the wf over a legal state instead, then a corrupted one via
     inc_ref/dec_ref imbalance being impossible *)
  let p = Option.get (Page_alloc.alloc_4k a ~purpose:Page_alloc.User) in
  checkb "dec to freed" true (Page_alloc.dec_ref a ~addr:p = `Freed);
  checkb "second dec guarded" true
    (try
       ignore (Page_alloc.dec_ref a ~addr:p);
       false
     with Invalid_argument _ -> true);
  expect_clean "still wf" (Page_alloc.wf a)

(* ------------------------------------------------------------------ *)
(* Process-manager mutations: each targeted invariant fires            *)

(* Each plant runs after a clean keyed check of everything, so the keyed
   checks that follow it must agree with a cache-free evaluation. *)
let mutate_and_expect name mutate check =
  let k, _ = world () in
  Keyed.warm name k;
  mutate k;
  expect_fires name (check k.Kernel.pm);
  Keyed.check_agrees name k

let test_pm_mutation_path () =
  mutate_and_expect "path"
    (fun k ->
      Perm_map.update k.Kernel.pm.Proc_mgr.cntr_perms ~ptr:(some_container k)
        (fun c -> { c with Container.path = [ 0xdead000 ] }))
    Pm_invariants.path_wf

let test_pm_mutation_subtree () =
  mutate_and_expect "subtree"
    (fun k ->
      Perm_map.update k.Kernel.pm.Proc_mgr.cntr_perms
        ~ptr:k.Kernel.pm.Proc_mgr.root_container (fun c ->
          { c with Container.subtree = Iset.remove (some_container k) c.Container.subtree }))
    Pm_invariants.subtree_wf

let test_pm_mutation_orphan_child () =
  mutate_and_expect "parent/child"
    (fun k ->
      Perm_map.update k.Kernel.pm.Proc_mgr.cntr_perms
        ~ptr:k.Kernel.pm.Proc_mgr.root_container (fun c ->
          match Atmo_pm.Static_list.remove c.Container.children ~eq:( = ) (some_container k) with
          | Ok children -> { c with Container.children }
          | Error `Absent -> c))
    Pm_invariants.parent_child_wf

let test_pm_mutation_thread_owner () =
  mutate_and_expect "process tree"
    (fun k ->
      Perm_map.update k.Kernel.pm.Proc_mgr.thrd_perms ~ptr:(some_thread k) (fun th ->
          { th with Thread.owner_proc = 0xbad000 }))
    Pm_invariants.process_tree_wf

(* The same plant, each check run on its own: [pm/quota_wf] counts
   the orphaned thread toward no container and reports the charge it no
   longer finds, and the sanitizer's table check files reports instead
   of raising. *)
let test_pm_mutation_thread_owner_alone () =
  let k, _ = world () in
  let th = some_thread k in
  let owner = (Perm_map.borrow k.Kernel.pm.Proc_mgr.thrd_perms ~ptr:th).Thread.owner_proc in
  let container = (Perm_map.borrow k.Kernel.pm.Proc_mgr.proc_perms ~ptr:owner).Process.owner_container in
  Perm_map.update k.Kernel.pm.Proc_mgr.thrd_perms ~ptr:th (fun th ->
      { th with Thread.owner_proc = 0xbad000 });
  let quota =
    List.find (fun (e : Invariants.entry) -> e.Pm_invariants.name = "pm/quota_wf") Invariants.table
  in
  (match Pm_invariants.check quota k with
   | Ok () -> Alcotest.fail "pm/quota_wf: the orphaned thread went unreported"
   | Error msg ->
     Alcotest.(check string) "pm/quota_wf"
       (Printf.sprintf "container 0x%x charges used=%d but owns %d pages" container
          (Perm_map.borrow k.Kernel.pm.Proc_mgr.cntr_perms ~ptr:container).Container.used
          (Proc_mgr.used_by_container k.Kernel.pm ~container))
       msg);
  Atmo_san.Report.clear ();
  checkb "the sanitizer files reports" true (Atmo_san.Runtime.wf_check k > 0);
  Atmo_san.Report.clear ()

let test_pm_mutation_runqueue () =
  mutate_and_expect "scheduler"
    (fun k -> Atmo_pm.Sched_queue.push_front (Proc_mgr.queue k.Kernel.pm ~cpu:0) 0xbad000)
    Pm_invariants.scheduler_wf

let test_pm_mutation_refcount () =
  let k, _ = world () in
  let edpt = k.Kernel.pm.Proc_mgr.edpt_perms in
  Keyed.warm "endpoints" k;
  Perm_map.iter
    (fun ep _ ->
      Perm_map.update edpt ~ptr:ep (fun e -> { e with Endpoint.refcount = e.Endpoint.refcount + 1 }))
    edpt;
  expect_fires "endpoints" (Pm_invariants.endpoints_wf k.Kernel.pm);
  Keyed.check_agrees "endpoints" k;
  Wf_plants.expect_flagged "endpoint refcount" k Atmo_san.Report.Ill_formed
    ~page:(Iset.min_elt (Perm_map.dom edpt))

let test_pm_mutation_quota () =
  mutate_and_expect "quota"
    (fun k ->
      Perm_map.update k.Kernel.pm.Proc_mgr.cntr_perms ~ptr:(some_container k)
        (fun c -> { c with Container.used = c.Container.used + 3 }))
    Pm_invariants.quota_wf

(* ------------------------------------------------------------------ *)
(* Kernel-wide mutations: safety / leak freedom                        *)

let test_kernel_mutation_leak () =
  let k, _ = world () in
  Keyed.warm "kernel" k;
  (* allocate a page that no object owns: a leak *)
  ignore (Page_alloc.alloc_4k k.Kernel.alloc ~purpose:Page_alloc.Kernel);
  expect_fires "leak freedom" (Invariants.leak_freedom k);
  Keyed.check_agrees "leak freedom" k

let test_kernel_mutation_type_confusion () =
  let k, _ = world () in
  Keyed.warm "kernel" k;
  (* register the same page as both a "thread" and an "endpoint":
     pairwise disjointness of closures must fire *)
  let th = some_thread k in
  Perm_map.alloc k.Kernel.pm.Proc_mgr.edpt_perms ~ptr:th
    (Endpoint.make ~owner_container:(some_container k));
  expect_fires "closures disjoint" (Invariants.closures_disjoint k);
  Keyed.check_agrees "closures disjoint" k

let test_kernel_mutation_mapped_drift () =
  let k, init = world () in
  (* map a page then corrupt the refcount by an extra inc *)
  (match Kernel.step k ~thread:init
           (Syscall.Mmap { va = 0x7770_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw })
   with
   | Syscall.Rmapped [ frame ] ->
     Keyed.warm "kernel" k;
     Page_alloc.inc_ref k.Kernel.alloc ~addr:frame;
     expect_fires "mapped consistency" (Invariants.mapped_consistent k);
     Keyed.check_agrees "mapped consistency" k
   | r -> Alcotest.failf "mmap: %a" Syscall.pp_ret r)

let test_kernel_mutation_device () =
  let k, init = world () in
  (match Kernel.step k ~thread:init (Syscall.Assign_device { device = 3 }) with
   | Syscall.Runit -> ()
   | r -> Alcotest.failf "assign: %a" Syscall.pp_ret r);
  Keyed.warm "kernel" k;
  Atmo_hw.Iommu.detach k.Kernel.iommu ~device:3;
  expect_fires "devices wf" (Invariants.devices_wf k);
  Keyed.check_agrees "devices wf" k

(* The plant breaks exactly the named kernel obligation, and [total_wf]
   reports that obligation's violation. *)
let expect_caught_by name k =
  let failed =
    List.filter_map
      (fun (o : Obligation.t) ->
        match o.Obligation.run () with
        | Ok () -> None
        | Error msg -> Some (o.Obligation.name, msg))
      (Catalog.kernel_obligations k)
  in
  match failed with
  | [ (n, msg) ] when n = name ->
    Alcotest.(check (result unit string)) "total_wf reports it" (Error msg)
      (Invariants.total_wf k)
  | _ ->
    Alcotest.failf "expected exactly %s to fail, got [%s]" name
      (String.concat "; " (List.map fst failed))

let test_kernel_mutation_dead_owner () =
  let k, _ = world () in
  Keyed.warm "kernel" k;
  Wf_plants.dead_owner_endpoint k;
  Keyed.check_agrees "dead owner" k;
  expect_caught_by "pm/endpoints_wf" k

let test_kernel_mutation_free_frame () =
  let k, init = world () in
  Keyed.warm "kernel" k;
  Wf_plants.free_frame_pte k ~init;
  Keyed.check_agrees "free frame" k;
  expect_caught_by "kernel/mapped_consistent" k

let test_kernel_mutation_past_top () =
  expect_caught_by "kernel/mapped_consistent" (Wf_plants.past_top_2m ())

let test_kernel_mutation_resized_leaf () =
  let k, init = world () in
  Keyed.warm "kernel" k;
  let frame = Wf_plants.resized_leaf k ~init in
  Keyed.check_agrees "resized leaf" k;
  expect_caught_by "kernel/mapped_consistent" k;
  Wf_plants.expect_flagged "resized leaf" k Atmo_san.Report.Pt_bad_leaf_state ~page:frame

let test_kernel_mutation_blocked_current () =
  let k, _ = world () in
  Keyed.warm "kernel" k;
  let th = Wf_plants.blocked_current k in
  Keyed.check_agrees "blocked current" k;
  expect_caught_by "pm/scheduler_wf" k;
  Wf_plants.expect_flagged "blocked current" k Atmo_san.Report.Sched_incoherent ~page:th

(* ------------------------------------------------------------------ *)
(* Sanitizer mutations: atmo-san must catch each planted bug with a
   typed report naming the rule and the faulting page or site.         *)

module San_runtime = Atmo_san.Runtime
module San_report = Atmo_san.Report
module Plants = Atmo_workloads.Plants
module Scenario = Atmo_workloads.Scenario

(* Every page table of the kernel: its processes' and its devices'. *)
let page_tables k =
  Perm_map.fold (fun _ (p : Process.t) pts -> p.Process.pt :: pts) k.Kernel.pm.Proc_mgr.proc_perms
    []
  @ Imap.fold (fun _ (d : Kernel.device_info) acc -> d.Kernel.io_pt :: acc) k.Kernel.devices []

(* One case per plant of the table, run by the driver its command runs:
   a report under the plant's rule must name its page or site, and a
   surgical plant must trip nothing else.  A report filed at a
   well-formedness table entry must agree with [total_wf].  Whatever
   the plant broke, the page-table checkers must agree with the
   per-entry oracle, and [total_wf] and the sanitizer's table check
   must return. *)
let test_plant (e : Plants.t) () =
  let k, verdict =
    match e.Plants.body with
    | Plants.After_workload _ -> (
      let r = Plants.san ~seed:42 ~iterations:50 (Some e) in
      match r.Plants.outcome with
      | Plants.Planted v -> (r.Plants.world.Scenario.kernel, v)
      | Plants.Clean | Plants.Unclean ->
        Alcotest.failf "%s: workload not clean: %a" e.Plants.name San_report.pp_summary ())
    | Plants.On_verifier _ -> (
      match Plants.verify ~scale:3 ~threads:1 e with
      | Ok v -> (v.Plants.kernel, v.Plants.verdict)
      | Error msg -> Alcotest.failf "world: %s" msg)
  in
  (match verdict with
   | Plants.Detected r ->
     let at_entry (w : Invariants.entry) = w.Pm_invariants.name = r.San_report.site in
     if List.exists at_entry Invariants.table then expect_fires "total_wf" (Invariants.total_wf k)
   | Plants.Collateral n ->
     Alcotest.failf "%s tripped %d unrelated report(s): %a" e.Plants.name n San_report.pp_summary ()
   | Plants.Missed -> Alcotest.failf "%s not detected: %a" e.Plants.name San_report.pp_summary ());
  List.iter (Pt_oracle.check_agrees e.Plants.name) (page_tables k);
  ignore (Invariants.total_wf k);
  ignore (San_runtime.wf_check k);
  San_report.clear ()

let with_san ?(lockcheck = false) f =
  San_runtime.arm ~poison:true ~lockcheck ();
  Fun.protect ~finally:(fun () -> San_runtime.disarm ()) f

let san_find rule =
  List.find_opt (fun r -> r.San_report.rule = rule) (San_report.reports ())

let test_san_use_after_free () =
  with_san (fun () ->
      let mem = Phys_mem.create ~page_count:256 in
      let a = Page_alloc.create mem ~reserved_frames:0 in
      let addr = Option.get (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel) in
      Phys_mem.write_u64 mem ~addr 0xdeadL;  (* live: fine *)
      checkb "live store clean" true (San_report.count () = 0);
      Page_alloc.free_kernel_page a ~addr;
      ignore (Phys_mem.read_u64 mem ~addr);  (* dangling load *)
      match san_find San_report.Use_after_free with
      | None -> Alcotest.fail "use-after-free not detected"
      | Some r -> Alcotest.(check int) "faulting page" addr r.San_report.page)

let test_san_unlocked_mutation () =
  (* the unlocked plant's call, made under the big lock the way harness
     code enters the kernel, is clean *)
  let k, init = world () in
  with_san ~lockcheck:true (fun () ->
      San_runtime.attach k;
      ignore
        (Scenario.locked k ~thread:init
           (Syscall.Mmap
              { va = 0x6000_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw }));
      checkb "locked step clean" true (San_report.count () = 0))

let test_san_observed_not_stale () =
  (* the stale-proof lint stays quiet when the tracker sees what the
     layer counts *)
  let module Incremental = Atmo_verif.Incremental in
  let k, init = world () in
  Incremental.arm ();
  Fun.protect
    ~finally:(fun () ->
      Incremental.disarm ();
      San_report.clear ())
    (fun () ->
      San_report.clear ();
      checkb "clean before" true (Atmo_san.Proof_lint.lint k = 0);
      ignore (Kernel.step k ~thread:init Syscall.Yield);
      checkb "observed mutation is not stale" true (Atmo_san.Proof_lint.lint k = 0))

let test_san_watchdog_silent () =
  (* the watchdog lint is quiet while both CPUs beat, and files a CPU
     that then goes silent once, however often it runs *)
  let module Sink = Atmo_obs.Sink in
  let module Span = Atmo_obs.Span in
  let module Monitor = Atmo_obs.Monitor in
  let k, _init = world () in
  Span.with_recorder ~cpus:2 ~slots:4096 (fun _ ->
      with_san (fun () ->
          let window = 2_000 in
          let m = Monitor.arm ~windows:16 ~window_cycles:window ~now:0 ~specs:[] () in
          Fun.protect ~finally:Monitor.disarm (fun () ->
              let vnow = ref 0 in
              let beat cpu =
                Sink.set_cpu cpu;
                let sid = Span.begin_ ~ts:!vnow Span.User in
                vnow := !vnow + 250;
                Span.end_ ~ts:!vnow sid
              in
              while !vnow < 6 * window do
                beat 0;
                beat 1
              done;
              checkb "clean while both cpus beat" true
                (Atmo_san.Watchdog_lint.lint k = 0 && San_report.count () = 0);
              while !vnow < 12 * window do
                beat 0
              done;
              Monitor.finish m ~now:!vnow;
              checkb "lint fires" true (Atmo_san.Watchdog_lint.lint k > 0);
              checkb "repeated lint does not double-report" true
                (Atmo_san.Watchdog_lint.lint k = 0))))

(* ------------------------------------------------------------------ *)
(* Spec mutations: a wrong return value must violate the spec          *)

let test_spec_catches_wrong_ret () =
  let k, init = world () in
  let pre = Atmo_core.Abstraction.abstract k in
  let ret =
    Kernel.step k ~thread:init
      (Syscall.Mmap { va = 0x7770_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw })
  in
  let post = Atmo_core.Abstraction.abstract k in
  (* the true transition passes *)
  (match Atmo_spec.Syscall_spec.check ~pre ~post ~thread:init
           (Syscall.Mmap { va = 0x7770_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw })
           ret
   with
   | Ok () -> ()
   | Error m -> Alcotest.failf "true transition rejected: %s" m);
  (* lying about the mapped frame fails the spec *)
  expect_fires "wrong frames"
    (Atmo_spec.Syscall_spec.check ~pre ~post ~thread:init
       (Syscall.Mmap { va = 0x7770_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw })
       (Syscall.Rmapped [ 0x123000 ]));
  (* claiming an error after a successful (state-changing) call fails
     the error-atomicity clause *)
  expect_fires "phantom error"
    (Atmo_spec.Syscall_spec.check ~pre ~post ~thread:init
       (Syscall.Mmap { va = 0x7770_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw })
       (Syscall.Rerr Errno.Enomem))

let test_spec_catches_hidden_effect () =
  let k, init = world () in
  let pre = Atmo_core.Abstraction.abstract k in
  let ret = Kernel.step k ~thread:init Syscall.Yield in
  (* secretly also bump a quota: the yield spec's frame condition fires *)
  Perm_map.update k.Kernel.pm.Proc_mgr.cntr_perms ~ptr:(some_container k) (fun c ->
      { c with Container.used = c.Container.used + 1 });
  let post = Atmo_core.Abstraction.abstract k in
  expect_fires "hidden effect"
    (Atmo_spec.Syscall_spec.check ~pre ~post ~thread:init Syscall.Yield ret)

let () =
  Alcotest.run "mutations"
    [
      ( "page_table",
        [
          Alcotest.test_case "cleared leaf" `Quick test_pt_mutation_cleared_leaf;
          Alcotest.test_case "redirected leaf" `Quick test_pt_mutation_redirected_leaf;
          Alcotest.test_case "perm flip" `Quick test_pt_mutation_perm_flip;
          Alcotest.test_case "table cycle" `Quick test_pt_mutation_table_cycle;
          Alcotest.test_case "reserved bits" `Quick test_pt_mutation_reserved_bits;
          Alcotest.test_case "ghost drift" `Quick test_pt_mutation_ghost_drift;
          Alcotest.test_case "L4 entry past memory" `Quick test_pt_mutation_l4_past_memory;
          Alcotest.test_case "L4 entry past memory under a warm TLB" `Quick
            test_pt_mutation_l4_past_memory_walk;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "double free guarded" `Quick test_alloc_mutation_double_state;
          Alcotest.test_case "refcount guarded" `Quick
            test_alloc_wf_catches_list_state_mismatch;
        ] );
      ( "process_manager",
        [
          Alcotest.test_case "path" `Quick test_pm_mutation_path;
          Alcotest.test_case "subtree" `Quick test_pm_mutation_subtree;
          Alcotest.test_case "orphan child" `Quick test_pm_mutation_orphan_child;
          Alcotest.test_case "thread owner" `Quick test_pm_mutation_thread_owner;
          Alcotest.test_case "thread owner, each check alone" `Quick
            test_pm_mutation_thread_owner_alone;
          Alcotest.test_case "run queue" `Quick test_pm_mutation_runqueue;
          Alcotest.test_case "refcount" `Quick test_pm_mutation_refcount;
          Alcotest.test_case "quota" `Quick test_pm_mutation_quota;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "leak" `Quick test_kernel_mutation_leak;
          Alcotest.test_case "type confusion" `Quick test_kernel_mutation_type_confusion;
          Alcotest.test_case "mapped drift" `Quick test_kernel_mutation_mapped_drift;
          Alcotest.test_case "device" `Quick test_kernel_mutation_device;
          Alcotest.test_case "endpoint of a dead container" `Quick
            test_kernel_mutation_dead_owner;
          Alcotest.test_case "pte naming a free frame" `Quick
            test_kernel_mutation_free_frame;
          Alcotest.test_case "2 MiB pte past the managed top" `Quick
            test_kernel_mutation_past_top;
          Alcotest.test_case "leaf over a block of another size" `Quick
            test_kernel_mutation_resized_leaf;
          Alcotest.test_case "current thread not running" `Quick
            test_kernel_mutation_blocked_current;
        ] );
      ( "sanitizer",
        List.map
          (fun (e : Plants.t) ->
            let name = String.map (function '-' -> ' ' | c -> c) e.Plants.name in
            Alcotest.test_case name `Quick (test_plant e))
          Plants.table
        @ [
            Alcotest.test_case "use after free" `Quick test_san_use_after_free;
            Alcotest.test_case "unlocked mutation" `Quick test_san_unlocked_mutation;
            Alcotest.test_case "observed mutation is not stale" `Quick test_san_observed_not_stale;
            Alcotest.test_case "watchdog silent cpu" `Quick test_san_watchdog_silent;
          ] );
      ( "spec",
        [
          Alcotest.test_case "wrong return" `Quick test_spec_catches_wrong_ret;
          Alcotest.test_case "hidden effect" `Quick test_spec_catches_hidden_effect;
        ] );
    ]
