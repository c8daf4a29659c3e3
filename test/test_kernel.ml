(* Kernel integration: boot, all system calls, total_wf after every
   transition, atomic failure, leak freedom at teardown. *)

open Atmo_util
module Syscall = Atmo_spec.Syscall
module Kernel = Atmo_core.Kernel
module Invariants = Atmo_core.Invariants
module Abstraction = Atmo_core.Abstraction
module A = Atmo_spec.Abstract_state
module Message = Atmo_pm.Message
module Thread = Atmo_pm.Thread
module Page_state = Atmo_pmem.Page_state
module Pte = Atmo_hw.Pte_bits
module Perm_map = Atmo_pm.Perm_map
module Proc_mgr = Atmo_pm.Proc_mgr

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let expect_wf k =
  match Invariants.total_wf k with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "total_wf broken: %s" msg

let boot () =
  match Kernel.boot Kernel.default_boot with
  | Ok (k, init) -> (k, init)
  | Error e -> Alcotest.failf "boot failed: %a" Errno.pp e

let step = Kernel.step

let ptr what = function
  | Syscall.Rptr p -> p
  | r -> Alcotest.failf "%s: expected pointer, got %a" what Syscall.pp_ret r

let ok what = function
  | Syscall.Runit -> ()
  | r -> Alcotest.failf "%s: expected unit, got %a" what Syscall.pp_ret r

let expect_err what e = function
  | Syscall.Rerr got when Errno.equal got e -> ()
  | r -> Alcotest.failf "%s: expected %a, got %a" what Errno.pp e Syscall.pp_ret r

let va0 = 0x4000_0000

let mmap ?(count = 1) ?(size = Page_state.S4k) ?(va = va0) k th =
  step k ~thread:th (Syscall.Mmap { va; count; size; perm = Pte.perm_rw })

(* ------------------------------------------------------------------ *)

let test_boot_loader () =
  (* boot from a firmware memory map, as the trusted boot stage does *)
  let map = Atmo_hw.E820.typical_pc ~total_mib:64 in
  match Atmo_core.Boot_loader.boot map ~kernel_image_frames:64 ~cpus:(Iset.of_range ~lo:0 ~hi:4) with
  | Ok (k, init) ->
    checkb "init alive" true (Kernel.thread_alive k ~thread:init);
    expect_wf k;
    (* the derived quota is honored end to end: a huge mmap is refused
       by quota, not by a crash *)
    (match step k ~thread:init
             (Syscall.Mmap { va = va0; count = 512; size = Page_state.S2m; perm = Pte.perm_rw })
     with
     | Syscall.Rerr (Errno.Equota | Errno.Enomem) -> ()
     | r -> Alcotest.failf "expected quota refusal, got %a" Syscall.pp_ret r)
  | Error msg -> Alcotest.failf "boot loader: %s" msg

let test_boot_loader_rejects_tiny_map () =
  let tiny = [ { Atmo_hw.E820.base = 0; len = 64 * 4096; kind = Atmo_hw.E820.Usable } ] in
  checkb "too small" true
    (Result.is_error
       (Atmo_core.Boot_loader.plan tiny ~kernel_image_frames:60
          ~cpus:(Iset.singleton 0)))

let test_boot_wf () =
  let k, init = boot () in
  checkb "init thread alive" true (Kernel.thread_alive k ~thread:init);
  checkb "init is current" true (Proc_mgr.current k.Kernel.pm = Some init);
  expect_wf k

let test_mmap_munmap () =
  let k, init = boot () in
  (match mmap ~count:4 k init with
   | Syscall.Rmapped frames ->
     checki "four frames" 4 (List.length frames);
     checkb "resolves" true (Kernel.resolve_user k ~thread:init ~vaddr:(va0 + 5) <> None)
   | r -> Alcotest.failf "mmap: %a" Syscall.pp_ret r);
  expect_wf k;
  ok "munmap"
    (step k ~thread:init (Syscall.Munmap { va = va0; count = 4; size = Page_state.S4k }));
  checkb "faults after" true (Kernel.resolve_user k ~thread:init ~vaddr:va0 = None);
  expect_wf k

let test_mmap_2m () =
  let k, init = boot () in
  (match mmap ~size:Page_state.S2m ~va:0x4000_0000 k init with
   | Syscall.Rmapped [ frame ] ->
     checkb "2m aligned frame" true (frame mod (512 * 4096) = 0)
   | r -> Alcotest.failf "mmap 2m: %a" Syscall.pp_ret r);
  expect_wf k

let test_mmap_rejects_bad_args () =
  let k, init = boot () in
  expect_err "unaligned" Errno.Einval
    (step k ~thread:init
       (Syscall.Mmap { va = va0 + 1; count = 1; size = Page_state.S4k; perm = Pte.perm_rw }));
  expect_err "zero count" Errno.Einval
    (step k ~thread:init
       (Syscall.Mmap { va = va0; count = 0; size = Page_state.S4k; perm = Pte.perm_rw }));
  expect_err "non-canonical" Errno.Einval
    (step k ~thread:init
       (Syscall.Mmap { va = 1 lsl 50; count = 1; size = Page_state.S4k; perm = Pte.perm_rw }));
  ignore (mmap k init);
  expect_err "overlap" Errno.Eexist (mmap k init);
  expect_err "dead thread" Errno.Esrch (mmap k 0xdead000);
  expect_wf k

let test_mmap_failure_is_atomic () =
  (* exhaust quota so a multi-page mmap fails after partial progress
     would have happened; the abstract state must be untouched *)
  let k, init = boot () in
  let before = Abstraction.abstract k in
  expect_err "too big for quota" Errno.Equota
    (step k ~thread:init
       (Syscall.Mmap { va = va0; count = 512; size = Page_state.S2m; perm = Pte.perm_rw }));
  checkb "state unchanged" true (A.equal before (Abstraction.abstract k));
  expect_wf k

(* A failing mmap must leave Ψ — the allocator's free sets included —
   as it found it: checked as a refinement step, whose [error_atomic]
   clause compares the whole abstract state, and once more directly. *)
let expect_atomic_err e k ~thread call =
  let before = Abstraction.abstract k in
  let r = Atmo_verif.Refine_harness.step_checked k ~thread call in
  (match r.Atmo_verif.Refine_harness.ret with
   | Syscall.Rerr got when Errno.equal got e -> ()
   | ret -> Alcotest.failf "expected %a, got %a" Errno.pp e Syscall.pp_ret ret);
  (match r.Atmo_verif.Refine_harness.spec with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "spec: %s" msg);
  (match r.Atmo_verif.Refine_harness.wf with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "wf: %s" msg);
  checkb "Ψ unchanged" true (A.equal before (Abstraction.abstract k))

let expect_atomic_enomem = expect_atomic_err Errno.Enomem

let test_mmap_overlap_refused () =
  (* the overlap check answers with one lookup: a request inside a
     superpage and a superpage over a single page are both refused
     before anything is charged or allocated *)
  let k, init = boot () in
  let big = 1 lsl 39 in
  (match mmap ~size:Page_state.S2m ~va:big k init with
   | Syscall.Rmapped [ _ ] -> ()
   | r -> Alcotest.failf "mmap 2m: %a" Syscall.pp_ret r);
  (match mmap ~va:(va0 + (5 * 4096)) k init with
   | Syscall.Rmapped [ _ ] -> ()
   | r -> Alcotest.failf "mmap 4k: %a" Syscall.pp_ret r);
  expect_atomic_err Errno.Eexist k ~thread:init
    (Syscall.Mmap
       { va = big + (17 * 4096); count = 1; size = Page_state.S4k; perm = Pte.perm_rw });
  expect_atomic_err Errno.Eexist k ~thread:init
    (Syscall.Mmap { va = va0; count = 1; size = Page_state.S2m; perm = Pte.perm_rw })

let test_mmap_2m_failure_undoes_merge () =
  (* 2048 frames: pin one frame in every 2 MiB group but the last, so a
     two-block mmap merges the free group for its first block and then
     finds no second one *)
  let k, init =
    match
      Kernel.boot
        { Kernel.frames = 2048; reserved_frames = 16; root_quota = 2000; cpus = Iset.singleton 0 }
    with
    | Ok v -> v
    | Error e -> Alcotest.failf "boot: %a" Errno.pp e
  in
  let group = Page_state.bytes_per Page_state.S2m in
  (* map 4 KiB pages until one lands in group 2, then unmap all but the
     first page of groups 1 and 2 (group 0 holds the boot objects) *)
  let rec fill i acc =
    let va = va0 + (i * 4096) in
    match step k ~thread:init (Syscall.Mmap { va; count = 1; size = Page_state.S4k; perm = Pte.perm_rw }) with
    | Syscall.Rmapped [ frame ] ->
      let acc = (frame / group, va) :: acc in
      if frame / group >= 2 then List.rev acc else fill (i + 1) acc
    | r -> Alcotest.failf "pinning mmap: %a" Syscall.pp_ret r
  in
  let pages = fill 0 [] in
  let pin g = List.assoc g pages in
  List.iter
    (fun (_, va) ->
      if va <> pin 1 && va <> pin 2 then
        ok "unpin" (step k ~thread:init (Syscall.Munmap { va; count = 1; size = Page_state.S4k })))
    pages;
  checki "no free 2m block yet" 0 (Atmo_pmem.Page_alloc.free_count_2m k.Kernel.alloc);
  expect_atomic_enomem k ~thread:init
    (Syscall.Mmap { va = 1 lsl 39; count = 2; size = Page_state.S2m; perm = Pte.perm_rw });
  checki "the merged group went back to 4k frames" 0
    (Atmo_pmem.Page_alloc.free_count_2m k.Kernel.alloc);
  (* one block still fits, through the same merge *)
  match
    step k ~thread:init
      (Syscall.Mmap { va = 1 lsl 39; count = 1; size = Page_state.S2m; perm = Pte.perm_rw })
  with
  | Syscall.Rmapped [ frame ] -> checki "the last group" 3 (frame / group)
  | r -> Alcotest.failf "single 2m mmap: %a" Syscall.pp_ret r

let test_mmap_1g_failure_merges_nothing () =
  (* 300000 frames hold no aligned gigabyte above the reserved frames:
     the promotion must fail before merging any 2 MiB group *)
  let k, init =
    match
      Kernel.boot
        { Kernel.frames = 300_000; reserved_frames = 16; root_quota = 290_000; cpus = Iset.singleton 0 }
    with
    | Ok v -> v
    | Error e -> Alcotest.failf "boot: %a" Errno.pp e
  in
  let events = Mutation.count "pmem/alloc" in
  expect_atomic_enomem k ~thread:init
    (Syscall.Mmap { va = 1 lsl 39; count = 1; size = Page_state.S1g; perm = Pte.perm_rw });
  checki "no 2m block formed" 0 (Atmo_pmem.Page_alloc.free_count_2m k.Kernel.alloc);
  checki "no page-state change, so no allocator event" events
    (Mutation.count "pmem/alloc")

let test_mmap_4k_split_is_refinement () =
  (* a 4 KiB mmap that finds the 4 KiB list empty splits a free 2 MiB
     block inside the call: the frames it maps were free, though only
     the block's head is a member of Ψ's free sets *)
  let k, init =
    match
      Kernel.boot
        { Kernel.frames = 2048; reserved_frames = 16; root_quota = 2000; cpus = Iset.singleton 0 }
    with
    | Ok v -> v
    | Error e -> Alcotest.failf "boot: %a" Errno.pp e
  in
  let alloc = k.Kernel.alloc in
  let big = 1 lsl 39 in
  let mapped what = function
    | Syscall.Rmapped _ -> ()
    | r -> Alcotest.failf "%s: %a" what Syscall.pp_ret r
  in
  mapped "map 2m" (mmap ~size:Page_state.S2m ~va:big k init);
  ok "unmap 2m" (step k ~thread:init (Syscall.Munmap { va = big; count = 1; size = Page_state.S2m }));
  checki "one free 2m block" 1 (Atmo_pmem.Page_alloc.free_count_2m alloc);
  let rec drain i =
    if Atmo_pmem.Page_alloc.free_count_4k alloc > 0 then begin
      mapped "drain" (mmap ~va:(va0 + (i * 4096)) k init);
      drain (i + 1)
    end
  in
  drain 0;
  checki "the 2m block is still whole" 1 (Atmo_pmem.Page_alloc.free_count_2m alloc);
  let r =
    Atmo_verif.Refine_harness.step_checked k ~thread:init
      (Syscall.Mmap { va = big; count = 2; size = Page_state.S4k; perm = Pte.perm_rw })
  in
  (match r.Atmo_verif.Refine_harness.ret with
   | Syscall.Rmapped [ _; _ ] -> ()
   | ret -> Alcotest.failf "expected two frames, got %a" Syscall.pp_ret ret);
  checki "the block was split" 0 (Atmo_pmem.Page_alloc.free_count_2m alloc);
  (match r.Atmo_verif.Refine_harness.spec with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "spec: %s" msg);
  match r.Atmo_verif.Refine_harness.wf with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "wf: %s" msg

let test_mmap_4k_quota_boundary () =
  (* Quotas are delegated, never overcommitted (root quota <= managed
     frames, available = quota - used - delegated) and sys_mmap charges
     every frame it will allocate, table pages included, before it
     allocates any.  So a 4 KiB mmap that passes the charge cannot run
     out of frames: here the charge admits exactly the one free 2 MiB
     block, and the call one page larger is refused before it splits
     anything. *)
  let k, init =
    match
      Kernel.boot
        { Kernel.frames = 2048; reserved_frames = 16; root_quota = 2032; cpus = Iset.singleton 0 }
    with
    | Ok v -> v
    | Error e -> Alcotest.failf "boot: %a" Errno.pp e
  in
  let alloc = k.Kernel.alloc in
  let big = 1 lsl 39 in
  let mapped what = function
    | Syscall.Rmapped _ -> ()
    | r -> Alcotest.failf "%s: %a" what Syscall.pp_ret r
  in
  mapped "map 2m" (mmap ~size:Page_state.S2m ~va:big k init);
  ok "unmap 2m" (step k ~thread:init (Syscall.Munmap { va = big; count = 1; size = Page_state.S2m }));
  let rec drain i =
    if Atmo_pmem.Page_alloc.free_count_4k alloc > 0 then begin
      mapped "drain" (mmap ~va:(va0 + (i * 4096)) k init);
      drain (i + 1)
    end
  in
  drain 0;
  checki "one free 2m block" 1 (Atmo_pmem.Page_alloc.free_count_2m alloc);
  let root = Perm_map.borrow k.Kernel.pm.Proc_mgr.cntr_perms ~ptr:k.Kernel.pm.Proc_mgr.root_container in
  checki "the quota left is exactly the free block" 512 (Atmo_pm.Container.available root);
  (* a fresh 512 GiB region: 3 table pages on top of the mapped pages *)
  let region = 2 lsl 39 in
  expect_atomic_err Errno.Equota k ~thread:init
    (Syscall.Mmap { va = region; count = 510; size = Page_state.S4k; perm = Pte.perm_rw });
  checki "refused before splitting" 1 (Atmo_pmem.Page_alloc.free_count_2m alloc);
  let r =
    Atmo_verif.Refine_harness.step_checked k ~thread:init
      (Syscall.Mmap { va = region; count = 509; size = Page_state.S4k; perm = Pte.perm_rw })
  in
  (match r.Atmo_verif.Refine_harness.ret with
   | Syscall.Rmapped frames -> checki "509 frames" 509 (List.length frames)
   | ret -> Alcotest.failf "expected 509 frames, got %a" Syscall.pp_ret ret);
  (match r.Atmo_verif.Refine_harness.spec with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "spec: %s" msg);
  (match r.Atmo_verif.Refine_harness.wf with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "wf: %s" msg);
  checki "the block was split" 0 (Atmo_pmem.Page_alloc.free_count_2m alloc);
  checki "and used up" 0 (Atmo_pmem.Page_alloc.free_count_4k alloc)

(* The page grant and io_map reach the page table through the charged
   mapping sys_mmap uses.  A small machine with device 3 assigned, the
   page at va0 mapped and a receiver parked in a second process whose
   address space is empty, filled with 4 KiB pages until the charge
   refuses one, then one page given back: the container can pay for
   the shared frame or the three new table pages a call needs, not
   both.  Memory then holds fewer free frames than three. *)
let shared_page_world () =
  let k, init =
    match
      Kernel.boot
        { Kernel.frames = 2048; reserved_frames = 16; root_quota = 2032; cpus = Iset.singleton 0 }
    with
    | Ok v -> v
    | Error e -> Alcotest.failf "boot: %a" Errno.pp e
  in
  let pm = k.Kernel.pm in
  (match mmap k init with
   | Syscall.Rmapped [ _ ] -> ()
   | r -> Alcotest.failf "mmap: %a" Syscall.pp_ret r);
  ok "assign" (step k ~thread:init (Syscall.Assign_device { device = 3 }));
  let p2 = ptr "p2" (step k ~thread:init Syscall.New_process) in
  let t2 =
    match Proc_mgr.new_thread pm ~proc:p2 with
    | Ok t -> t
    | Error e -> Alcotest.failf "t2: %a" Errno.pp e
  in
  let ep = ptr "ep" (step k ~thread:init (Syscall.New_endpoint { slot = 0 })) in
  Proc_mgr.install_descriptor pm ~thread:t2 ~slot:0 ~endpoint:ep;
  (match step k ~thread:t2 (Syscall.Recv { slot = 0 }) with
   | Syscall.Rblocked -> ()
   | r -> Alcotest.failf "recv should block: %a" Syscall.pp_ret r);
  let fill = 1 lsl 39 in
  let rec go i =
    match mmap ~va:(fill + (i * 4096)) k init with
    | Syscall.Rmapped _ -> go (i + 1)
    | Syscall.Rerr Errno.Equota -> i
    | r -> Alcotest.failf "filling mmap: %a" Syscall.pp_ret r
  in
  let last = fill + ((go 0 - 1) * 4096) in
  ok "give one back"
    (step k ~thread:init (Syscall.Munmap { va = last; count = 1; size = Page_state.S4k }));
  let alloc = k.Kernel.alloc in
  let free =
    Atmo_pmem.Page_alloc.free_count_4k alloc + (512 * Atmo_pmem.Page_alloc.free_count_2m alloc)
  in
  checkb "room for one or two table pages" true (free >= 1 && free < 3);
  (k, init)

(* Let the root container promise more frames than memory holds, so a
   charge passes where the allocator runs dry. *)
let overcommit k =
  Perm_map.update k.Kernel.pm.Proc_mgr.cntr_perms ~ptr:k.Kernel.pm.Proc_mgr.root_container
    (fun c -> { c with Atmo_pm.Container.quota = c.Atmo_pm.Container.quota + 8 })

let test_io_map_failure_is_atomic () =
  let k, init = shared_page_world () in
  let external_charge () =
    Proc_mgr.external_of k.Kernel.pm ~container:k.Kernel.pm.Proc_mgr.root_container
  in
  let charged = external_charge () in
  let io_map = Syscall.Io_map { device = 3; iova = 0x9000_0000; va = va0 } in
  expect_atomic_err Errno.Equota k ~thread:init io_map;
  checki "external charge after EQUOTA" charged (external_charge ());
  overcommit k;
  expect_atomic_err Errno.Enomem k ~thread:init io_map;
  checki "external charge after ENOMEM" charged (external_charge ())

let test_ipc_page_grant_failure_is_atomic () =
  let k, init = shared_page_world () in
  let grant =
    Syscall.Send
      {
        slot = 0;
        msg =
          {
            Message.scalars = [ 42 ];
            page = Some { Message.src_vaddr = va0; dst_vaddr = 0x5000_0000 };
            endpoint = None;
          };
      }
  in
  expect_atomic_err Errno.Equota k ~thread:init grant;
  overcommit k;
  expect_atomic_err Errno.Enomem k ~thread:init grant

(* mprotect and io_unmap name a mapping by its base: an address inside
   a 4 KiB page is refused, as one inside a superpage always was. *)
let test_unmap_and_mprotect_need_the_base () =
  let k, init = boot () in
  ignore (mmap k init);
  ok "assign" (step k ~thread:init (Syscall.Assign_device { device = 3 }));
  ok "io_map" (step k ~thread:init (Syscall.Io_map { device = 3; iova = 0x9000_0000; va = va0 }));
  expect_atomic_err Errno.Einval k ~thread:init
    (Syscall.Mprotect { va = va0 + 1; perm = Pte.perm_ro });
  expect_atomic_err Errno.Einval k ~thread:init
    (Syscall.Io_unmap { device = 3; iova = 0x9000_0008 })

let test_mprotect () =
  let k, init = boot () in
  ignore (mmap k init);
  ok "mprotect" (step k ~thread:init (Syscall.Mprotect { va = va0; perm = Pte.perm_ro }));
  (match Kernel.resolve_user k ~thread:init ~vaddr:va0 with
   | Some tr -> checkb "now ro" false tr.Atmo_hw.Mmu.perm.Pte.write
   | None -> Alcotest.fail "fault");
  expect_err "unmapped" Errno.Einval
    (step k ~thread:init (Syscall.Mprotect { va = va0 + 4096; perm = Pte.perm_ro }));
  expect_wf k

let test_lifecycle_syscalls () =
  let k, init = boot () in
  let c = ptr "container" (step k ~thread:init (Syscall.New_container { quota = 100; cpus = Iset.empty })) in
  ignore c;
  let p = ptr "process" (step k ~thread:init Syscall.New_process) in
  ignore p;
  let t2 = ptr "thread" (step k ~thread:init Syscall.New_thread) in
  checkb "t2 queued" true (List.mem t2 (Proc_mgr.run_queue_list k.Kernel.pm));
  let ep = ptr "endpoint" (step k ~thread:init (Syscall.New_endpoint { slot = 0 })) in
  ignore ep;
  expect_wf k;
  ok "close endpoint" (step k ~thread:init (Syscall.Close_endpoint { slot = 0 }));
  expect_wf k

let test_ipc_rendezvous () =
  let k, init = boot () in
  let t2 = ptr "thread" (step k ~thread:init Syscall.New_thread) in
  ignore (ptr "endpoint" (step k ~thread:init (Syscall.New_endpoint { slot = 0 })));
  (* share the endpoint descriptor with t2 directly (as a spawner would
     arrange); grants over IPC are tested separately *)
  (match step k ~thread:init (Syscall.Send { slot = 0; msg = Message.scalars_only [ 1; 2; 3 ] }) with
   | Syscall.Rblocked -> ()
   | r -> Alcotest.failf "send should block (no receiver): %a" Syscall.pp_ret r);
  expect_wf k;
  (* t2 has no descriptor yet: give it one by kernel-internal setup *)
  Perm_map.update k.Kernel.pm.Proc_mgr.thrd_perms ~ptr:t2 (fun th ->
      Thread.set_slot th 1
        (Thread.slot (Perm_map.borrow k.Kernel.pm.Proc_mgr.thrd_perms ~ptr:init) 0));
  (match Thread.slot (Perm_map.borrow k.Kernel.pm.Proc_mgr.thrd_perms ~ptr:init) 0 with
   | Some ep ->
     Perm_map.update k.Kernel.pm.Proc_mgr.edpt_perms ~ptr:ep (fun e ->
         { e with Atmo_pm.Endpoint.refcount = e.Atmo_pm.Endpoint.refcount + 1 })
   | None -> Alcotest.fail "no endpoint");
  expect_wf k;
  (match step k ~thread:t2 (Syscall.Recv { slot = 1 }) with
   | Syscall.Rmsg m -> Alcotest.(check (list int)) "payload" [ 1; 2; 3 ] m.Message.scalars
   | r -> Alcotest.failf "recv: %a" Syscall.pp_ret r);
  (* sender woke up and took the CPU (direct switch), the receiver was
     preempted to the run queue *)
  (match Perm_map.borrow k.Kernel.pm.Proc_mgr.thrd_perms ~ptr:init with
   | th -> checkb "sender running" true (th.Thread.state = Thread.Running));
  checkb "sender current" true (Proc_mgr.current k.Kernel.pm = Some init);
  checkb "receiver requeued" true
    (Proc_mgr.run_queue_list k.Kernel.pm = [ t2 ]);
  expect_wf k

let test_ipc_page_grant () =
  let k, init = boot () in
  ignore (mmap k init);
  (* spawn a second process with its own thread, wire up an endpoint *)
  let p2 = ptr "p2" (step k ~thread:init Syscall.New_process) in
  ignore p2;
  let t2 =
    match Proc_mgr.new_thread k.Kernel.pm ~proc:p2 with
    | Ok t -> t
    | Error e -> Alcotest.failf "t2: %a" Errno.pp e
  in
  let ep = ptr "ep" (step k ~thread:init (Syscall.New_endpoint { slot = 0 })) in
  Proc_mgr.install_descriptor k.Kernel.pm ~thread:t2 ~slot:0 ~endpoint:ep;
  expect_wf k;
  (* receiver blocks first, then sender grants its page *)
  (match step k ~thread:t2 (Syscall.Recv { slot = 0 }) with
   | Syscall.Rblocked -> ()
   | r -> Alcotest.failf "recv should block: %a" Syscall.pp_ret r);
  let dst = 0x5000_0000 in
  let msg =
    {
      Message.scalars = [ 42 ];
      page = Some { Message.src_vaddr = va0; dst_vaddr = dst };
      endpoint = None;
    }
  in
  ok "send with grant" (step k ~thread:init (Syscall.Send { slot = 0; msg }));
  expect_wf k;
  (* both map the same frame now *)
  (match (Kernel.resolve_user k ~thread:init ~vaddr:va0,
          Kernel.resolve_user k ~thread:t2 ~vaddr:dst) with
   | Some a, Some b -> checki "same frame" a.Atmo_hw.Mmu.frame b.Atmo_hw.Mmu.frame
   | _ -> Alcotest.fail "grant did not map");
  (* woken receiver carries the message *)
  (match Kernel.take_delivered k ~thread:t2 with
   | Some m -> Alcotest.(check (list int)) "scalars" [ 42 ] m.Message.scalars
   | None -> Alcotest.fail "no delivered message")

let test_ipc_endpoint_grant () =
  let k, init = boot () in
  let p2 = ptr "p2" (step k ~thread:init Syscall.New_process) in
  let t2 =
    match Proc_mgr.new_thread k.Kernel.pm ~proc:p2 with
    | Ok t -> t
    | Error e -> Alcotest.failf "t2: %a" Errno.pp e
  in
  let ep = ptr "ep" (step k ~thread:init (Syscall.New_endpoint { slot = 0 })) in
  let ep2 = ptr "ep2" (step k ~thread:init (Syscall.New_endpoint { slot = 1 })) in
  Proc_mgr.install_descriptor k.Kernel.pm ~thread:t2 ~slot:0 ~endpoint:ep;
  (match step k ~thread:t2 (Syscall.Recv { slot = 0 }) with
   | Syscall.Rblocked -> ()
   | r -> Alcotest.failf "recv should block: %a" Syscall.pp_ret r);
  let msg =
    {
      Message.scalars = [];
      page = None;
      endpoint = Some { Message.src_slot = 1; dst_slot = 5 };
    }
  in
  ok "send endpoint grant" (step k ~thread:init (Syscall.Send { slot = 0; msg }));
  (match Thread.slot (Perm_map.borrow k.Kernel.pm.Proc_mgr.thrd_perms ~ptr:t2) 5 with
   | Some got -> checki "endpoint installed" ep2 got
   | None -> Alcotest.fail "no endpoint in slot 5");
  expect_wf k

let test_yield_round_robin () =
  let k, init = boot () in
  let t2 = ptr "t2" (step k ~thread:init Syscall.New_thread) in
  ok "yield" (step k ~thread:init Syscall.Yield);
  checkb "t2 scheduled" true (Proc_mgr.current k.Kernel.pm = Some t2);
  ok "yield back" (step k ~thread:t2 Syscall.Yield);
  checkb "init scheduled" true (Proc_mgr.current k.Kernel.pm = Some init);
  expect_wf k

let test_terminate_container_revokes () =
  let k, init = boot () in
  let c = ptr "c" (step k ~thread:init (Syscall.New_container { quota = 100; cpus = Iset.empty })) in
  (* populate the container from the kernel side *)
  let p =
    match Proc_mgr.new_process k.Kernel.pm ~container:c ~parent:None with
    | Ok p -> p
    | Error e -> Alcotest.failf "p: %a" Errno.pp e
  in
  ignore (Proc_mgr.new_thread k.Kernel.pm ~proc:p);
  expect_wf k;
  ok "terminate" (step k ~thread:init (Syscall.Terminate_container { container = c }));
  checkb "container gone" false (Perm_map.mem k.Kernel.pm.Proc_mgr.cntr_perms ~ptr:c);
  expect_wf k;
  (* capability: a foreign container cannot be terminated *)
  let c2 = ptr "c2" (step k ~thread:init (Syscall.New_container { quota = 50; cpus = Iset.empty })) in
  let p2 =
    match Proc_mgr.new_process k.Kernel.pm ~container:c2 ~parent:None with
    | Ok p -> p
    | Error e -> Alcotest.failf "p2: %a" Errno.pp e
  in
  let t2 =
    match Proc_mgr.new_thread k.Kernel.pm ~proc:p2 with
    | Ok t -> t
    | Error e -> Alcotest.failf "t2: %a" Errno.pp e
  in
  expect_err "child cannot kill sibling/self-container" Errno.Eperm
    (step k ~thread:t2 (Syscall.Terminate_container { container = c2 }))

let test_terminate_process_capability () =
  let k, init = boot () in
  let p2 = ptr "p2" (step k ~thread:init Syscall.New_process) in
  ok "parent kills child" (step k ~thread:init (Syscall.Terminate_process { proc = p2 }));
  expect_wf k;
  let p3 = ptr "p3" (step k ~thread:init Syscall.New_process) in
  let t3 =
    match Proc_mgr.new_thread k.Kernel.pm ~proc:p3 with
    | Ok t -> t
    | Error e -> Alcotest.failf "t3: %a" Errno.pp e
  in
  (* child cannot kill its parent *)
  (match Kernel.proc_of_thread k ~thread:init with
   | Some init_proc ->
     expect_err "child cannot kill parent" Errno.Eperm
       (step k ~thread:t3 (Syscall.Terminate_process { proc = init_proc }))
   | None -> Alcotest.fail "init proc");
  expect_wf k

let test_assign_device () =
  let k, init = boot () in
  ok "assign" (step k ~thread:init (Syscall.Assign_device { device = 3 }));
  expect_err "already assigned" Errno.Eexist
    (step k ~thread:init (Syscall.Assign_device { device = 3 }));
  expect_wf k;
  (* the device starts with an empty DMA window: nothing translates *)
  ignore (mmap k init);
  checkb "empty window faults" true
    (Atmo_hw.Iommu.translate k.Kernel.iommu ~device:3 ~iova:0x9000_0000 = None);
  (* exposing the frame behind va0 opens exactly that window *)
  ok "io_map" (step k ~thread:init (Syscall.Io_map { device = 3; iova = 0x9000_0000; va = va0 }));
  expect_wf k;
  (match
     ( Atmo_hw.Iommu.translate k.Kernel.iommu ~device:3 ~iova:0x9000_0000,
       Kernel.resolve_user k ~thread:init ~vaddr:va0 )
   with
   | Some io, Some cpu -> checki "window shares the frame" cpu.Atmo_hw.Mmu.frame io.Atmo_hw.Mmu.frame
   | _ -> Alcotest.fail "io window did not open");
  expect_err "double io_map" Errno.Eexist
    (step k ~thread:init (Syscall.Io_map { device = 3; iova = 0x9000_0000; va = va0 }));
  expect_err "unmapped source" Errno.Einval
    (step k ~thread:init (Syscall.Io_map { device = 3; iova = 0x9001_0000; va = 0x7777_0000 }));
  (* the frame survives munmap while the device still references it *)
  ok "munmap source"
    (step k ~thread:init (Syscall.Munmap { va = va0; count = 1; size = Page_state.S4k }));
  expect_wf k;
  checkb "device still translates" true
    (Atmo_hw.Iommu.translate k.Kernel.iommu ~device:3 ~iova:0x9000_0000 <> None);
  ok "io_unmap" (step k ~thread:init (Syscall.Io_unmap { device = 3; iova = 0x9000_0000 }));
  expect_wf k;
  (* the device and its IOMMU table die with the owning process *)
  let p2 = ptr "p2" (step k ~thread:init Syscall.New_process) in
  let t2 =
    match Proc_mgr.new_thread k.Kernel.pm ~proc:p2 with
    | Ok t -> t
    | Error e -> Alcotest.failf "t2: %a" Errno.pp e
  in
  ok "assign to p2" (step k ~thread:t2 (Syscall.Assign_device { device = 9 }));
  (match step k ~thread:t2 (Syscall.Mmap { va = va0; count = 1; size = Page_state.S4k; perm = Pte.perm_rw }) with
   | Syscall.Rmapped _ -> ()
   | r -> Alcotest.failf "t2 mmap: %a" Syscall.pp_ret r);
  ok "t2 io_map" (step k ~thread:t2 (Syscall.Io_map { device = 9; iova = 0x9000_0000; va = va0 }));
  (* only the owner may program the device *)
  expect_err "foreign io_map" Errno.Eperm
    (step k ~thread:init (Syscall.Io_map { device = 9; iova = 0x9002_0000; va = va0 }));
  expect_wf k;
  ok "kill p2" (step k ~thread:init (Syscall.Terminate_process { proc = p2 }));
  checkb "device 9 detached" true
    (Atmo_hw.Iommu.domain_of k.Kernel.iommu ~device:9 = None);
  expect_wf k

let test_interrupt_dispatch () =
  let k, init = boot () in
  ok "assign" (step k ~thread:init (Syscall.Assign_device { device = 2 }));
  ignore (ptr "ep" (step k ~thread:init (Syscall.New_endpoint { slot = 0 })));
  (* only the owner may register, and only once *)
  ok "register" (step k ~thread:init (Syscall.Register_irq { device = 2; slot = 0 }));
  expect_err "double register" Errno.Eexist
    (step k ~thread:init (Syscall.Register_irq { device = 2; slot = 0 }));
  expect_err "bogus device" Errno.Esrch
    (step k ~thread:init (Syscall.Register_irq { device = 9; slot = 0 }));
  expect_wf k;
  (* an interrupt with no receiver pends; the next receive picks it up *)
  ok "fire pends" (step k ~thread:init (Syscall.Irq_fire { device = 2 }));
  ok "fire pends again" (step k ~thread:init (Syscall.Irq_fire { device = 2 }));
  expect_wf k;
  (match step k ~thread:init (Syscall.Recv { slot = 0 }) with
   | Syscall.Rmsg m -> Alcotest.(check (list int)) "irq payload" [ 2 ] m.Message.scalars
   | r -> Alcotest.failf "recv pending irq: %a" Syscall.pp_ret r);
  (match step k ~thread:init (Syscall.Recv_nb { slot = 0 }) with
   | Syscall.Rmsg m -> Alcotest.(check (list int)) "second pending" [ 2 ] m.Message.scalars
   | r -> Alcotest.failf "recv_nb pending irq: %a" Syscall.pp_ret r);
  expect_wf k;
  (* drained: now the receiver blocks, and a fresh interrupt wakes it *)
  (match step k ~thread:init (Syscall.Recv { slot = 0 }) with
   | Syscall.Rblocked -> ()
   | r -> Alcotest.failf "should block: %a" Syscall.pp_ret r);
  ok "fire wakes" (step k ~thread:init (Syscall.Irq_fire { device = 2 }));
  expect_wf k;
  (match Kernel.take_delivered k ~thread:init with
   | Some m -> Alcotest.(check (list int)) "woken with irq" [ 2 ] m.Message.scalars
   | None -> Alcotest.fail "no delivery");
  (* spurious interrupts are dropped silently *)
  ok "spurious" (step k ~thread:init (Syscall.Irq_fire { device = 7 }));
  expect_wf k

let test_interrupt_route_dies_with_endpoint () =
  let k, init = boot () in
  ok "assign" (step k ~thread:init (Syscall.Assign_device { device = 1 }));
  ignore (ptr "ep" (step k ~thread:init (Syscall.New_endpoint { slot = 3 })));
  ok "register" (step k ~thread:init (Syscall.Register_irq { device = 1; slot = 3 }));
  ok "fire" (step k ~thread:init (Syscall.Irq_fire { device = 1 }));
  ok "close" (step k ~thread:init (Syscall.Close_endpoint { slot = 3 }));
  expect_wf k;
  (* the route (and its pending count) died with the endpoint *)
  (match Imap.find_opt 1 k.Kernel.devices with
   | Some d ->
     checkb "unrouted" true (d.Kernel.irq_endpoint = None);
     checki "pending cleared" 0 d.Kernel.irq_pending
   | None -> Alcotest.fail "device gone");
  (* rebinding works after the route is cleared *)
  ignore (ptr "ep2" (step k ~thread:init (Syscall.New_endpoint { slot = 3 })));
  ok "re-register" (step k ~thread:init (Syscall.Register_irq { device = 1; slot = 3 }));
  expect_wf k

let test_blocked_thread_cannot_syscall () =
  let k, init = boot () in
  ignore (ptr "ep" (step k ~thread:init (Syscall.New_endpoint { slot = 0 })));
  (match step k ~thread:init (Syscall.Recv { slot = 0 }) with
   | Syscall.Rblocked -> ()
   | r -> Alcotest.failf "recv should block: %a" Syscall.pp_ret r);
  expect_err "blocked thread trapped" Errno.Eperm (step k ~thread:init Syscall.Yield);
  expect_wf k

let test_mmap_1g_superpage () =
  (* a machine big enough for a 1 GiB superpage: 1.1 GiB of (sparse)
     physical memory *)
  let boot_params =
    {
      Kernel.frames = 540_000;
      reserved_frames = 16;
      root_quota = 530_000;
      cpus = Iset.of_range ~lo:0 ~hi:4;
    }
  in
  let k, init =
    match Kernel.boot boot_params with
    | Ok v -> v
    | Error e -> Alcotest.failf "boot: %a" Errno.pp e
  in
  (match
     step k ~thread:init
       (Syscall.Mmap
          { va = 1 lsl 39; count = 1; size = Page_state.S1g; perm = Pte.perm_rw })
   with
   | Syscall.Rmapped [ frame ] ->
     checkb "1G aligned" true (frame mod (512 * 512 * 4096) = 0);
     (* resolves anywhere inside the gigabyte *)
     (match Kernel.resolve_user k ~thread:init ~vaddr:((1 lsl 39) + 0x1234_5678) with
      | Some tr ->
        checki "1G translation size" (512 * 512 * 4096) tr.Atmo_hw.Mmu.size;
        checki "offset preserved" (frame + 0x1234_5678) tr.Atmo_hw.Mmu.paddr
      | None -> Alcotest.fail "1G mapping does not resolve")
   | r -> Alcotest.failf "mmap 1G: %a" Syscall.pp_ret r);
  expect_wf k;
  ok "munmap 1G"
    (step k ~thread:init (Syscall.Munmap { va = 1 lsl 39; count = 1; size = Page_state.S1g }));
  expect_wf k

let test_leak_freedom_full_teardown () =
  (* build a small world, tear all of it down, and check the allocator
     returns to the boot configuration *)
  let k, init = boot () in
  let free0 = Atmo_pmem.Page_alloc.free_count_4k k.Kernel.alloc in
  let c = ptr "c" (step k ~thread:init (Syscall.New_container { quota = 200; cpus = Iset.empty })) in
  let p =
    match Proc_mgr.new_process k.Kernel.pm ~container:c ~parent:None with
    | Ok p -> p
    | Error e -> Alcotest.failf "p: %a" Errno.pp e
  in
  let t =
    match Proc_mgr.new_thread k.Kernel.pm ~proc:p with
    | Ok t -> t
    | Error e -> Alcotest.failf "t: %a" Errno.pp e
  in
  (match step k ~thread:t (Syscall.Mmap { va = va0; count = 8; size = Page_state.S4k; perm = Pte.perm_rw }) with
   | Syscall.Rmapped _ -> ()
   | r -> Alcotest.failf "mmap in c: %a" Syscall.pp_ret r);
  ignore (ptr "ep" (step k ~thread:t (Syscall.New_endpoint { slot = 0 })));
  expect_wf k;
  ok "terminate" (step k ~thread:init (Syscall.Terminate_container { container = c }));
  expect_wf k;
  checki "all frames recovered" free0 (Atmo_pmem.Page_alloc.free_count_4k k.Kernel.alloc)

let () =
  Atmo_san.Runtime.arm_of_env ();
  Alcotest.run ~and_exit:false "kernel"
    [
      ( "boot",
        [
          Alcotest.test_case "boot wf" `Quick test_boot_wf;
          Alcotest.test_case "boot loader from e820" `Quick test_boot_loader;
          Alcotest.test_case "boot loader rejects tiny map" `Quick
            test_boot_loader_rejects_tiny_map;
        ] );
      ( "memory",
        [
          Alcotest.test_case "mmap/munmap" `Quick test_mmap_munmap;
          Alcotest.test_case "mmap 2m" `Quick test_mmap_2m;
          Alcotest.test_case "mmap 1g superpage" `Quick test_mmap_1g_superpage;
          Alcotest.test_case "bad args rejected" `Quick test_mmap_rejects_bad_args;
          Alcotest.test_case "failure atomic" `Quick test_mmap_failure_is_atomic;
          Alcotest.test_case "failing 2m mmap undoes its merge" `Quick
            test_mmap_2m_failure_undoes_merge;
          Alcotest.test_case "failing 1g mmap merges nothing" `Quick
            test_mmap_1g_failure_merges_nothing;
          Alcotest.test_case "4k mmap splitting a 2m block refines" `Quick
            test_mmap_4k_split_is_refinement;
          Alcotest.test_case "overlapping mmap refused atomically" `Quick
            test_mmap_overlap_refused;
          Alcotest.test_case "4k mmap at the quota boundary" `Quick
            test_mmap_4k_quota_boundary;
          Alcotest.test_case "mprotect" `Quick test_mprotect;
          Alcotest.test_case "mprotect and io_unmap need the base" `Quick
            test_unmap_and_mprotect_need_the_base;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "create syscalls" `Quick test_lifecycle_syscalls;
          Alcotest.test_case "terminate container" `Quick test_terminate_container_revokes;
          Alcotest.test_case "terminate process capability" `Quick
            test_terminate_process_capability;
          Alcotest.test_case "leak freedom at teardown" `Quick
            test_leak_freedom_full_teardown;
        ] );
      ( "ipc",
        [
          Alcotest.test_case "rendezvous" `Quick test_ipc_rendezvous;
          Alcotest.test_case "page grant" `Quick test_ipc_page_grant;
          Alcotest.test_case "failing page grant is atomic" `Quick
            test_ipc_page_grant_failure_is_atomic;
          Alcotest.test_case "endpoint grant" `Quick test_ipc_endpoint_grant;
          Alcotest.test_case "blocked cannot syscall" `Quick
            test_blocked_thread_cannot_syscall;
        ] );
      ( "scheduling",
        [ Alcotest.test_case "yield round robin" `Quick test_yield_round_robin ] );
      ( "devices",
        [
          Alcotest.test_case "assign device" `Quick test_assign_device;
          Alcotest.test_case "failing io_map is atomic" `Quick test_io_map_failure_is_atomic;
          Alcotest.test_case "interrupt dispatch" `Quick test_interrupt_dispatch;
          Alcotest.test_case "route dies with endpoint" `Quick
            test_interrupt_route_dies_with_endpoint;
        ] );
    ];
  Atmo_san.Runtime.exit_check ()
