(* Refinement: every kernel transition satisfies its top-level
   specification, checked over scripted and randomized traces. *)

open Atmo_util
module Syscall = Atmo_spec.Syscall
module Kernel = Atmo_core.Kernel
module H = Atmo_verif.Refine_harness
module Page_state = Atmo_pmem.Page_state
module Pte = Atmo_hw.Pte_bits
module Message = Atmo_pm.Message

let boot () =
  match Kernel.boot Kernel.default_boot with
  | Ok (k, init) -> (k, init)
  | Error e -> Alcotest.failf "boot failed: %a" Errno.pp e

let fail_outcome (o : H.step_outcome) =
  Alcotest.failf "step %a from 0x%x returned %a; spec: %s; wf: %s" Syscall.pp o.H.call
    o.H.thread Syscall.pp_ret o.H.ret
    (match o.H.spec with Ok () -> "ok" | Error m -> m)
    (match o.H.wf with Ok () -> "ok" | Error m -> m)

let run_ok k trace =
  match H.run_trace k trace with
  | Ok _ -> ()
  | Error o -> fail_outcome o

let va0 = 0x4000_0000

let test_scripted_memory_trace () =
  let k, init = boot () in
  run_ok k
    [
      (init, Syscall.Mmap { va = va0; count = 4; size = Page_state.S4k; perm = Pte.perm_rw });
      (init, Syscall.Mprotect { va = va0; perm = Pte.perm_ro });
      (init, Syscall.Munmap { va = va0 + 4096; count = 2; size = Page_state.S4k });
      (init, Syscall.Mmap { va = 0x8000_0000; count = 1; size = Page_state.S2m; perm = Pte.perm_rw });
      (init, Syscall.Munmap { va = 0x8000_0000; count = 1; size = Page_state.S2m });
      (init, Syscall.Munmap { va = va0; count = 1; size = Page_state.S4k });
      (* failures must be atomic and satisfy the spec's error clause *)
      (init, Syscall.Mmap { va = va0; count = 0; size = Page_state.S4k; perm = Pte.perm_rw });
      (init, Syscall.Munmap { va = va0; count = 3; size = Page_state.S4k });
    ]

let test_scripted_lifecycle_trace () =
  let k, init = boot () in
  run_ok k
    [
      (init, Syscall.New_container { quota = 64; cpus = Iset.empty });
      (init, Syscall.New_process);
      (init, Syscall.New_thread);
      (init, Syscall.New_endpoint { slot = 0 });
      (init, Syscall.Close_endpoint { slot = 0 });
      (init, Syscall.New_endpoint { slot = 2 });
      (init, Syscall.Yield);
    ]

let test_scripted_ipc_trace () =
  let k, init = boot () in
  (* init creates an endpoint and a second thread; hand the descriptor
     over with an explicit endpoint grant through a rendezvous *)
  run_ok k
    [
      (init, Syscall.New_endpoint { slot = 0 });
      (init, Syscall.New_thread);
    ];
  let t2 = List.hd (Atmo_pm.Proc_mgr.run_queue_list k.Kernel.pm) in
  (* t2 has no endpoint yet, so its recv must fail cleanly *)
  run_ok k [ (t2, Syscall.Recv { slot = 0 }) ];
  (* init blocks sending; t2 cannot receive without a descriptor *)
  run_ok k
    [
      (init, Syscall.Send { slot = 0; msg = Message.scalars_only [ 7 ] });
    ];
  (* now the sender sits in the queue; woken when a receiver arrives *)
  match H.step_checked k ~thread:t2 (Syscall.Yield) with
  | o when o.H.spec = Ok () && o.H.wf = Ok () -> ()
  | o -> fail_outcome o

let test_scripted_termination_trace () =
  let k, init = boot () in
  run_ok k [ (init, Syscall.New_container { quota = 128; cpus = Iset.empty }) ];
  (* populate the child container *)
  let child =
    Iset.max_elt (Atmo_pm.Perm_map.dom k.Kernel.pm.Atmo_pm.Proc_mgr.cntr_perms)
  in
  (match Atmo_pm.Proc_mgr.new_process k.Kernel.pm ~container:child ~parent:None with
   | Ok p -> ignore (Atmo_pm.Proc_mgr.new_thread k.Kernel.pm ~proc:p)
   | Error e -> Alcotest.failf "setup: %a" Errno.pp e);
  run_ok k
    [
      (init, Syscall.Terminate_container { container = child });
      (* repeat: now ESRCH, checked as atomic error *)
      (init, Syscall.Terminate_container { container = child });
    ]

let test_scripted_device_trace () =
  let k, init = boot () in
  run_ok k
    [
      (init, Syscall.Assign_device { device = 1 });
      (init, Syscall.Assign_device { device = 1 });
      (init, Syscall.New_process);
    ];
  let p2 =
    (* the newest process *)
    Iset.max_elt (Atmo_pm.Perm_map.dom k.Kernel.pm.Atmo_pm.Proc_mgr.proc_perms)
  in
  run_ok k [ (init, Syscall.Terminate_process { proc = p2 }) ]

let test_scripted_io_trace () =
  let k, init = boot () in
  run_ok k
    [
      (init, Syscall.Mmap { va = va0; count = 2; size = Page_state.S4k; perm = Pte.perm_rw });
      (init, Syscall.Assign_device { device = 1 });
      (* double assignment and foreign devices: atomic errors *)
      (init, Syscall.Assign_device { device = 1 });
      (init, Syscall.Io_map { device = 1; iova = 0x9000_0000; va = va0 });
      (init, Syscall.Io_map { device = 1; iova = 0x9000_1000; va = va0 + 4096 });
      (* same window twice / unmapped source / bogus device *)
      (init, Syscall.Io_map { device = 1; iova = 0x9000_0000; va = va0 });
      (init, Syscall.Io_map { device = 1; iova = 0x9000_2000; va = 0x6666_0000 });
      (init, Syscall.Io_map { device = 7; iova = 0x9000_3000; va = va0 });
      (* the frame outlives the process mapping while the device holds it *)
      (init, Syscall.Munmap { va = va0; count = 1; size = Page_state.S4k });
      (init, Syscall.Io_unmap { device = 1; iova = 0x9000_0000 });
      (init, Syscall.Io_unmap { device = 1; iova = 0x9000_0000 });
      (init, Syscall.Io_unmap { device = 1; iova = 0x9000_1000 });
    ]

let test_random_fuzz seed () =
  let k, _ = boot () in
  match H.random_trace_check ~seed ~steps:300 k with
  | Ok n -> Alcotest.(check bool) "ran steps" true (n > 0)
  | Error o -> fail_outcome o

let test_page_grant_spec () =
  let k, init = boot () in
  run_ok k
    [
      (init, Syscall.Mmap { va = va0; count = 1; size = Page_state.S4k; perm = Pte.perm_rw });
      (init, Syscall.New_endpoint { slot = 0 });
      (init, Syscall.New_process);
    ];
  let p2 = Iset.max_elt (Atmo_pm.Perm_map.dom k.Kernel.pm.Atmo_pm.Proc_mgr.proc_perms) in
  let t2 =
    match Atmo_pm.Proc_mgr.new_thread k.Kernel.pm ~proc:p2 with
    | Ok t -> t
    | Error e -> Alcotest.failf "t2: %a" Errno.pp e
  in
  (* wire the endpoint into t2 (spawner setup, not a syscall) *)
  (match
     Atmo_pm.Thread.slot
       (Atmo_pm.Perm_map.borrow k.Kernel.pm.Atmo_pm.Proc_mgr.thrd_perms ~ptr:init)
       0
   with
   | Some ep -> Atmo_pm.Proc_mgr.install_descriptor k.Kernel.pm ~thread:t2 ~slot:0 ~endpoint:ep
   | None -> Alcotest.fail "no endpoint");
  run_ok k
    [
      (t2, Syscall.Recv { slot = 0 });
      ( init,
        Syscall.Send
          {
            slot = 0;
            msg =
              {
                Message.scalars = [ 9 ];
                page = Some { Message.src_vaddr = va0; dst_vaddr = 0x7000_0000 };
                endpoint = None;
              };
          } );
      (* recv again through the woken thread: sender side now empty *)
      (t2, Syscall.Recv { slot = 0 });
    ]

(* A send that grants the rendezvous endpoint itself.  Init and a second
   thread share endpoint E in slot 0, and the message grants slot 0 into
   the receiver's slot 1, so one rendezvous both pops E's queue and adds
   a reference to E: the spec has to expect both on E's one record.
   [parked] runs first, on the second thread, and blocks; [meets] then
   completes the rendezvous from init and must return [ret]. *)
let test_self_grant ~parked ~meets ~ret () =
  let k, init = boot () in
  let checked ~thread call =
    let o = H.step_checked k ~thread call in
    if o.H.spec <> Ok () || o.H.wf <> Ok () then fail_outcome o;
    o.H.ret
  in
  let t2 = (Atmo_workloads.Scenario.pair k ~init ~step:checked).Atmo_workloads.Scenario.peer in
  Alcotest.(check bool) "partner parks" true (checked ~thread:t2 parked = Syscall.Rblocked);
  match (checked ~thread:init meets, ret) with
  | Syscall.Runit, `Unit | Syscall.Rmsg _, `Msg -> ()
  | r, _ -> Alcotest.failf "rendezvous returned %a" Syscall.pp_ret r

let self_grant =
  Syscall.Send
    {
      slot = 0;
      msg =
        {
          Message.scalars = [ 5 ];
          page = None;
          endpoint = Some { Message.src_slot = 0; dst_slot = 1 };
        };
    }

let () =
  Alcotest.run "spec"
    [
      ( "scripted",
        [
          Alcotest.test_case "memory trace" `Quick test_scripted_memory_trace;
          Alcotest.test_case "lifecycle trace" `Quick test_scripted_lifecycle_trace;
          Alcotest.test_case "ipc trace" `Quick test_scripted_ipc_trace;
          Alcotest.test_case "termination trace" `Quick test_scripted_termination_trace;
          Alcotest.test_case "device trace" `Quick test_scripted_device_trace;
          Alcotest.test_case "io trace" `Quick test_scripted_io_trace;
          Alcotest.test_case "page grant" `Quick test_page_grant_spec;
          Alcotest.test_case "self grant, send meets recv" `Quick
            (test_self_grant ~parked:(Syscall.Recv { slot = 0 }) ~meets:self_grant ~ret:`Unit);
          Alcotest.test_case "self grant, recv meets send" `Quick
            (test_self_grant ~parked:self_grant ~meets:(Syscall.Recv { slot = 0 }) ~ret:`Msg);
          Alcotest.test_case "self grant, recv_nb meets send" `Quick
            (test_self_grant ~parked:self_grant ~meets:(Syscall.Recv_nb { slot = 0 }) ~ret:`Msg);
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "random trace seed 1" `Quick (test_random_fuzz 1);
          Alcotest.test_case "random trace seed 2" `Quick (test_random_fuzz 2);
          Alcotest.test_case "random trace seed 42" `Quick (test_random_fuzz 42);
          Alcotest.test_case "random trace seed 1234" `Quick (test_random_fuzz 1234);
        ] );
    ]
