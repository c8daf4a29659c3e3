(* Noninterference (§4.3): isolation invariants, unwinding conditions,
   and the verified service V. *)

module Syscall = Atmo_spec.Syscall
module Kernel = Atmo_core.Kernel
module Message = Atmo_pm.Message
module Scenario = Atmo_ni.Scenario
module Isolation = Atmo_ni.Isolation
module Observation = Atmo_ni.Observation
module Service_v = Atmo_ni.Service_v
module Harness = Atmo_ni.Harness
module Page_state = Atmo_pmem.Page_state
module Pte = Atmo_hw.Pte_bits

let checkb = Alcotest.(check bool)

let build () =
  match Scenario.build () with
  | Ok s -> s
  | Error msg -> Alcotest.failf "scenario: %s" msg

let expect_ok what = function
  | Ok _ -> ()
  | Error (f : Harness.failure) ->
    Alcotest.failf "%s failed at step %d: %s" what f.Harness.at_step f.Harness.what

let test_scenario_isolated () =
  let s = build () in
  (match Scenario.check_isolation s with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "isolation: %s" msg);
  (* A and B hold different endpoints, both naming V *)
  checkb "distinct service endpoints" true (s.Scenario.ep_av <> s.Scenario.ep_bv)

let test_isolation_detects_shared_endpoint () =
  let s = build () in
  (* wire A's endpoint into B — the invariant must fire *)
  Atmo_pm.Proc_mgr.install_descriptor s.Scenario.kernel.Kernel.pm ~thread:s.Scenario.b_thread
    ~slot:5 ~endpoint:s.Scenario.ep_av;
  checkb "endpoint_iso fires" true (Scenario.check_isolation s <> Ok ())

let test_isolation_detects_shared_frame () =
  let s = build () in
  let k = s.Scenario.kernel in
  (* A maps a page, then the same frame is force-mapped into B *)
  (match Kernel.step k ~thread:s.Scenario.a_thread
           (Syscall.Mmap { va = 0x4000_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw })
   with
   | Syscall.Rmapped [ frame ] ->
     let bp =
       Atmo_pm.Perm_map.borrow k.Kernel.pm.Atmo_pm.Proc_mgr.thrd_perms
         ~ptr:s.Scenario.b_thread
     in
     let bproc =
       Atmo_pm.Perm_map.borrow k.Kernel.pm.Atmo_pm.Proc_mgr.proc_perms
         ~ptr:bp.Atmo_pm.Thread.owner_proc
     in
     (match
        Atmo_pt.Page_table.map_4k bproc.Atmo_pm.Process.pt ~vaddr:0x4000_0000 ~frame
          ~perm:Pte.perm_rw
      with
      | Ok () -> checkb "memory_iso fires" true (Scenario.check_isolation s <> Ok ())
      | Error e -> Alcotest.failf "force map: %a" Atmo_pt.Page_table.pp_error e)
   | r -> Alcotest.failf "mmap: %a" Syscall.pp_ret r)

let test_observation_renaming () =
  (* two separately booted scenarios have identical canonical
     observations even though raw pointers differ *)
  let s1 = build () and s2 = build () in
  let o1 = Observation.observe (Scenario.abstract s1) ~container:s1.Scenario.a_cntr in
  let o2 = Observation.observe (Scenario.abstract s2) ~container:s2.Scenario.a_cntr in
  checkb "canonical observations equal" true (Observation.equal o1 o2)

let test_observation_sees_own_actions () =
  let s = build () in
  let before = Observation.observe (Scenario.abstract s) ~container:s.Scenario.a_cntr in
  ignore
    (Kernel.step s.Scenario.kernel ~thread:s.Scenario.a_thread
       (Syscall.Mmap { va = 0x4000_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw }));
  let after = Observation.observe (Scenario.abstract s) ~container:s.Scenario.a_cntr in
  checkb "own mmap visible" false (Observation.equal before after)

let test_service_round_trip () =
  let s = build () in
  let v = Service_v.create s in
  let k = s.Scenario.kernel in
  (* A sends a request then blocks receiving the reply *)
  (match Kernel.step k ~thread:s.Scenario.a_thread
           (Syscall.Send { slot = 0; msg = Message.scalars_only [ 10; 20 ] })
   with
   | Syscall.Rblocked -> ()
   | r -> Alcotest.failf "A send: %a" Syscall.pp_ret r);
  (* V serves the request; A is not yet waiting, so the reply drops *)
  (match Service_v.step v with
   | Service_v.Served (Service_v.A_side, [ 10; 20 ]) -> ()
   | _ -> Alcotest.fail "V should have served A");
  (match Service_v.wf v with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "V wf: %s" msg);
  (* now A receives, V replies while A waits *)
  (match Kernel.step k ~thread:s.Scenario.a_thread (Syscall.Recv { slot = 0 }) with
   | Syscall.Rblocked -> ()
   | Syscall.Rmsg _ -> ()
   | r -> Alcotest.failf "A recv: %a" Syscall.pp_ret r);
  ignore
    (Kernel.step k ~thread:s.Scenario.a_thread
       (Syscall.Send_nb { slot = 0; msg = Message.scalars_only [ 1 ] }))

let test_service_releases_granted_pages () =
  let s = build () in
  let v = Service_v.create s in
  let k = s.Scenario.kernel in
  (* A maps a buffer and grants it to V with the request *)
  (match Kernel.step k ~thread:s.Scenario.a_thread
           (Syscall.Mmap { va = 0x4000_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw })
   with
   | Syscall.Rmapped _ -> ()
   | r -> Alcotest.failf "A mmap: %a" Syscall.pp_ret r);
  let msg =
    {
      Message.scalars = [ 5 ];
      page = Some { Message.src_vaddr = 0x4000_0000; dst_vaddr = 0x9000_0000 };
      endpoint = None;
    }
  in
  (match Kernel.step k ~thread:s.Scenario.a_thread (Syscall.Send { slot = 0; msg }) with
   | Syscall.Rblocked -> ()
   | r -> Alcotest.failf "A send: %a" Syscall.pp_ret r);
  (match Service_v.step v with
   | Service_v.Served (Service_v.A_side, [ 5 ]) -> ()
   | _ -> Alcotest.fail "V should have served A");
  (* V must have released the page: its space equals baseline *)
  (match Service_v.wf v with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "V wf after page grant: %s" msg);
  (* and the frame is still mapped by A only *)
  (match Kernel.resolve_user k ~thread:s.Scenario.a_thread ~vaddr:0x4000_0000 with
   | Some _ -> ()
   | None -> Alcotest.fail "A lost its page")

let test_service_reply_correctness () =
  checkb "reply function" true (Service_v.reply_for [ 1; 2; 3 ] = [ 2; 3; 4 ])

let test_output_consistency () =
  expect_ok "OC" (Harness.output_consistency ~seed:7 ~steps:120)

let test_step_consistency () =
  (match Harness.step_consistency ~with_service:true ~seed:11 ~steps:150 () with
   | Ok n -> checkb "ran steps" true (n > 0)
   | Error f -> Alcotest.failf "SC failed at %d: %s" f.Harness.at_step f.Harness.what)

let test_step_consistency_no_service () =
  (match Harness.step_consistency ~with_service:false ~seed:13 ~steps:150 () with
   | Ok _ -> ()
   | Error f -> Alcotest.failf "SC failed at %d: %s" f.Harness.at_step f.Harness.what)

let test_probe_consistency () =
  expect_ok "probe" (Harness.probe_consistency ~seed:17 ~steps:40 ~probes:6)

let () =
  Alcotest.run "ni"
    [
      ( "isolation",
        [
          Alcotest.test_case "scenario isolated" `Quick test_scenario_isolated;
          Alcotest.test_case "detects shared endpoint" `Quick
            test_isolation_detects_shared_endpoint;
          Alcotest.test_case "detects shared frame" `Quick
            test_isolation_detects_shared_frame;
        ] );
      ( "observation",
        [
          Alcotest.test_case "renaming-invariant" `Quick test_observation_renaming;
          Alcotest.test_case "sees own actions" `Quick test_observation_sees_own_actions;
        ] );
      ( "service_v",
        [
          Alcotest.test_case "round trip" `Quick test_service_round_trip;
          Alcotest.test_case "releases granted pages" `Quick
            test_service_releases_granted_pages;
          Alcotest.test_case "reply function" `Quick test_service_reply_correctness;
        ] );
      ( "unwinding",
        [
          Alcotest.test_case "output consistency" `Quick test_output_consistency;
          Alcotest.test_case "step consistency" `Quick test_step_consistency;
          Alcotest.test_case "step consistency (no V)" `Quick
            test_step_consistency_no_service;
          Alcotest.test_case "probe consistency" `Quick test_probe_consistency;
        ] );
    ]
