(* Process manager: flat permission maps, container/process trees with
   ghost path/subtree, quota accounting, termination. *)

open Atmo_util
open Atmo_pm
module Phys_mem = Atmo_hw.Phys_mem
module Page_alloc = Atmo_pmem.Page_alloc

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let expect what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Errno.pp e

let expect_err what e = function
  | Ok _ -> Alcotest.failf "%s: expected %a" what Errno.pp e
  | Error got ->
    if not (Errno.equal got e) then
      Alcotest.failf "%s: expected %a got %a" what Errno.pp e Errno.pp got

let expect_wf pm =
  match Pm_invariants.all pm with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant broken: %s" msg

let expect_wf_rec pm =
  match Pm_invariants_rec.all pm with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "recursive invariant broken: %s" msg

let mk_pm ?(frames = 2048) ?(quota = 1500) () =
  let mem = Phys_mem.create ~page_count:frames in
  let alloc = Page_alloc.create mem ~reserved_frames:0 in
  let pm = expect "create" (Proc_mgr.create mem alloc ~root_quota:quota ~cpus:(Iset.of_range ~lo:0 ~hi:4)) in
  pm

(* ------------------------------------------------------------------ *)
(* Static_list and Perm_map                                            *)

let test_static_list () =
  let l = Static_list.create ~capacity:2 in
  let l = Result.get_ok (Static_list.push l 1) in
  let l = Result.get_ok (Static_list.push l 2) in
  checkb "full" true (Static_list.is_full l);
  checkb "push full fails" true (Static_list.push l 3 = Error `Full);
  let l = Result.get_ok (Static_list.remove l ~eq:( = ) 1) in
  Alcotest.(check (list int)) "remaining" [ 2 ] (Static_list.to_list l);
  checkb "remove absent fails" true (Static_list.remove l ~eq:( = ) 9 = Error `Absent)

let test_perm_map_linearity () =
  let m = Perm_map.create ~name:"t" in
  Perm_map.alloc m ~ptr:0x1000 "a";
  Alcotest.(check string) "borrow" "a" (Perm_map.borrow m ~ptr:0x1000);
  (try
     Perm_map.alloc m ~ptr:0x1000 "b";
     Alcotest.fail "double alloc not caught"
   with Perm_map.Permission_violation _ -> ());
  Alcotest.(check string) "consume" "a" (Perm_map.consume m ~ptr:0x1000);
  (try
     ignore (Perm_map.borrow m ~ptr:0x1000);
     Alcotest.fail "dangling borrow not caught"
   with Perm_map.Permission_violation _ -> ());
  (try
     ignore (Perm_map.consume m ~ptr:0x1000);
     Alcotest.fail "double free not caught"
   with Perm_map.Permission_violation _ -> ())

let test_perm_map_iteration_round_trip () =
  let m = Perm_map.create ~name:"t" in
  let pairs = [ (0x3000, "c"); (0x1000, "a"); (0x2000, "b") ] in
  List.iter (fun (ptr, v) -> Perm_map.alloc m ~ptr v) pairs;
  let sorted = List.sort compare pairs in
  (* bindings is the sorted ghost view of the map *)
  Alcotest.(check (list (pair int string))) "bindings" sorted (Perm_map.bindings m);
  (* fold over the bindings rebuilds an identical map *)
  let copy = Perm_map.create ~name:"copy" in
  Perm_map.fold (fun ptr v () -> Perm_map.alloc copy ~ptr v) m ();
  Alcotest.(check (list (pair int string))) "round trip" (Perm_map.bindings m)
    (Perm_map.bindings copy);
  checki "cardinal" (List.length pairs) (Perm_map.cardinal copy);
  (* iter visits exactly the bindings, in key order *)
  let seen = ref [] in
  Perm_map.iter (fun ptr v -> seen := (ptr, v) :: !seen) m;
  Alcotest.(check (list (pair int string))) "iter" sorted (List.rev !seen);
  checkb "dom matches" true
    (Iset.equal (Perm_map.dom m) (Iset.of_list (List.map fst sorted)))

(* ------------------------------------------------------------------ *)
(* Containers                                                          *)

let test_boot_root () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  let c = Perm_map.borrow pm.Proc_mgr.cntr_perms ~ptr:root in
  checkb "root has no parent" true (c.Container.parent = None);
  checki "root charged its own page" 1 c.Container.used;
  expect_wf pm;
  expect_wf_rec pm

let test_new_container_tree () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  let a = expect "A" (Proc_mgr.new_container pm ~parent:root ~quota:100 ~cpus:Iset.empty) in
  let b = expect "B" (Proc_mgr.new_container pm ~parent:root ~quota:100 ~cpus:Iset.empty) in
  let aa = expect "AA" (Proc_mgr.new_container pm ~parent:a ~quota:40 ~cpus:Iset.empty) in
  let rc = Perm_map.borrow pm.Proc_mgr.cntr_perms ~ptr:root in
  checki "root delegated" 200 rc.Container.delegated;
  checkb "root subtree has all" true
    (Iset.equal rc.Container.subtree (Iset.of_list [ a; b; aa ]));
  let ac = Perm_map.borrow pm.Proc_mgr.cntr_perms ~ptr:a in
  checkb "A subtree has AA" true (Iset.equal ac.Container.subtree (Iset.singleton aa));
  let aac = Perm_map.borrow pm.Proc_mgr.cntr_perms ~ptr:aa in
  Alcotest.(check (list int)) "AA path" [ root; a ] aac.Container.path;
  checki "AA depth" 2 aac.Container.depth;
  expect_wf pm;
  expect_wf_rec pm

let test_container_quota_limits () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  let a = expect "A" (Proc_mgr.new_container pm ~parent:root ~quota:5 ~cpus:Iset.empty) in
  (* A holds 5, used 1 for its page: delegating 5 to a child must fail *)
  expect_err "overdelegate" Errno.Equota
    (Proc_mgr.new_container pm ~parent:a ~quota:5 ~cpus:Iset.empty);
  (* delegating 4 fits (1 used + 4 delegated = 5) *)
  ignore (expect "child" (Proc_mgr.new_container pm ~parent:a ~quota:4 ~cpus:Iset.empty));
  expect_err "zero quota invalid" Errno.Einval
    (Proc_mgr.new_container pm ~parent:root ~quota:0 ~cpus:Iset.empty);
  expect_err "dead parent" Errno.Esrch
    (Proc_mgr.new_container pm ~parent:0xdead000 ~quota:1 ~cpus:Iset.empty);
  expect_wf pm

let test_cpu_reservation_subset () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  let a =
    expect "A" (Proc_mgr.new_container pm ~parent:root ~quota:50 ~cpus:(Iset.of_list [ 0; 1 ]))
  in
  expect_err "cpus not subset" Errno.Eperm
    (Proc_mgr.new_container pm ~parent:a ~quota:5 ~cpus:(Iset.of_list [ 2 ]));
  ignore
    (expect "subset ok" (Proc_mgr.new_container pm ~parent:a ~quota:5 ~cpus:(Iset.of_list [ 1 ])));
  expect_wf pm

(* ------------------------------------------------------------------ *)
(* Processes and threads                                               *)

let test_process_and_thread () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  let p = expect "proc" (Proc_mgr.new_process pm ~container:root ~parent:None) in
  let th = expect "thread" (Proc_mgr.new_thread pm ~proc:p) in
  let c = Perm_map.borrow pm.Proc_mgr.cntr_perms ~ptr:root in
  (* 1 (container) + 1 (proc) + 1 (pt root) + 1 (thread) *)
  checki "used" 4 c.Container.used;
  checkb "thread runnable" true (Proc_mgr.run_queue_list pm = [ th ]);
  expect_wf pm

let test_process_tree () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  let p1 = expect "p1" (Proc_mgr.new_process pm ~container:root ~parent:None) in
  let p2 = expect "p2" (Proc_mgr.new_process pm ~container:root ~parent:(Some p1)) in
  let p3 = expect "p3" (Proc_mgr.new_process pm ~container:root ~parent:(Some p2)) in
  ignore p3;
  let pr1 = Perm_map.borrow pm.Proc_mgr.proc_perms ~ptr:p1 in
  Alcotest.(check (list int)) "p1 children" [ p2 ] (Static_list.to_list pr1.Process.children);
  expect_wf pm

let test_terminate_process_subtree () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  let p1 = expect "p1" (Proc_mgr.new_process pm ~container:root ~parent:None) in
  let p2 = expect "p2" (Proc_mgr.new_process pm ~container:root ~parent:(Some p1)) in
  let p3 = expect "p3" (Proc_mgr.new_process pm ~container:root ~parent:(Some p2)) in
  ignore (expect "t2" (Proc_mgr.new_thread pm ~proc:p2));
  ignore (expect "t3" (Proc_mgr.new_thread pm ~proc:p3));
  let used_before_p2 =
    (Perm_map.borrow pm.Proc_mgr.cntr_perms ~ptr:root).Container.used
  in
  ignore used_before_p2;
  expect "terminate p2" (Proc_mgr.terminate_process pm ~proc:p2);
  checkb "p2 gone" false (Perm_map.mem pm.Proc_mgr.proc_perms ~ptr:p2);
  checkb "p3 gone too" false (Perm_map.mem pm.Proc_mgr.proc_perms ~ptr:p3);
  checkb "p1 lives" true (Perm_map.mem pm.Proc_mgr.proc_perms ~ptr:p1);
  let c = Perm_map.borrow pm.Proc_mgr.cntr_perms ~ptr:root in
  (* only container + p1 + its pt remain *)
  checki "accounting restored" 3 c.Container.used;
  expect_wf pm

(* ------------------------------------------------------------------ *)
(* Endpoints                                                           *)

let test_endpoint_lifecycle () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  let p = expect "proc" (Proc_mgr.new_process pm ~container:root ~parent:None) in
  let th = expect "thread" (Proc_mgr.new_thread pm ~proc:p) in
  let ep = expect "endpoint" (Proc_mgr.new_endpoint pm ~thread:th ~slot:0) in
  let e = Perm_map.borrow pm.Proc_mgr.edpt_perms ~ptr:ep in
  checki "rc 1" 1 e.Endpoint.refcount;
  expect_err "slot occupied" Errno.Eexist (Proc_mgr.new_endpoint pm ~thread:th ~slot:0);
  expect_err "slot out of range" Errno.Einval
    (Proc_mgr.new_endpoint pm ~thread:th ~slot:99);
  expect_wf pm;
  expect "close" (Proc_mgr.close_endpoint_slot pm ~thread:th ~slot:0);
  checkb "endpoint freed" false (Perm_map.mem pm.Proc_mgr.edpt_perms ~ptr:ep);
  expect_wf pm

(* ------------------------------------------------------------------ *)
(* Container termination / revocation                                  *)

let test_terminate_container_harvest () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  let a = expect "A" (Proc_mgr.new_container pm ~parent:root ~quota:200 ~cpus:Iset.empty) in
  let aa = expect "AA" (Proc_mgr.new_container pm ~parent:a ~quota:50 ~cpus:Iset.empty) in
  let p = expect "proc" (Proc_mgr.new_process pm ~container:aa ~parent:None) in
  ignore (expect "thread" (Proc_mgr.new_thread pm ~proc:p));
  let root_used_before =
    (Perm_map.borrow pm.Proc_mgr.cntr_perms ~ptr:root).Container.used
  in
  let free_before = Page_alloc.free_count_4k pm.Proc_mgr.alloc in
  ignore free_before;
  expect "terminate A" (Proc_mgr.terminate_container pm ~container:a);
  checkb "A gone" false (Perm_map.mem pm.Proc_mgr.cntr_perms ~ptr:a);
  checkb "AA gone" false (Perm_map.mem pm.Proc_mgr.cntr_perms ~ptr:aa);
  checkb "proc gone" false (Perm_map.mem pm.Proc_mgr.proc_perms ~ptr:p);
  let rc = Perm_map.borrow pm.Proc_mgr.cntr_perms ~ptr:root in
  checki "delegation returned" 0 rc.Container.delegated;
  checki "root used unchanged" root_used_before rc.Container.used;
  checkb "subtree empty" true (Iset.is_empty rc.Container.subtree);
  expect_wf pm;
  expect_wf_rec pm

let test_terminate_root_refused () =
  let pm = mk_pm () in
  expect_err "root immortal" Errno.Eperm
    (Proc_mgr.terminate_container pm ~container:pm.Proc_mgr.root_container)

let test_surviving_endpoint_harvested () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  (* thread in root container receives an endpoint created by a child
     container's thread; killing the child must keep the endpoint alive,
     re-owned by the parent *)
  let rp = expect "rp" (Proc_mgr.new_process pm ~container:root ~parent:None) in
  let rth = expect "rth" (Proc_mgr.new_thread pm ~proc:rp) in
  let a = expect "A" (Proc_mgr.new_container pm ~parent:root ~quota:100 ~cpus:Iset.empty) in
  let ap = expect "ap" (Proc_mgr.new_process pm ~container:a ~parent:None) in
  let ath = expect "ath" (Proc_mgr.new_thread pm ~proc:ap) in
  let ep = expect "ep" (Proc_mgr.new_endpoint pm ~thread:ath ~slot:0) in
  (* share it with the root thread (as IPC endpoint-grant would) *)
  Proc_mgr.install_descriptor pm ~thread:rth ~slot:3 ~endpoint:ep;
  expect_wf pm;
  expect "terminate A" (Proc_mgr.terminate_container pm ~container:a);
  checkb "endpoint survives" true (Perm_map.mem pm.Proc_mgr.edpt_perms ~ptr:ep);
  let e = Perm_map.borrow pm.Proc_mgr.edpt_perms ~ptr:ep in
  checkb "re-owned by parent" true (e.Endpoint.owner_container = root);
  checki "rc dropped to 1" 1 e.Endpoint.refcount;
  expect_wf pm

(* ------------------------------------------------------------------ *)
(* Invariant checkers detect corruption                                *)

let test_invariants_catch_bad_path () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  let a = expect "A" (Proc_mgr.new_container pm ~parent:root ~quota:50 ~cpus:Iset.empty) in
  Perm_map.update pm.Proc_mgr.cntr_perms ~ptr:a (fun c ->
      { c with Container.path = [ a ] });
  checkb "flat path check fires" true (Pm_invariants.path_wf pm <> Ok ());
  checkb "recursive path check fires" true (Pm_invariants_rec.path_wf pm <> Ok ())

let test_invariants_catch_bad_subtree () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  let a = expect "A" (Proc_mgr.new_container pm ~parent:root ~quota:50 ~cpus:Iset.empty) in
  ignore a;
  Perm_map.update pm.Proc_mgr.cntr_perms ~ptr:root (fun c ->
      { c with Container.subtree = Iset.empty });
  checkb "flat subtree check fires" true (Pm_invariants.subtree_wf pm <> Ok ());
  checkb "recursive subtree check fires" true (Pm_invariants_rec.subtree_wf pm <> Ok ())

let test_invariants_catch_quota_drift () =
  let pm = mk_pm () in
  let root = pm.Proc_mgr.root_container in
  Perm_map.update pm.Proc_mgr.cntr_perms ~ptr:root (fun c ->
      { c with Container.used = c.Container.used + 7 });
  checkb "quota check fires" true (Pm_invariants.quota_wf pm <> Ok ())

(* ------------------------------------------------------------------ *)
(* Property: random lifecycle traffic keeps all invariants             *)

let prop_random_lifecycle =
  QCheck.Test.make ~name:"invariants hold under random lifecycle traffic" ~count:30
    QCheck.(list (int_bound 5))
    (fun ops ->
      let pm = mk_pm () in
      let root = pm.Proc_mgr.root_container in
      let containers = ref [ root ] in
      let procs = ref [] in
      let pick l n = List.nth l (n mod List.length l) in
      List.iteri
        (fun i op ->
          match op with
          | 0 ->
            (match
               Proc_mgr.new_container pm ~parent:(pick !containers i) ~quota:10
                 ~cpus:Iset.empty
             with
             | Ok c -> containers := c :: !containers
             | Error _ -> ())
          | 1 | 2 ->
            (match
               Proc_mgr.new_process pm ~container:(pick !containers i) ~parent:None
             with
             | Ok p -> procs := p :: !procs
             | Error _ -> ())
          | 3 ->
            (match !procs with
             | p :: _ -> ignore (Proc_mgr.new_thread pm ~proc:p)
             | [] -> ())
          | 4 ->
            (match !procs with
             | p :: rest when Perm_map.mem pm.Proc_mgr.proc_perms ~ptr:p ->
               ignore (Proc_mgr.terminate_process pm ~proc:p);
               procs := rest
             | _ -> ())
          | _ ->
            (match !containers with
             | c :: rest when c <> root ->
               (match Proc_mgr.terminate_container pm ~container:c with
                | Ok () ->
                  containers := rest;
                  (* drop procs that died with the container *)
                  procs :=
                    List.filter
                      (fun p -> Perm_map.mem pm.Proc_mgr.proc_perms ~ptr:p)
                      !procs
                | Error _ -> ())
             | _ -> ()))
        ops;
      Pm_invariants.all pm = Ok () && Pm_invariants_rec.all pm = Ok ())

let () =
  Atmo_san.Runtime.arm_of_env ();
  Alcotest.run ~and_exit:false "pm"
    [
      ( "primitives",
        [
          Alcotest.test_case "static list" `Quick test_static_list;
          Alcotest.test_case "perm map linearity" `Quick test_perm_map_linearity;
          Alcotest.test_case "perm map iteration round trip" `Quick
            test_perm_map_iteration_round_trip;
        ] );
      ( "containers",
        [
          Alcotest.test_case "boot root" `Quick test_boot_root;
          Alcotest.test_case "tree + ghost state" `Quick test_new_container_tree;
          Alcotest.test_case "quota limits" `Quick test_container_quota_limits;
          Alcotest.test_case "cpu reservations" `Quick test_cpu_reservation_subset;
        ] );
      ( "processes",
        [
          Alcotest.test_case "process + thread" `Quick test_process_and_thread;
          Alcotest.test_case "process tree" `Quick test_process_tree;
          Alcotest.test_case "terminate subtree" `Quick test_terminate_process_subtree;
        ] );
      ( "endpoints",
        [ Alcotest.test_case "lifecycle" `Quick test_endpoint_lifecycle ] );
      ( "revocation",
        [
          Alcotest.test_case "terminate + harvest" `Quick test_terminate_container_harvest;
          Alcotest.test_case "root immortal" `Quick test_terminate_root_refused;
          Alcotest.test_case "surviving endpoint harvested" `Quick
            test_surviving_endpoint_harvested;
        ] );
      ( "checkers",
        [
          Alcotest.test_case "catch bad path" `Quick test_invariants_catch_bad_path;
          Alcotest.test_case "catch bad subtree" `Quick test_invariants_catch_bad_subtree;
          Alcotest.test_case "catch quota drift" `Quick test_invariants_catch_quota_drift;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_random_lifecycle ] );
    ];
  Atmo_san.Runtime.exit_check ()
