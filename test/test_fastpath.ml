(* IPC fastpath oracle: the fastpath must be observationally invisible.

   A seeded random ping-pong script is applied to two freshly booted
   kernels, one with the fastpath enabled and one with it disabled;
   after every step the return values, abstract states and the concrete
   run-queue order must agree exactly.  Also structural tests for the
   intrusive O(1) run-queue deque that the fastpath manipulates by
   hand. *)

open Atmo_util
module Syscall = Atmo_spec.Syscall
module Kernel = Atmo_core.Kernel
module Invariants = Atmo_core.Invariants
module Abstraction = Atmo_core.Abstraction
module A = Atmo_spec.Abstract_state
module Message = Atmo_pm.Message
module Thread = Atmo_pm.Thread
module Endpoint = Atmo_pm.Endpoint
module Perm_map = Atmo_pm.Perm_map
module Proc_mgr = Atmo_pm.Proc_mgr
module Sched_queue = Atmo_pm.Sched_queue
module Phys_mem = Atmo_hw.Phys_mem
module Metrics = Atmo_obs.Metrics

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let expect_wf what k =
  match Invariants.total_wf k with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: total_wf broken: %s" what msg

let boot () =
  match Kernel.boot Kernel.default_boot with
  | Ok (k, init) -> (k, init)
  | Error e -> Alcotest.failf "boot failed: %a" Errno.pp e

(* A kernel with three threads all holding the same endpoint in slot 0,
   as a spawner would arrange.  Both oracle kernels run this exact
   setup, so their initial states are identical. *)
let world () =
  let k, init = boot () in
  let spawn () =
    match Kernel.step k ~thread:init Syscall.New_thread with
    | Syscall.Rptr t -> t
    | r -> Alcotest.failf "new_thread: %a" Syscall.pp_ret r
  in
  let t2 = spawn () in
  let t3 = spawn () in
  (match Kernel.step k ~thread:init (Syscall.New_endpoint { slot = 0 }) with
   | Syscall.Rptr _ -> ()
   | r -> Alcotest.failf "new_endpoint: %a" Syscall.pp_ret r);
  let ep =
    match Thread.slot (Perm_map.borrow k.Kernel.pm.Proc_mgr.thrd_perms ~ptr:init) 0 with
    | Some ep -> ep
    | None -> Alcotest.fail "endpoint slot empty"
  in
  List.iter
    (fun t -> Proc_mgr.install_descriptor k.Kernel.pm ~thread:t ~slot:0 ~endpoint:ep)
    [ t2; t3 ];
  (k, [| init; t2; t3 |])

(* ------------------------------------------------------------------ *)
(* The randomized oracle                                               *)

let gen_call rng =
  match Random.State.int rng 8 with
  | 0 | 1 -> Syscall.Send { slot = 0; msg = Message.scalars_only [ Random.State.int rng 1000 ] }
  | 2 | 3 -> Syscall.Recv { slot = 0 }
  | 4 -> Syscall.Send_nb { slot = 0; msg = Message.scalars_only [ Random.State.int rng 1000 ] }
  | 5 -> Syscall.Recv_nb { slot = 0 }
  | 6 -> Syscall.Recv_reject { slot = 0 }
  | _ -> Syscall.Yield

let gen_script rng ~len =
  List.init len (fun _ -> (Random.State.int rng 3, gen_call rng))

let run_script ~script ~fastpath (k, actors) =
  List.map
    (fun (who, call) ->
      Kernel.set_fastpath fastpath;
      let ret = Kernel.step k ~thread:actors.(who) call in
      (ret, Abstraction.abstract k, Proc_mgr.run_queue_list k.Kernel.pm))
    script

let test_oracle () =
  let rng = Random.State.make [| 0x417 |] in
  let fast_before = Metrics.Counter.value (Metrics.counter "ipc/fastpath") in
  Fun.protect
    ~finally:(fun () -> Kernel.set_fastpath true)
    (fun () ->
      for round = 1 to 25 do
        let script = gen_script rng ~len:40 in
        let ka = world () and kb = world () in
        let ta = run_script ~script ~fastpath:true ka in
        let tb = run_script ~script ~fastpath:false kb in
        List.iteri
          (fun i ((ra, sa, qa), (rb, sb, qb)) ->
            if ra <> rb then
              Alcotest.failf "round %d step %d: ret diverged: %a vs %a" round i
                Syscall.pp_ret ra Syscall.pp_ret rb;
            if not (A.equal sa sb) then
              Alcotest.failf "round %d step %d: abstract state diverged" round i;
            if qa <> qb then
              Alcotest.failf "round %d step %d: run queue diverged" round i)
          (List.combine ta tb);
        expect_wf "fastpath kernel" (fst ka);
        expect_wf "slowpath kernel" (fst kb)
      done);
  checkb "fastpath exercised" true
    (Metrics.Counter.value (Metrics.counter "ipc/fastpath") > fast_before)

let test_fastpath_counter () =
  Kernel.set_fastpath true;
  let k, actors = world () in
  let fast = Metrics.counter "ipc/fastpath" in
  let before = Metrics.Counter.value fast in
  (* park both spare threads as receivers: the run queue drains to
     empty and the current thread sends, so every fastpath guard holds *)
  List.iter
    (fun who ->
      match Kernel.step k ~thread:actors.(who) (Syscall.Recv { slot = 0 }) with
      | Syscall.Rblocked -> ()
      | r -> Alcotest.failf "recv should block: %a" Syscall.pp_ret r)
    [ 1; 2 ];
  (match
     Kernel.step k ~thread:actors.(0)
       (Syscall.Send { slot = 0; msg = Message.scalars_only [ 7 ] })
   with
   | Syscall.Runit -> ()
   | r -> Alcotest.failf "send: %a" Syscall.pp_ret r);
  checki "fastpath taken" (before + 1) (Metrics.Counter.value fast);
  (* direct switch: the parked receiver now owns the CPU *)
  checkb "receiver current" true (Proc_mgr.current k.Kernel.pm = Some actors.(1));
  checkb "sender requeued" true
    (Proc_mgr.run_queue_list k.Kernel.pm = [ actors.(0) ]);
  expect_wf "after fastpath" k

let test_grant_takes_slowpath () =
  Kernel.set_fastpath true;
  let k, actors = world () in
  let slow = Metrics.counter "ipc/slowpath" in
  let before = Metrics.Counter.value slow in
  (match Kernel.step k ~thread:actors.(0)
           (Syscall.Mmap
              { va = 0x4000_0000; count = 1; size = Atmo_pmem.Page_state.S4k;
                perm = Atmo_hw.Pte_bits.perm_rw })
   with
   | Syscall.Rmapped _ -> ()
   | r -> Alcotest.failf "mmap: %a" Syscall.pp_ret r);
  (* empty run queue and parked receiver: only the page grant stands
     between this send and the fastpath *)
  List.iter
    (fun who ->
      match Kernel.step k ~thread:actors.(who) (Syscall.Recv { slot = 0 }) with
      | Syscall.Rblocked -> ()
      | r -> Alcotest.failf "recv should block: %a" Syscall.pp_ret r)
    [ 1; 2 ];
  let msg =
    { Message.scalars = [ 1 ];
      page = Some { Message.src_vaddr = 0x4000_0000; dst_vaddr = 0x5000_0000 };
      endpoint = None }
  in
  (match Kernel.step k ~thread:actors.(0) (Syscall.Send { slot = 0; msg }) with
   | Syscall.Runit -> ()
   | r -> Alcotest.failf "send: %a" Syscall.pp_ret r);
  checki "grant declined the fastpath" (before + 1) (Metrics.Counter.value slow);
  expect_wf "after grant" k

(* ------------------------------------------------------------------ *)
(* Run-queue deque structure                                           *)

let page n = n * Phys_mem.page_size

let test_queue_fifo () =
  let mem = Phys_mem.create ~page_count:16 in
  let q = Sched_queue.create mem in
  checkb "fresh empty" true (Sched_queue.is_empty q);
  Sched_queue.push_back q (page 3);
  Sched_queue.push_back q (page 7);
  Sched_queue.push_back q (page 5);
  checki "length" 3 (Sched_queue.length q);
  checkb "mem" true (Sched_queue.mem q (page 7));
  checkb "not mem" false (Sched_queue.mem q (page 4));
  Alcotest.(check (list int)) "fifo order" [ page 3; page 7; page 5 ]
    (Sched_queue.to_list q);
  checkb "peek" true (Sched_queue.peek_front q = Some (page 3));
  checkb "pop" true (Sched_queue.pop_front q = Some (page 3));
  Sched_queue.push_front q (page 9);
  Alcotest.(check (list int)) "push_front" [ page 9; page 7; page 5 ]
    (Sched_queue.to_list q);
  (match Sched_queue.wf q with
   | Ok () -> ()
   | Error m -> Alcotest.failf "wf: %s" m)

let test_queue_remove () =
  let mem = Phys_mem.create ~page_count:16 in
  let q = Sched_queue.create mem in
  List.iter (fun n -> Sched_queue.push_back q (page n)) [ 1; 2; 3; 4 ];
  Sched_queue.remove q (page 3);
  Alcotest.(check (list int)) "middle removed" [ page 1; page 2; page 4 ]
    (Sched_queue.to_list q);
  Sched_queue.remove q (page 1);
  Alcotest.(check (list int)) "head removed" [ page 2; page 4 ]
    (Sched_queue.to_list q);
  Sched_queue.remove_if_queued q (page 9);
  Sched_queue.remove_if_queued q (page 4);
  Alcotest.(check (list int)) "tail removed" [ page 2 ] (Sched_queue.to_list q);
  (match Sched_queue.wf q with
   | Ok () -> ()
   | Error m -> Alcotest.failf "wf: %s" m)

let test_queue_misuse () =
  let mem = Phys_mem.create ~page_count:16 in
  let q = Sched_queue.create mem in
  Sched_queue.push_back q (page 2);
  checkb "double enqueue rejected" true
    (try Sched_queue.push_back q (page 2); false with Invalid_argument _ -> true);
  checkb "unaligned rejected" true
    (try Sched_queue.push_back q (page 3 + 1); false
     with Invalid_argument _ -> true);
  checkb "absent remove rejected" true
    (try Sched_queue.remove q (page 5); false with Invalid_argument _ -> true)

let () =
  Alcotest.run "fastpath"
    [
      ( "oracle",
        [
          Alcotest.test_case "fastpath on/off bit-identical" `Quick test_oracle;
          Alcotest.test_case "fastpath counter and direct switch" `Quick
            test_fastpath_counter;
          Alcotest.test_case "page grant declines fastpath" `Quick
            test_grant_takes_slowpath;
        ] );
      ( "run_queue",
        [
          Alcotest.test_case "fifo order" `Quick test_queue_fifo;
          Alcotest.test_case "removal" `Quick test_queue_remove;
          Alcotest.test_case "misuse rejected" `Quick test_queue_misuse;
        ] );
    ]
