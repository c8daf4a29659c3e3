(* The paper's evaluation (§6): Tables 1-3 and Figures 2-7, from the
   verification obligation suites (Tables 1-2, Figures 2-3) and the
   calibrated cycle model plus the functional data paths (Table 3,
   Figures 4-7).  See EXPERIMENTS.md for the paper-vs-measured record. *)

open Common
module Pipeline = Atmo_sim.Pipeline
module Cost = Atmo_sim.Cost
module Clock = Atmo_hw.Clock
module Runner = Atmo_verif.Runner
module Catalog = Atmo_verif.Catalog
module Effort = Atmo_verif.Effort
module Obligation = Atmo_verif.Obligation
module Incremental = Atmo_verif.Incremental
module Page_state = Atmo_pmem.Page_state
module Pte = Atmo_hw.Pte_bits

(* ------------------------------------------------------------------ *)
(* Table 1: proof effort across systems                                *)

let table1 () =
  section "Table 1: proof effort for existing verification projects";
  line "%-12s %-10s %-14s %10s" "Name" "Language" "Spec Lang." "Ratio";
  List.iter
    (fun (r : Effort.row) ->
      line "%-12s %-10s %-14s %9.1f:1" r.Effort.system r.Effort.language
        r.Effort.spec_language r.Effort.ratio)
    Effort.table1;
  match Effort.measure_repo ~root:"." with
  | Some s ->
    line "";
    line "this reproduction (measured): %d spec/check lines, %d exec lines (%d of them the \
          kernel's), %d test lines"
      s.Effort.spec_lines s.Effort.exec_lines s.Effort.kernel_lines s.Effort.test_lines;
    line "check-to-code ratio: %.2f:1 over the kernel, %.2f:1 over all exec lines (the \
          paper's Atmosphere: 3.32:1 over its kernel)"
      s.Effort.kernel_ratio s.Effort.ratio
  | None -> line "(repo sources not reachable; skipping measured ratio)"

(* ------------------------------------------------------------------ *)
(* Table 2: verification time                                          *)

let parallel_threads =
  (* the paper reports 1- and 8-thread verification; parallel discharge
     only makes sense when the host actually has cores to give *)
  min 8 (Domain.recommended_domain_count ())

let run_suite name obls =
  let r1 = Runner.run ~threads:1 obls in
  let par =
    if parallel_threads >= 2 then
      let r = Runner.run ~threads:parallel_threads obls in
      Printf.sprintf "%d threads %8.1f ms" parallel_threads (r.Runner.wall_s *. 1000.)
    else "(single-core host: parallel discharge skipped)"
  in
  let status = if Runner.all_ok r1 then "ok" else "FAIL" in
  line "%-22s %4d obligations   1 thread %8.1f ms   %s   %s" name
    (List.length obls) (r1.Runner.wall_s *. 1000.) par status;
  List.iter
    (fun (f : Obligation.result) ->
      line "    FAILED %s: %s" f.Obligation.name
        (Option.value ~default:"?" f.Obligation.detail))
    (Runner.failures r1)

(* The flat and the recursive formulation of the same checks, each
   discharged once per round in rotating rounds. *)
let flat_vs_recursive what ~flat ~recursive =
  let discharge obls () () = List.iter (fun o -> ignore (Obligation.discharge o)) obls in
  match rotating [ discharge flat; discharge recursive ] with
  | [ f; r ] ->
    let ratio = List.map2 (fun f r -> r /. Float.max 1e-9 f) f r in
    line "%s, host ms, median [IQR] of %d rounds:" what rounds;
    line "  flat %a  recursive %a  recursive/flat %.2f [IQR %.2f]" pp_timed f pp_timed r
      (H.median ratio) (iqr ratio)
  | _ -> ()

let table2 () =
  section "Table 2: verification time (discharge of the obligation suites)";
  line "(paper, CloudLab c220g5, 1 thread / 8 threads:";
  line "   NrOS page table 1m52s / 51s      (5329 proof, 400 exec, 13.3)";
  line "   Atmo page table 33s / -          (2168 proof, 496 exec, 4.37)";
  line "   Mimalloc 8m12s / 1m40s           (13703 proof, 3178 exec, 4.3)";
  line "   VeriSMo 61m24s / 12m11s          (16101 proof, 7915 exec, 2.0)";
  line "   Atmosphere 3m29s / 1m07s         (20098 proof, 6048 exec, 3.32)";
  line " Mimalloc and VeriSMo are external artifacts: reported only.";
  line " This reproduction discharges executable obligations instead of SMT";
  line " queries, so absolute times differ; the flat-vs-recursive ordering is";
  line " the result under test.)";
  line "";
  let pt = Catalog.build_pt ~mappings:4096 in
  let nros = Catalog.pt_obligations_recursive pt in
  let flat = Catalog.pt_obligations_flat pt in
  run_suite "NrOS-style page table" nros;
  run_suite "Atmo page table (flat)" flat;
  (match Catalog.build_world ~scale:6 with
   | Error msg -> line "full suite failed to build: %s" msg
   | Ok (k, init) ->
     let suite = Catalog.suite_for ~scale:6 k in
     Incremental.arm ();
     Fun.protect ~finally:Incremental.disarm (fun () ->
         let r_full = Incremental.run ~threads:1 suite in
         line "%-22s %4d obligations   1 thread %8.1f ms   %s" "Atmosphere (full)"
           (List.length suite)
           (r_full.Runner.wall_s *. 1000.)
           (if Runner.all_ok r_full then "ok" else "FAIL");
         (* the incremental column: one yield, then re-check only what
            the transition dirtied (see `bench verif` for the gated run) *)
         ignore (Kernel.step k ~thread:init Syscall.Yield);
         let r_inc = Incremental.run ~threads:1 suite in
         line
           "%-22s %4d obligations   1 thread %8.1f ms   re-checked %d, reused %d cached"
           "Atmosphere (incremental)" (List.length suite)
           (r_inc.Runner.wall_s *. 1000.)
           r_inc.Runner.rechecked r_inc.Runner.reused));
  line "";
  (* compare the two obligations both formulations share *)
  let named names = List.filter (fun (o : Obligation.t) -> List.mem o.Obligation.name names) in
  flat_vs_recursive "page table, refinement + structure"
    ~flat:(named [ "pt/refinement"; "pt/structure" ] flat)
    ~recursive:(named [ "nros_pt/refinement"; "nros_pt/structure" ] nros);
  line "(paper: Atmosphere's page table verifies >3x faster than NrOS's on one thread)";
  (* the same ablation on the container tree: ghost-field (flat)
     invariants vs structural re-derivation *)
  (match Catalog.build_tree ~depth:40 ~fanout:4 with
   | Error msg -> line "tree world failed: %s" msg
   | Ok tree ->
     let flat = Catalog.pm_tree_obligations_flat tree in
     let recursive = Catalog.pm_tree_obligations_recursive tree in
     run_suite "container tree (flat)" flat;
     run_suite "container tree (recursive)" recursive;
     flat_vs_recursive "container-tree ablation" ~flat ~recursive;
     line "(exhaustive evaluation of the flat forall-c-forall-d quantifiers is not";
     line " necessarily cheaper than one structural derivation: the paper's flat";
     line " advantage is about SMT proof effort, which the page-table ablation above";
     line " mirrors; see EXPERIMENTS.md)")

(* ------------------------------------------------------------------ *)
(* Table 3: IPC and mapping latency                                    *)

let table3 () =
  section "Table 3: latency of communication and typical system calls (cycles)";
  line "%-14s %12s %8s" "System call" "Atmosphere" "seL4";
  line "%-14s %12d %8d" "Call/reply" (Cost.atmo_call_reply cost)
    (Atmo_baselines.Sel4.call_reply_cycles cost);
  line "%-14s %12d %8d" "Map a page" cost.Cost.map_page
    (Atmo_baselines.Sel4.map_page_cycles cost);
  line "(paper: call/reply 1058 vs 1026; map 1984 vs 2650)";
  (* sanity: drive the functional kernel through the same two paths and
     report their host time per operation *)
  let w = Scenario.boot_pair () in
  let ops = 1000 in
  let call_reply () () = pingpong w ops in
  let map_unmap () () =
    for _ = 1 to ops do
      ignore
        (Kernel.step w.kernel ~thread:w.init
           (Syscall.Mmap
              { va = 0x4000_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw }));
      ignore
        (Kernel.step w.kernel ~thread:w.init
           (Syscall.Munmap { va = 0x4000_0000; count = 1; size = Page_state.S4k }))
    done
  in
  let per_op = List.map (List.map (fun ms -> ms *. 1e6 /. float_of_int ops)) in
  match per_op (rotating [ call_reply; map_unmap ]) with
  | [ call; map ] ->
    line "(functional model, host ns per operation, median [IQR] of %d rounds of %d:" rounds ops;
    line "   Recv park + rendezvous Send %a" pp_timed call;
    line "   mmap + munmap of one page   %a)" pp_timed map
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Figure 2: per-function verification time                            *)

let fig2 () =
  section "Figure 2: verification time for each function (per-obligation discharge)";
  match Catalog.full_suite ~scale:6 with
  | Error msg -> line "suite failed to build: %s" msg
  | Ok suite ->
    let report = Runner.run ~threads:1 suite in
    let sorted =
      List.sort
        (fun (a : Obligation.result) b -> compare b.Obligation.elapsed_s a.Obligation.elapsed_s)
        report.Runner.results
    in
    let worst = match sorted with [] -> 1e-9 | r :: _ -> r.Obligation.elapsed_s in
    List.iter
      (fun (r : Obligation.result) ->
        let bar = int_of_float (40. *. r.Obligation.elapsed_s /. worst) in
        line "%-32s %9.3f ms %s%s" r.Obligation.name (r.Obligation.elapsed_s *. 1000.)
          (String.make (max bar 1) '#')
          (if r.Obligation.ok then "" else "  FAIL"))
      sorted;
    line "";
    line "total: %.1f ms over %d obligations (paper: all functions < 20 s, most < 4 s)"
      (Runner.total_check_time report *. 1000.)
      (List.length sorted);
    (* scaling: discharge time as the kernel state grows — the flat
       formulations keep this near-linear *)
    line "";
    line "state-invariant discharge time vs world scale:";
    List.iter
      (fun scale ->
        match Catalog.build_world ~scale with
        | Error msg -> line "  scale %2d: %s" scale msg
        | Ok (k, _) ->
          let r = Runner.run ~threads:1 (Catalog.kernel_obligations k) in
          line "  scale %2d (%3d containers): %7.2f ms" scale
            (Atmo_pm.Perm_map.cardinal k.Kernel.pm.Atmo_pm.Proc_mgr.cntr_perms)
            (Runner.total_check_time r *. 1000.))
      [ 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Figure 3: development history                                       *)

let fig3 () =
  section "Figure 3: commit history (reconstruction of the three versions)";
  line "%-6s %-8s %10s %10s" "month" "version" "exec LoC" "proof LoC";
  List.iter
    (fun (p : Effort.month_point) ->
      line "%-6d v%-7d %10d %10d  %s" p.Effort.month p.Effort.version p.Effort.exec_loc
        p.Effort.proof_loc
        (String.make (p.Effort.proof_loc / 600) '*'))
    Effort.fig3_series;
  line "(clean-slate rewrites at months 2 and 10; v3 starts from ~50%% of v2's code)"

(* ------------------------------------------------------------------ *)
(* Figure 4: ixgbe driver performance                                  *)

let packet_configs =
  [ Pipeline.Atmo_driver; Pipeline.Atmo_c2; Pipeline.Atmo_c1 1; Pipeline.Atmo_c1 32 ]

let fig4 () =
  section "Figure 4: ixgbe driver performance (64B UDP, Mpps per core)";
  let app = 56 (* echo-style benchmark app per packet *) in
  let drv = cost.Cost.driver_per_packet in
  let cap = cost.Cost.nic_line_rate_pps in
  line "%-14s %8.2f Mpps" "linux"
    (Atmo_baselines.Linux_model.packet_pps cost ~app_cycles:app /. 1e6);
  line "%-14s %8.2f Mpps" "dpdk"
    (Atmo_baselines.Dpdk_model.packet_pps cost ~app_cycles:app /. 1e6);
  List.iter
    (fun config ->
      line "%-14s %8.2f Mpps" (Pipeline.name config)
        (Pipeline.throughput ~cost ~app_cycles:app ~driver_cycles:drv ~device_cap:cap
           config
         /. 1e6))
    packet_configs;
  line "(paper: linux 0.89; dpdk/atmo-driver/atmo-c2 at 14.2 line rate;";
  line " atmo-c1-b1 2.3; atmo-c1-b32 11.1)";
  (* exercise the functional NIC path: frames through rings and IOMMU *)
  let frames = 2000 in
  let nic = ixgbe_rx () in
  let received = ixgbe_forward nic ~frames in
  (* fault-free, every frame the ring accepts is harvested at once *)
  line "(functional path: %d/%d frames through descriptor rings + IOMMU, %d drops)" received
    frames (frames - received)

(* ------------------------------------------------------------------ *)
(* Figure 5: NVMe driver performance                                   *)

let fig5 () =
  section "Figure 5: NVMe driver performance (4KiB sequential, KIOPS per core)";
  let app = 300 (* submission + completion handling per IO *) in
  let drv = cost.Cost.spdk_per_io (* polled NVMe driver per IO *) in
  let show op cap penalty =
    line "-- sequential %s --" op;
    List.iter
      (fun batch ->
        line "  batch %-3d  linux %8.1f   spdk %8.1f   %s" batch
          ((if op = "read" then Atmo_baselines.Linux_model.nvme_read_iops cost ~batch
            else Atmo_baselines.Linux_model.nvme_write_iops cost ~batch)
           /. 1e3)
          ((if op = "read" then Atmo_baselines.Dpdk_model.nvme_read_iops cost ~batch
            else Atmo_baselines.Dpdk_model.nvme_write_iops cost ~batch)
           /. 1e3)
          (String.concat "   "
             (List.map
                (fun config ->
                  let capped = cap /. penalty in
                  Printf.sprintf "%s %8.1f" (Pipeline.name config)
                    (Pipeline.throughput ~cost ~app_cycles:app ~driver_cycles:drv
                       ~device_cap:capped config
                     /. 1e3))
                [ Pipeline.Atmo_driver; Pipeline.Atmo_c2; Pipeline.Atmo_c1 batch ])))
      [ 1; 32 ]
  in
  show "read" cost.Cost.nvme_read_cap_iops 1.0;
  show "write" cost.Cost.nvme_write_cap_iops (1. +. cost.Cost.nvme_atmo_write_penalty);
  line "(paper: reads linux 13K/141K, atmo=spdk at device max;";
  line " writes linux within 3%% of 256K, atmo ~232K: 10%% overhead)";
  (* functional device: submit/poll through the queue-pair model *)
  let clock = Clock.create () in
  let dev = Atmo_drivers.Nvme.create ~clock ~cost ~capacity_blocks:4096 in
  let block = Bytes.make Atmo_drivers.Nvme.block_bytes 'd' in
  let writes = 256 in
  for lba = 0 to writes - 1 do
    ignore (Atmo_drivers.Nvme.submit_write dev ~lba ~data:block)
  done;
  let completed = List.length (Atmo_drivers.Nvme.wait_all dev) in
  line "(functional path: %d/%d writes completed in %.2f virtual ms)" completed writes
    (Clock.seconds clock *. 1e3)

(* ------------------------------------------------------------------ *)
(* Figure 6: Maglev and httpd                                          *)

let maglev_work = 150 (* per-packet lookup + header rewrite *)

let fig6 () =
  section "Figure 6: Maglev load balancer (Mpps) and httpd (Krps)";
  let drv = cost.Cost.driver_per_packet in
  let cap = cost.Cost.nic_line_rate_pps in
  line "-- maglev --";
  line "%-14s %8.2f Mpps" "linux"
    (Atmo_baselines.Linux_model.packet_pps cost ~app_cycles:maglev_work /. 1e6);
  line "%-14s %8.2f Mpps" "dpdk"
    (Atmo_baselines.Dpdk_model.packet_pps cost ~app_cycles:maglev_work /. 1e6);
  List.iter
    (fun config ->
      line "%-14s %8.2f Mpps" (Pipeline.name config)
        (Pipeline.throughput ~cost ~app_cycles:maglev_work ~driver_cycles:drv
           ~device_cap:cap config
         /. 1e6))
    [ Pipeline.Atmo_c2; Pipeline.Atmo_c1 1; Pipeline.Atmo_c1 32 ];
  line "(paper: linux 1.0; dpdk 9.72; atmo-c2 13.3; atmo-c1-b1 1.66; atmo-c1-b32 8.8)";
  (* functional maglev: steer real frames, report balance *)
  let backends = List.init 8 (fun i -> Printf.sprintf "backend-%d" i) in
  let lb = Atmo_net.Maglev.create ~backends ~table_size:65537 in
  let counts = Hashtbl.create 8 in
  for i = 0 to 9999 do
    let flow =
      Atmo_net.Packet.flow_of_ints ~src:(0x0a000000 + i) ~dst:0x0b000001
        ~sport:(1024 + (i mod 50000)) ~dport:80
    in
    let frame = Atmo_net.Packet.build flow ~payload:Bytes.empty in
    match Atmo_net.Maglev.lookup_packet lb frame with
    | Some b -> Hashtbl.replace counts b (1 + Option.value ~default:0 (Hashtbl.find_opt counts b))
    | None -> ()
  done;
  let mn = Hashtbl.fold (fun _ v acc -> min v acc) counts max_int in
  let mx = Hashtbl.fold (fun _ v acc -> max v acc) counts 0 in
  line "(functional path: 10000 flows over %d backends, min/max per backend %d/%d)"
    (List.length backends) mn mx;
  line "";
  line "-- httpd --";
  let request_work = 20000 in
  line "%-14s %8.1f Krps" "nginx(linux)"
    (Atmo_baselines.Nginx_model.requests_per_second cost ~request_work /. 1e3);
  line "%-14s %8.1f Krps" "atmo-httpd"
    (cost.Cost.frequency_hz
     /. float_of_int (request_work + cost.Cost.atmo_httpd_overhead)
     /. 1e3);
  line "(paper: nginx 70.9 Krps; httpd 99.4 Krps)";
  (* functional httpd: serve real requests round-robin over connections *)
  let server =
    Atmo_net.Httpd.create ~routes:[ ("/", "<html>hello</html>"); ("/about", "<html>atmo</html>") ]
  in
  let conns = List.init 20 (fun _ -> Atmo_net.Httpd.open_conn server) in
  List.iteri
    (fun i c ->
      for _ = 0 to 4 do
        Atmo_net.Httpd.submit c
          (Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n\r\n"
             (if i mod 2 = 0 then "/" else "/about"))
      done)
    conns;
  let served = ref 0 in
  for _round = 0 to 5 do
    served := !served + Atmo_net.Httpd.poll_round server conns
  done;
  line "(functional path: %d requests served over %d connections)" !served
    (List.length conns)

(* ------------------------------------------------------------------ *)
(* Figure 7: key-value store                                           *)

let fig7 () =
  section "Figure 7: key-value store (Mops, GET-heavy)";
  let kv_cycles ~table_entries ~kv_bytes =
    (* base lookup + per-byte handling + locality penalty for the table
       that exceeds the last-level cache *)
    180 + (2 * 2 * kv_bytes) + (if table_entries > 4_000_000 then 60 else 0)
  in
  let drv = cost.Cost.driver_per_packet in
  let cap = cost.Cost.nic_line_rate_pps in
  List.iter
    (fun table_entries ->
      line "-- table with %dM entries --" (table_entries / 1_000_000);
      List.iter
        (fun kv_bytes ->
          let app = kv_cycles ~table_entries ~kv_bytes in
          line "  <%2dB,%2dB>  linux-dpdk %6.2f   atmo-c2 %6.2f   atmo-c1-b32 %6.2f"
            kv_bytes kv_bytes
            (Atmo_baselines.Dpdk_model.packet_pps cost ~app_cycles:app /. 1e6)
            (Pipeline.throughput ~cost ~app_cycles:app ~driver_cycles:drv
               ~device_cap:cap Pipeline.Atmo_c2
             /. 1e6)
            (Pipeline.throughput ~cost ~app_cycles:app ~driver_cycles:drv
               ~device_cap:cap (Pipeline.Atmo_c1 32)
             /. 1e6))
        [ 8; 16; 32 ])
    [ 1_000_000; 8_000_000 ];
  line "(shape: atmo-c2 >= dpdk > atmo-c1-b32; larger kv sizes and the 8M table cost";
  line " throughput via per-byte work and cache locality, as in the paper)";
  (* functional store: zipfian GET-heavy traffic against the real table *)
  let store = Atmo_net.Kv_store.create ~entries:100_003 in
  let w = Atmo_net.Workload.create ~seed:11 ~keys:50_000 (Atmo_net.Workload.Zipfian 0.99) in
  let hits = ref 0 and sets = ref 0 and gets = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Atmo_net.Workload.Set k ->
        incr sets;
        ignore
          (Atmo_net.Kv_store.set store
             ~key:(Atmo_net.Workload.key_bytes k ~size:16)
             ~value:(Bytes.make 16 'v'))
      | Atmo_net.Workload.Get k ->
        incr gets;
        if Atmo_net.Kv_store.get store ~key:(Atmo_net.Workload.key_bytes k ~size:16) <> None
        then incr hits)
    (Atmo_net.Workload.ops w ~read_ratio:0.9 ~count:100_000);
  let max_probe, mean_probe = Atmo_net.Kv_store.probe_stats store in
  line
    "(functional path: 100000 zipfian(0.99) ops, %d sets %d gets %d hits; probes max %d mean %.2f at load %.2f)"
    !sets !gets !hits max_probe mean_probe
    (float_of_int (Atmo_net.Kv_store.length store)
     /. float_of_int (Atmo_net.Kv_store.capacity store))

