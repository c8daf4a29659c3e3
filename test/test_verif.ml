(* Verification machinery: obligations, the runner (sequential and
   multi-domain), the catalog, and effort accounting. *)

module Obligation = Atmo_verif.Obligation
module Runner = Atmo_verif.Runner
module Catalog = Atmo_verif.Catalog
module Effort = Atmo_verif.Effort
module Pt_refine = Atmo_pt.Pt_refine
module Nros_pt = Atmo_pt.Nros_pt

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ok_obl name = Obligation.make ~name ~group:"t" (fun () -> Ok ())
let fail_obl name = Obligation.make ~name ~group:"t" (fun () -> Error "broken")
let raise_obl name = Obligation.make ~name ~group:"t" (fun () -> failwith "boom")

let test_discharge () =
  let r = Obligation.discharge (ok_obl "a") in
  checkb "ok" true r.Obligation.ok;
  let r = Obligation.discharge (fail_obl "b") in
  checkb "fail" false r.Obligation.ok;
  checkb "detail" true (r.Obligation.detail = Some "broken");
  let r = Obligation.discharge (raise_obl "c") in
  checkb "exception contained" false r.Obligation.ok

let test_runner_sequential () =
  let report = Runner.run [ ok_obl "a"; fail_obl "b"; ok_obl "c" ] in
  checki "three results" 3 (List.length report.Runner.results);
  checkb "not all ok" false (Runner.all_ok report);
  checki "one failure" 1 (List.length (Runner.failures report))

let test_runner_parallel_matches () =
  let obls = List.init 12 (fun i -> if i mod 5 = 0 then fail_obl (string_of_int i) else ok_obl (string_of_int i)) in
  let seq = Runner.run ~threads:1 obls in
  let par = Runner.run ~threads:3 obls in
  checki "same count" (List.length seq.Runner.results) (List.length par.Runner.results);
  let names r =
    List.map (fun (x : Obligation.result) -> (x.Obligation.name, x.Obligation.ok)) r.Runner.results
  in
  checkb "same verdicts, in suite order" true (names seq = names par)

let test_by_group () =
  let obls =
    [ Obligation.make ~name:"a" ~group:"g1" (fun () -> Ok ());
      Obligation.make ~name:"b" ~group:"g2" (fun () -> Ok ());
      Obligation.make ~name:"c" ~group:"g1" (fun () -> Ok ()) ]
  in
  match Runner.by_group obls with
  | [ ("g1", g1); ("g2", g2) ] ->
    checki "g1 size" 2 (List.length g1);
    checki "g2 size" 1 (List.length g2)
  | other -> Alcotest.failf "unexpected grouping (%d groups)" (List.length other)

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)

let test_catalog_pt_suites_pass () =
  let pt = Catalog.build_pt ~mappings:600 in
  let flat = Runner.run (Catalog.pt_obligations_flat pt) in
  let rec_ = Runner.run (Catalog.pt_obligations_recursive pt) in
  checkb "flat ok" true (Runner.all_ok flat);
  checkb "recursive ok" true (Runner.all_ok rec_)

let test_catalog_world_wf () =
  match Catalog.build_world ~scale:3 with
  | Error msg -> Alcotest.failf "world: %s" msg
  | Ok (k, _) ->
    let report = Runner.run (Catalog.kernel_obligations k) in
    checkb "kernel obligations discharge" true (Runner.all_ok report);
    checkb "plenty of obligations" true (List.length report.Runner.results >= 15)

let test_catalog_full_suite () =
  match Catalog.full_suite ~scale:2 with
  | Error msg -> Alcotest.failf "suite: %s" msg
  | Ok suite ->
    checkb "page-table, kernel and spec obligations present" true
      (List.exists (fun (o : Obligation.t) -> o.Obligation.group = "pt-flat") suite
       && List.exists (fun (o : Obligation.t) -> o.Obligation.group = "kernel") suite
       && List.exists (fun (o : Obligation.t) -> o.Obligation.group = "spec") suite)

let test_catalog_detects_corruption () =
  (* corrupting the populated world must flip at least one obligation *)
  match Catalog.build_world ~scale:2 with
  | Error msg -> Alcotest.failf "world: %s" msg
  | Ok (k, _) ->
    Atmo_pm.Perm_map.update k.Atmo_core.Kernel.pm.Atmo_pm.Proc_mgr.cntr_perms
      ~ptr:k.Atmo_core.Kernel.pm.Atmo_pm.Proc_mgr.root_container (fun c ->
        { c with Atmo_pm.Container.used = c.Atmo_pm.Container.used + 1 });
    let report = Runner.run (Catalog.kernel_obligations k) in
    checkb "corruption detected" false (Runner.all_ok report)

let test_catalog_spec_obligations_discharge () =
  (* a representative sample of the per-syscall transition-spec
     obligations (the full set runs in the bench harness) *)
  let wanted = [ "spec/mmap"; "spec/send"; "spec/terminate_container"; "spec/io_map" ] in
  let obls =
    List.filter
      (fun (o : Obligation.t) -> List.mem o.Obligation.name wanted)
      (Catalog.syscall_obligations ~scale:2)
  in
  checki "all four found" 4 (List.length obls);
  let report = Runner.run obls in
  List.iter
    (fun (r : Obligation.result) ->
      if not r.Obligation.ok then
        Alcotest.failf "%s failed: %s" r.Obligation.name
          (Option.value ~default:"?" r.Obligation.detail))
    report.Runner.results

(* ------------------------------------------------------------------ *)
(* Obligation-name uniqueness and the incremental runner               *)

let test_unique_names_guard () =
  (* two obligations sharing a name would make the verdict cache
     ambiguous: the runner must refuse the suite outright *)
  let dup = [ ok_obl "a"; ok_obl "b"; ok_obl "a" ] in
  (match Runner.run dup with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "duplicate obligation name accepted");
  checkb "unique suite accepted" true
    (Runner.all_ok (Runner.run [ ok_obl "a"; ok_obl "b" ]))

let verdicts (r : Runner.report) =
  List.map
    (fun (x : Obligation.result) -> (x.Obligation.name, x.Obligation.ok, x.Obligation.detail))
    r.Runner.results

let test_incremental_matches_full () =
  (* seeded random syscall traces: after every burst the incremental
     verdicts must be bit-identical to an oracle full re-check, and a
     single-syscall mutation must re-discharge a strict subset *)
  let module Incremental = Atmo_verif.Incremental in
  let module Harness = Atmo_verif.Refine_harness in
  let module Kernel = Atmo_core.Kernel in
  let module Syscall = Atmo_spec.Syscall in
  match Catalog.build_world ~scale:2 with
  | Error msg -> Alcotest.failf "world: %s" msg
  | Ok (k, init) ->
    let suite = Catalog.suite_for ~scale:2 k in
    let n = List.length suite in
    Incremental.arm ();
    Fun.protect ~finally:Incremental.disarm (fun () ->
        let full = Incremental.run ~threads:1 suite in
        checki "first run discharges everything" n full.Runner.rechecked;
        let rng = Random.State.make [| 0xA7705 |] in
        for _burst = 1 to 3 do
          (* a seeded burst of plausible-but-arbitrary system calls *)
          for _step = 1 to 5 do
            match Harness.random_thread rng k with
            | None -> ()
            | Some thread ->
              ignore (Kernel.step k ~thread (Harness.random_call rng k ~thread))
          done;
          let inc = Incremental.run ~threads:1 suite in
          let oracle = Runner.run ~threads:1 suite in
          checkb "incremental verdicts bit-identical to full oracle" true
            (verdicts inc = verdicts oracle)
        done;
        (* single-syscall mutation: a yield touches only the thread
           permission map, so the re-check set is a strict subset *)
        ignore (Kernel.step k ~thread:init Syscall.Yield);
        let inc = Incremental.run ~threads:1 suite in
        checkb "strict subset re-checked" true
          (inc.Runner.rechecked > 0 && inc.Runner.rechecked < n);
        checkb "within the 20%% re-check budget" true
          (5 * inc.Runner.rechecked <= n);
        checkb "reused the rest from cache" true
          (inc.Runner.rechecked + inc.Runner.reused = n))

let test_incremental_parallel_matches () =
  (* the incremental splice fills plan slots in suite order, so a
     2-domain re-check after a transition must give exactly the verdict
     list of a sequential full re-check *)
  let module Incremental = Atmo_verif.Incremental in
  let module Kernel = Atmo_core.Kernel in
  let module Syscall = Atmo_spec.Syscall in
  match Catalog.build_world ~scale:2 with
  | Error msg -> Alcotest.failf "world: %s" msg
  | Ok (k, init) ->
    let suite = Catalog.suite_for ~scale:2 k in
    Incremental.arm ();
    Fun.protect ~finally:Incremental.disarm (fun () ->
        ignore (Incremental.run ~threads:2 suite);
        ignore (Kernel.step k ~thread:init Syscall.Yield);
        let inc = Incremental.run ~threads:2 suite in
        checkb "some verdicts reused" true (inc.Runner.reused > 0);
        let oracle = Runner.run ~threads:1 suite in
        checkb "2-domain incremental verdicts = sequential full" true
          (verdicts inc = verdicts oracle))

let test_plain_run_leaves_tracker () =
  (* a plain [Runner.run] of an armed suite discharges the spec
     obligations on scratch worlds: their mutations must not dirty the
     tracked kernel's maps, so after it a yield still re-checks only the
     obligations that read the thread map *)
  let module Incremental = Atmo_verif.Incremental in
  let module Kernel = Atmo_core.Kernel in
  let module Syscall = Atmo_spec.Syscall in
  match Catalog.build_world ~scale:3 with
  | Error msg -> Alcotest.failf "world: %s" msg
  | Ok (k, init) ->
    let suite = Catalog.suite_for ~scale:3 k in
    Incremental.arm ();
    Fun.protect ~finally:Incremental.disarm (fun () ->
        ignore (Incremental.run ~threads:1 suite);
        ignore (Runner.run ~threads:1 suite);
        let after_plain = Incremental.dirty_ids () in
        ignore (Kernel.step k ~thread:init Syscall.Yield);
        let after_yield = Incremental.dirty_ids () in
        let inc = Incremental.run ~threads:1 suite in
        checki "re-checked" 3 inc.Runner.rechecked;
        checki "reused" (List.length suite - 3) inc.Runner.reused;
        Alcotest.(check (list string)) "plain run dirties nothing" [] after_plain;
        Alcotest.(check (list string)) "yield dirties the thread map"
          [ Atmo_pm.Perm_map.id Atmo_pm.Proc_mgr.thrd_perms_name ]
          after_yield;
        Alcotest.(check (list (triple string int int))) "the tracker missed nothing" []
          (Incremental.audit ()))

let test_discharge_keeps_miss () =
  (* a mutation the tracker missed before a discharge stays visible to
     the stale-proof audit after it: the suspension moves each baseline
     only by the discharge's own scratch mutations, whether the
     discharge is a plain or an incremental run *)
  let module Incremental = Atmo_verif.Incremental in
  let module Kernel = Atmo_core.Kernel in
  let module Syscall = Atmo_spec.Syscall in
  match Catalog.build_world ~scale:3 with
  | Error msg -> Alcotest.failf "world: %s" msg
  | Ok (k, init) ->
    let suite = Catalog.suite_for ~scale:3 k in
    Incremental.arm ();
    Fun.protect
      ~finally:(fun () ->
        Incremental.disarm ();
        Atmo_san.Report.clear ())
      (fun () ->
        ignore (Incremental.run ~threads:1 suite);
        Incremental.set_miss_plant true;
        Fun.protect
          ~finally:(fun () -> Incremental.set_miss_plant false)
          (fun () -> ignore (Kernel.step k ~thread:init Syscall.Yield));
        let misses () =
          List.map (fun (id, expected, observed) -> (id, expected - observed)) (Incremental.audit ())
        in
        let missed = misses () in
        Alcotest.(check (list string)) "the yield was missed"
          [ Atmo_pm.Perm_map.id Atmo_pm.Proc_mgr.thrd_perms_name ]
          (List.map fst missed);
        ignore (Runner.run ~threads:1 suite);
        Alcotest.(check (list (pair string int))) "visible after a plain run" missed (misses ());
        checkb "stale-proof lint fires" true (Atmo_san.Proof_lint.lint k > 0);
        ignore (Incremental.run ~threads:1 suite);
        Alcotest.(check (list (pair string int))) "visible after an incremental run" missed
          (misses ()))

let test_incremental_under_sanitizer () =
  (* both subscribers of the mutation stream armed at once: over a
     seeded burst the incremental verdicts still equal a full
     re-discharge, the tracker misses no mutation, and the sanitizer
     sees no violation *)
  let module Incremental = Atmo_verif.Incremental in
  let module Harness = Atmo_verif.Refine_harness in
  let module Kernel = Atmo_core.Kernel in
  let module Mutation = Atmo_util.Mutation in
  let module San = Atmo_san.Runtime in
  match Catalog.build_world ~scale:2 with
  | Error msg -> Alcotest.failf "world: %s" msg
  | Ok (k, _init) ->
    let suite = Catalog.suite_for ~scale:2 k in
    Incremental.arm ();
    Fun.protect
      ~finally:(fun () ->
        San.disarm ();
        Incremental.disarm ())
      (fun () ->
        checkb "the tracker alone leaves the physical-access guard off" false
          (Mutation.wants Mutation.Access);
        San.arm ();
        San.attach k;
        ignore (Incremental.run ~threads:1 suite);
        let rng = Random.State.make [| 0x5A17 |] in
        for _burst = 1 to 3 do
          for _step = 1 to 5 do
            match Harness.random_thread rng k with
            | None -> ()
            | Some thread ->
              ignore (Kernel.step k ~thread (Harness.random_call rng k ~thread))
          done;
          let inc = Incremental.run ~threads:1 suite in
          let oracle = Runner.run ~threads:1 suite in
          checkb "incremental verdicts bit-identical to full oracle" true
            (verdicts inc = verdicts oracle)
        done;
        checkb "the sanitizer checked accesses" true (Atmo_san.Memsan.checked () > 0);
        checkb "the tracker observed every mutation" true (Incremental.audit () = []);
        checki "the sanitizer reported nothing" 0 (Atmo_san.Report.count ()))

let test_table_reads_cover_maps () =
  (* every entry of the well-formedness table names a machine-readable
     read set, and together they read the container map, the allocator
     and the page tables *)
  let module Invariants = Atmo_core.Invariants in
  let table = Invariants.table in
  checkb "plenty of entries" true (List.length table >= 15);
  List.iter
    (fun (e : Invariants.entry) -> checkb (e.name ^ " has reads") true (e.reads <> []))
    table;
  let reads = List.concat_map (fun (e : Invariants.entry) -> e.reads) table in
  List.iter
    (fun id -> checkb (id ^ " read") true (List.mem id reads))
    [ Atmo_pm.Perm_map.id Atmo_pm.Proc_mgr.cntr_perms_name; Atmo_pmem.Page_alloc.map_id;
      Atmo_pt.Page_table.map_id ]

let test_total_wf_agrees_with_obligations () =
  (* total_wf and the kernel obligations come from one table: over
     seeded checked transitions and the three well-formedness plants,
     total_wf holds exactly when every kernel obligation outside the
     recursive ablation does *)
  let module Harness = Atmo_verif.Refine_harness in
  let module Invariants = Atmo_core.Invariants in
  let obligations_ok k =
    List.for_all
      (fun (o : Obligation.t) -> o.Obligation.group = "pm-rec" || o.Obligation.run () = Ok ())
      (Catalog.kernel_obligations k)
  in
  let world () =
    match Catalog.build_world ~scale:3 with
    | Ok w -> w
    | Error msg -> Alcotest.failf "world: %s" msg
  in
  let k, _ = world () in
  let rng = Random.State.make [| 0xA9EE |] in
  for i = 1 to 40 do
    match Harness.random_thread rng k with
    | None -> ()
    | Some thread ->
      let o = Harness.step_checked k ~thread (Harness.random_call rng k ~thread) in
      checkb (Printf.sprintf "transition %d agrees" i) (obligations_ok k)
        (o.Harness.wf = Ok ())
  done;
  let caught what k =
    checkb (what ^ " caught by total_wf") true (Invariants.total_wf k <> Ok ());
    checkb (what ^ " caught by the obligations") false (obligations_ok k)
  in
  (let k, _ = world () in
   Wf_plants.dead_owner_endpoint k;
   caught "dead owner" k);
  (let k, init = world () in
   Wf_plants.free_frame_pte k ~init;
   caught "free frame" k);
  caught "past top" (Wf_plants.past_top_2m ())

(* ------------------------------------------------------------------ *)
(* Flat vs recursive agreement                                         *)

let test_flat_recursive_agree () =
  let pt = Catalog.build_pt ~mappings:800 in
  checkb "flat passes" true (Pt_refine.all pt = Ok ());
  checkb "recursive passes" true (Nros_pt.all pt = Ok ());
  checkb "interps equal" true
    (List.sort compare (Nros_pt.interp pt)
     = List.sort compare (Atmo_pt.Page_table.walk_concrete pt))

(* ------------------------------------------------------------------ *)
(* Effort                                                              *)

let test_table1_data () =
  checki "seven systems" 7 (List.length Effort.table1);
  let atmo = List.find (fun r -> r.Effort.system = "Atmosphere") Effort.table1 in
  checkb "atmo ratio" true (abs_float (atmo.Effort.ratio -. 3.32) < 0.01);
  let sel4 = List.find (fun r -> r.Effort.system = "seL4") Effort.table1 in
  checkb "ordering preserved" true (sel4.Effort.ratio > atmo.Effort.ratio)

let test_fig3_series_shape () =
  let s = Effort.fig3_series in
  checki "14 months" 14 (List.length s);
  let final = List.nth s 13 in
  checki "final exec LoC" 6000 final.Effort.exec_loc;
  checki "final proof LoC" 20100 final.Effort.proof_loc;
  (* clean-slate rewrites drop the line count *)
  let at n = List.nth s n in
  checkb "v2 rewrite drops" true ((at 2).Effort.exec_loc < (at 1).Effort.exec_loc);
  checkb "v3 rewrite drops" true ((at 10).Effort.exec_loc < (at 9).Effort.exec_loc);
  checkb "v3 keeps ~50%" true
    (float_of_int (at 10).Effort.exec_loc /. float_of_int (at 9).Effort.exec_loc > 0.4)

let test_measure_repo () =
  (* dune runs tests from the build dir; point at the source root *)
  let root =
    if Sys.file_exists "lib" then "."
    else if Sys.file_exists "../../../lib" then "../../.."
    else "."
  in
  match Effort.measure_repo ~root with
  | Some s ->
    checkb "found spec lines" true (s.Effort.spec_lines > 1000);
    checkb "found exec lines" true (s.Effort.exec_lines > 1000);
    checkb "kernel is part of exec" true
      (s.Effort.kernel_lines > 1000 && s.Effort.kernel_lines < s.Effort.exec_lines);
    checkb "ratio positive" true (s.Effort.ratio > 0.)
  | None -> () (* sources not reachable in this environment: acceptable *)

let () =
  Alcotest.run "verif"
    [
      ( "runner",
        [
          Alcotest.test_case "discharge" `Quick test_discharge;
          Alcotest.test_case "sequential" `Quick test_runner_sequential;
          Alcotest.test_case "parallel matches" `Quick test_runner_parallel_matches;
          Alcotest.test_case "by group" `Quick test_by_group;
          Alcotest.test_case "unique names guard" `Quick test_unique_names_guard;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "matches full oracle" `Quick test_incremental_matches_full;
          Alcotest.test_case "2 domains match full oracle" `Quick
            test_incremental_parallel_matches;
          Alcotest.test_case "under the sanitizer" `Quick test_incremental_under_sanitizer;
          Alcotest.test_case "plain run leaves the tracker" `Quick test_plain_run_leaves_tracker;
          Alcotest.test_case "a discharge keeps a miss visible" `Quick test_discharge_keeps_miss;
          Alcotest.test_case "annotations cover targets" `Quick
            test_table_reads_cover_maps;
          Alcotest.test_case "total_wf agrees with the obligations" `Quick
            test_total_wf_agrees_with_obligations;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "pt suites pass" `Quick test_catalog_pt_suites_pass;
          Alcotest.test_case "world wf" `Quick test_catalog_world_wf;
          Alcotest.test_case "full suite groups" `Quick test_catalog_full_suite;
          Alcotest.test_case "detects corruption" `Quick test_catalog_detects_corruption;
          Alcotest.test_case "spec obligations discharge" `Quick
            test_catalog_spec_obligations_discharge;
          Alcotest.test_case "flat/recursive agree" `Quick test_flat_recursive_agree;
        ] );
      ( "effort",
        [
          Alcotest.test_case "table1 data" `Quick test_table1_data;
          Alcotest.test_case "fig3 shape" `Quick test_fig3_series_shape;
          Alcotest.test_case "measure repo" `Quick test_measure_repo;
        ] );
    ]
