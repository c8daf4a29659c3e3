(* The key of a page table's last clean check (Page_table's
   check_input): a table whose whole input is unchanged skips
   [Pt_refine.violations], and every other verdict and message must be
   what a cache-free check gives.  The oracle forgets every key with
   [Page_table.Backdoor.forget_check] and checks again. *)

open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
module Page_table = Atmo_pt.Page_table
module Pt_refine = Atmo_pt.Pt_refine
module Perm_map = Atmo_pm.Perm_map
module Proc_mgr = Atmo_pm.Proc_mgr
module Process = Atmo_pm.Process
module Kernel = Atmo_core.Kernel
module Invariants = Atmo_core.Invariants
module Catalog = Atmo_verif.Catalog
module Harness = Atmo_verif.Refine_harness

let checkb = Alcotest.(check bool)

let world () =
  match Catalog.build_world ~scale:3 with
  | Ok (k, _) -> k
  | Error msg -> Alcotest.failf "world: %s" msg

(* Every page table of the kernel, named as the invariants name it. *)
let tables (k : Kernel.t) =
  Perm_map.fold
    (fun ptr (p : Process.t) acc -> (Printf.sprintf "process 0x%x" ptr, p.Process.pt) :: acc)
    k.Kernel.pm.Proc_mgr.proc_perms []
  @ Imap.fold
      (fun device (d : Kernel.device_info) acc ->
        (Printf.sprintf "device %d" device, d.Kernel.io_pt) :: acc)
      k.Kernel.devices []

let forget_keys k = List.iter (fun (_, pt) -> Page_table.Backdoor.forget_check pt) (tables k)

let result = function Ok () -> "ok" | Error msg -> msg

(* Everything the key can change: total_wf, every obligation's verdict
   and message, and every violation each table's enumerator yields. *)
let verdicts k =
  let enumerated (who, pt) =
    let found = ref [] in
    Pt_refine.violations pt (fun rule page msg ->
        found :=
          Printf.sprintf "%s: %s 0x%x %s" who (Violation.rule_name rule) page msg :: !found);
    List.rev !found
  in
  ("total_wf: " ^ result (Invariants.total_wf k))
  :: List.map (fun (name, check) -> name ^ ": " ^ result (check k)) Invariants.obligations
  @ List.concat_map enumerated (tables k)

(* Checked twice with the keys, so a kept verdict that was not clean
   shows on the second check. *)
let check_cache_free what k =
  let cached = verdicts k in
  let again = verdicts k in
  forget_keys k;
  let fresh = verdicts k in
  Alcotest.(check (list string)) what fresh cached;
  Alcotest.(check (list string)) (what ^ ", checked again") fresh again

(* A raw store into a random registered table page, through a random
   store path, that changes the page; returns the page's old bytes. *)
let corrupt rng k =
  let pages =
    List.concat_map
      (fun (_, pt) -> List.map (fun (addr, _) -> (pt, addr)) (Page_table.tables pt))
      (tables k)
  in
  let pt, page = List.nth pages (Random.State.int rng (List.length pages)) in
  let mem = Page_table.mem pt in
  let saved = Phys_mem.blit_from mem ~addr:page ~len:Phys_mem.page_size in
  let present =
    List.filter (fun i -> Bytes.get_int64_le saved (8 * i) <> 0L) (List.init 512 Fun.id)
  in
  let slot =
    page + (8 * match present with [] -> 0 | l -> List.nth l (Random.State.int rng (List.length l)))
  in
  (match Random.State.int rng 4 with
   | 0 ->
     let bit = Random.State.int rng 64 in
     Phys_mem.write_u64 mem ~addr:slot
       (Int64.logxor (Phys_mem.read_u64 mem ~addr:slot) (Int64.shift_left 1L bit))
   | 1 -> Phys_mem.write_u8 mem ~addr:(slot + 1) (Phys_mem.read_u8 mem ~addr:(slot + 1) lxor 0x10)
   | 2 -> Phys_mem.write_bytes mem ~addr:slot (Bytes.make 8 '\007') ~off:0 ~len:8
   | _ -> Phys_mem.zero_page mem ~addr:page);
  (mem, page, saved)

(* Seeded checked transitions, checking each step's cached verdicts
   against a cache-free evaluation; every fifth step also stores raw
   into a table page, checks, restores the page's bytes and checks
   again. *)
let oracle seed () =
  let k = world () in
  let rng = Random.State.make [| seed |] in
  checkb "the world has a device" true (not (Imap.is_empty k.Kernel.devices));
  for step = 1 to 500 do
    match Harness.random_thread rng k with
    | None -> Alcotest.failf "step %d: no live thread" step
    | Some thread ->
      let o = Harness.step_checked k ~thread (Harness.random_call rng k ~thread) in
      let what = Printf.sprintf "seed %d step %d" seed step in
      Alcotest.(check string) (what ^ " step_checked total_wf") "total_wf: ok"
        ("total_wf: " ^ result o.Harness.wf);
      check_cache_free what k;
      if step mod 5 = 0 then begin
        let mem, page, saved = corrupt rng k in
        check_cache_free (what ^ " after a raw store") k;
        Phys_mem.blit_to mem ~addr:page saved;
        check_cache_free (what ^ " after the restore") k
      end
  done

(* After a clean check, one raw store into process 0x62000's L1 table
   0x69000 (its first mapping, 0x40200000 -> 0x66000, sits in slot 0):
   the next total_wf reports exactly what the full check reports. *)
let raw_store what store expected () =
  let k = world () in
  let pt = (Perm_map.borrow k.Kernel.pm.Proc_mgr.proc_perms ~ptr:0x62000).Process.pt in
  Alcotest.(check (option int)) "L1 table" (Some 1) (Page_table.table_level pt ~addr:0x69000);
  Alcotest.(check string) "clean before" "ok" (result (Invariants.total_wf k));
  checkb "key recorded" true (Page_table.unchanged_since_clean_check pt);
  store (Page_table.mem pt) 0x69000;
  let cached = result (Invariants.total_wf k) in
  let again = result (Invariants.total_wf k) in
  forget_keys k;
  Alcotest.(check string) (what ^ ": cache-free") expected (result (Invariants.total_wf k));
  Alcotest.(check string) (what ^ ": keyed") expected cached;
  Alcotest.(check string) (what ^ ": keyed, checked again") expected again

let raw_stores =
  let msg = ( ^ ) "page table of process 0x62000: " in
  [
    ( "write_u64",
      (fun mem table ->
        Phys_mem.write_u64 mem ~addr:table (Int64.logor (Phys_mem.read_u64 mem ~addr:table) 0x200L)),
      msg "structure: reserved bits set in L1[0] of table 0x69000 (0x8000000000066207)" );
    ( "write_u8",
      (fun mem table -> Phys_mem.write_u8 mem ~addr:(table + 1) 0),
      msg "refinement: 0x40200000 maps to 0x60000/4K:wu- (MMU) vs 0x66000/4K:wu- (abstract)" );
    ( "write_bytes",
      (fun mem table -> Phys_mem.write_bytes mem ~addr:(table + 8) (Bytes.make 8 '\007') ~off:0 ~len:8),
      msg
        "refinement: 0x40201000 maps to 0x7070707070000/4K:wux (MMU) vs 0x6a000/4K:wu- (abstract)"
    );
    ( "zero_page",
      (fun mem table -> Phys_mem.zero_page mem ~addr:table),
      msg "refinement: abstract maps 0x40200000 but MMU faults" );
  ]

(* After a clean check, one part of the input changes with no store to
   any table page: every keyed verdict is still the full check's, so
   each part of the key is needed.  (A drift can surface first in an
   earlier [pm/*] check, so all of [verdicts] is compared.) *)
let drift part () =
  let k = world () in
  let pt = (Perm_map.borrow k.Kernel.pm.Proc_mgr.proc_perms ~ptr:0x62000).Process.pt in
  Alcotest.(check string) "clean before" "ok" (result (Invariants.total_wf k));
  Page_table.Backdoor.drift pt part;
  check_cache_free "after the drift" k;
  checkb "the drift breaks the page-table check" true (Invariants.page_tables_wf k <> Ok ())

(* An unchanged kernel re-checks its tables for the cost of their keys:
   one registry lookup and one version compare per table page. *)
let test_unchanged_allocation () =
  let k = world () in
  Alcotest.(check string) "clean" "ok" (result (Invariants.page_tables_wf k));
  Alloc.check_at_most "page_tables_wf on an unchanged kernel" ~limit:1000.
    (Alloc.per_call (fun () -> ignore (Invariants.page_tables_wf k)))

let () =
  Alcotest.run "check_key"
    [
      ( "oracle",
        [
          Alcotest.test_case "seed 1 matches a cache-free check" `Quick (oracle 1);
          Alcotest.test_case "seed 7919 matches a cache-free check" `Quick (oracle 7919);
        ] );
      ( "raw store",
        List.map
          (fun (what, store, expected) ->
            Alcotest.test_case (what ^ " misses the key") `Quick (raw_store what store expected))
          raw_stores );
      ( "drift",
        List.map
          (fun (what, part) ->
            Alcotest.test_case (what ^ " misses the key") `Quick (drift part))
          Page_table.Backdoor.
            [
              ("address space", Space);
              ("closure", Closure);
              ("table level", Table_level);
              ("extra table", Extra_table);
            ] );
      ( "cost",
        [ Alcotest.test_case "unchanged kernel allocation floor" `Quick test_unchanged_allocation ]
      );
    ]
