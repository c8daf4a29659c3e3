(* Page tables: mapping operations, refinement vs the MMU, flat and
   recursive checkers, step consistency (§4.2). *)

open Atmo_util
open Atmo_pt
module Phys_mem = Atmo_hw.Phys_mem
module Mmu = Atmo_hw.Mmu
module Pte = Atmo_hw.Pte_bits
module Page_state = Atmo_pmem.Page_state
module Page_alloc = Atmo_pmem.Page_alloc

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* a table count, or the walk's error *)
let checkn =
  Alcotest.(check (result int (testable Page_table.pp_error ( = ))))

let expect what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Page_table.pp_error e

let expect_wf what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let mk_pt ?(frames = 4096) () =
  let mem = Phys_mem.create ~page_count:frames in
  let alloc = Page_alloc.create mem ~reserved_frames:0 in
  let pt = expect "create" (Page_table.create mem alloc) in
  (mem, alloc, pt)

let user_frame alloc =
  match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User with
  | Some f -> f
  | None -> Alcotest.fail "no user frame"

let va0 = 0x4000_0000

let test_map_resolve_4k () =
  let _, alloc, pt = mk_pt () in
  let frame = user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  (match Page_table.resolve pt ~vaddr:(va0 + 5) with
   | Some tr ->
     checki "paddr" (frame + 5) tr.Mmu.paddr;
     checki "size" Phys_mem.page_size tr.Mmu.size
   | None -> Alcotest.fail "fault");
  expect_wf "all obligations" (Pt_refine.all pt)

let test_map_unmap_roundtrip () =
  let _, alloc, pt = mk_pt () in
  let frame = user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  let e = expect "unmap" (Page_table.unmap pt ~vaddr:va0) in
  checki "frame returned" frame e.Page_table.frame;
  checkb "faults after unmap" true (Page_table.resolve pt ~vaddr:va0 = None);
  checkb "ghost empty" true (Imap.is_empty (Page_table.address_space pt));
  expect_wf "all obligations" (Pt_refine.all pt)

let test_double_map_rejected () =
  let _, alloc, pt = mk_pt () in
  let frame = user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  checkb "second map rejected" true
    (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw = Error Page_table.Already_mapped)

let test_misaligned_rejected () =
  let _, alloc, pt = mk_pt () in
  let frame = user_frame alloc in
  checkb "va misaligned" true
    (Page_table.map_4k pt ~vaddr:(va0 + 1) ~frame ~perm:Pte.perm_rw = Error Page_table.Misaligned);
  checkb "2m misaligned" true
    (Page_table.map pt ~size:Page_state.S2m ~vaddr:(va0 + 4096) ~frame:0 ~perm:Pte.perm_rw
     = Error Page_table.Misaligned);
  checkb "non-canonical" true
    (Page_table.map_4k pt ~vaddr:(1 lsl 50) ~frame ~perm:Pte.perm_rw
     = Error Page_table.Non_canonical)

let test_size_conflicts () =
  let _, alloc, pt = mk_pt () in
  let frame = user_frame alloc in
  (* a 4K mapping under a 2M-aligned va blocks a 2M mapping there *)
  expect "map 4k" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  (match Page_alloc.alloc_2m alloc ~purpose:Page_alloc.User with
   | None -> Alcotest.fail "no 2m block"
   | Some big ->
     checkb "2m over 4k conflicts" true
       (Page_table.map pt ~size:Page_state.S2m ~vaddr:va0 ~frame:big ~perm:Pte.perm_rw
        = Error Page_table.Conflict);
     (* and a 4K map under an existing 2M leaf conflicts the other way *)
     let va2 = va0 + Phys_mem.page_size_2m in
     expect "map 2m"
       (Page_table.map pt ~size:Page_state.S2m ~vaddr:va2 ~frame:big ~perm:Pte.perm_rw);
     let f2 = user_frame alloc in
     checkb "4k under 2m conflicts" true
       (Page_table.map_4k pt ~vaddr:va2 ~frame:f2 ~perm:Pte.perm_rw
        = Error Page_table.Conflict));
  expect_wf "all obligations" (Pt_refine.all pt)

let test_huge_mappings_resolve () =
  let _, alloc, pt = mk_pt ~frames:8192 () in
  (match Page_alloc.alloc_2m alloc ~purpose:Page_alloc.User with
   | None -> Alcotest.fail "no 2m"
   | Some big ->
     expect "map 2m"
       (Page_table.map pt ~size:Page_state.S2m ~vaddr:va0 ~frame:big ~perm:Pte.perm_ro);
     (match Page_table.resolve pt ~vaddr:(va0 + 0x12345) with
      | Some tr ->
        checki "2m size" Phys_mem.page_size_2m tr.Mmu.size;
        checki "offset" (big + 0x12345) tr.Mmu.paddr;
        checkb "ro" false tr.Mmu.perm.Pte.write
      | None -> Alcotest.fail "2m fault"));
  expect_wf "all obligations" (Pt_refine.all pt)

let test_update_perm () =
  let _, alloc, pt = mk_pt () in
  let frame = user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  expect "mprotect" (Page_table.update_perm pt ~vaddr:va0 ~perm:Pte.perm_ro);
  (match Page_table.resolve pt ~vaddr:va0 with
   | Some tr -> checkb "now ro" false tr.Mmu.perm.Pte.write
   | None -> Alcotest.fail "fault");
  expect_wf "all obligations" (Pt_refine.all pt)

let test_destroy_returns_tables () =
  let _, alloc, pt = mk_pt () in
  let before = Page_alloc.allocated_pages alloc in
  let frame = user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  let still_mapped = Page_table.destroy pt in
  checkb "mapped frame reported" true (Iset.mem frame still_mapped);
  (* all table pages returned: allocated set back to pre-creation minus
     nothing (root existed before `before` was taken, so subtract) *)
  let after = Page_alloc.allocated_pages alloc in
  checkb "tables freed" true (Iset.cardinal after < Iset.cardinal before)

let test_missing_tables_exact () =
  let _, alloc, pt = mk_pt () in
  (* fresh table: a 4K map needs L3+L2+L1 = 3 new tables *)
  checkn "3 tables for first 4k" (Ok 3)
    (Page_table.missing_tables pt ~vaddrs:[ (va0, Page_state.S4k) ]);
  (* two adjacent pages share all three *)
  checkn "adjacent shares tables" (Ok 3)
    (Page_table.missing_tables pt
       ~vaddrs:[ (va0, Page_state.S4k); (va0 + 4096, Page_state.S4k) ]);
  let frame = user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  checkn "nothing missing afterwards" (Ok 0)
    (Page_table.missing_tables pt ~vaddrs:[ (va0 + 4096, Page_state.S4k) ]);
  (* a 2M map in a fresh L4 slot needs L3+L2 *)
  checkn "2m needs two" (Ok 2)
    (Page_table.missing_tables pt ~vaddrs:[ (1 lsl 39, Page_state.S2m) ])

(* Two mappings under different L4 entries; the second entry then
   points past the end of memory.  Every walk through it faults with
   nothing written, and [unmap_all] of both leaves the first mapped. *)
let test_walk_fault_changes_nothing () =
  let mem, alloc, pt = mk_pt () in
  let va1 = va0 + (1 lsl 39) in
  List.iter
    (fun vaddr ->
      expect "map" (Page_table.map_4k pt ~vaddr ~frame:(user_frame alloc) ~perm:Pte.perm_rw))
    [ va0; va1 ];
  Phys_mem.write_u64 mem
    ~addr:(Mmu.entry_addr ~table:(Page_table.cr3 pt) ~index:(Mmu.l4_index va1))
    0x0707070707070707L;
  let space = Page_table.address_space pt and closure = Page_table.page_closure pt in
  let fault what r =
    checkb (what ^ " faults") true (r = Error Page_table.Walk_fault);
    checkb (what ^ " keeps the space") true (Page_table.address_space pt == space);
    checkb (what ^ " keeps the closure") true (Page_table.page_closure pt == closure)
  in
  fault "unmap_all" (Page_table.unmap_all pt ~vaddrs:[ va0; va1 ] ignore);
  checkb "the first page still resolves" true (Page_table.resolve_cold pt ~vaddr:va0 <> None);
  fault "update_perm" (Page_table.update_perm pt ~vaddr:va1 ~perm:Pte.perm_ro);
  fault "map" (Page_table.map_4k pt ~vaddr:(va1 + 4096) ~frame:(user_frame alloc) ~perm:Pte.perm_rw);
  checkb "missing_tables faults" true
    (Page_table.missing_tables pt ~vaddrs:[ (va0, Page_state.S4k); (va1 + 4096, Page_state.S4k) ]
     = Error Page_table.Walk_fault)

let test_prune_empty_tables () =
  let _, alloc, pt = mk_pt () in
  let frame = user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  ignore (expect "unmap" (Page_table.unmap pt ~vaddr:va0));
  let closure_before = Iset.cardinal (Page_table.page_closure pt) in
  let freed = Page_table.prune_empty_tables pt ~keep:Iset.empty in
  checki "three empties pruned" 3 freed;
  checki "closure shrank" (closure_before - 3) (Iset.cardinal (Page_table.page_closure pt));
  expect_wf "all obligations" (Pt_refine.all pt)

(* ------------------------------------------------------------------ *)
(* mmap-path queries against their linear oracles (test/pt_oracle.ml) *)

let gib = Phys_mem.page_size_1g
let mib2 = Phys_mem.page_size_2m

(* [Page_table.overlaps] and the linear scan must agree; returns the
   shared answer. *)
let overlap_agrees what pt ~va ~count ~size =
  let fast = Page_table.overlaps pt ~vaddr:va ~bytes:(count * Page_state.bytes_per size) in
  let slow = Pt_oracle.mmap_overlaps pt ~va ~count ~size in
  if fast <> slow then
    Alcotest.failf "%s: overlaps says %b, the linear scan %b (va 0x%x, %d x %a)" what fast
      slow va count Page_state.pp_size size;
  fast

let test_overlap_edges () =
  let _, _, pt = mk_pt () in
  let x = va0 and y = va0 + (4 * mib2) and z = 4 * gib and top = -4096 in
  expect "map 4k" (Page_table.map_4k pt ~vaddr:x ~frame:0 ~perm:Pte.perm_rw);
  expect "map 2m" (Page_table.map pt ~size:Page_state.S2m ~vaddr:y ~frame:0 ~perm:Pte.perm_rw);
  expect "map 1g" (Page_table.map pt ~size:Page_state.S1g ~vaddr:z ~frame:0 ~perm:Pte.perm_rw);
  expect "map top" (Page_table.map_4k pt ~vaddr:top ~frame:0 ~perm:Pte.perm_rw);
  List.iter
    (fun (what, va, count, size, want) ->
      checkb what want (overlap_agrees what pt ~va ~count ~size))
    Page_state.
      [
        ("ends at a 4k base", x - 4096, 1, S4k, false);
        ("512 pages ending at a 4k base", x - (512 * 4096), 512, S4k, false);
        ("starts at a 4k end", x + 4096, 1, S4k, false);
        ("the 4k page itself", x, 1, S4k, true);
        ("512 pages covering a 4k page", x - (511 * 4096), 512, S4k, true);
        ("2m over one 4k page", x, 1, S2m, true);
        ("4k inside a 2m mapping", y + (5 * 4096), 1, S4k, true);
        ("4k in the last page of a 2m mapping", y + mib2 - 4096, 1, S4k, true);
        ("starts at a 2m end", y + mib2, 3, S4k, false);
        ("ends at a 2m base", y - mib2, 1, S2m, false);
        ("4k inside a 1g mapping", z + (7 * mib2) + 4096, 2, S4k, true);
        ("2m inside a 1g mapping", z + (100 * mib2), 1, S2m, true);
        ("1g ending at a 1g base", z - gib, 1, S1g, false);
        ("starts at a 1g end", z + gib, 512, S2m, false);
        ("upper half: the top page", top, 1, S4k, true);
        ("upper half: ends at the top page", top - 4096, 1, S4k, false);
        ("upper half: 2m ending at the top", -mib2, 1, S2m, true);
        ("upper half: bottom, nothing mapped", -(1 lsl 47), 512, S1g, false);
      ]

(* Four 4 GiB windows at both ends of each canonical half: requests
   reach the top of the address space (end 0) and both sign edges. *)
let windows = [| 0; (1 lsl 47) - (4 * gib); -(1 lsl 47); -(4 * gib) |]

(* A seeded address space clustered so that 4 KiB, 2 MiB and 1 GiB
   mappings crowd each other; conflicting maps are simply refused. *)
let random_space rng =
  let _, _, pt = mk_pt () in
  for _ = 1 to 60 do
    let w = windows.(Random.State.int rng 4) + (Random.State.int rng 4 * gib) in
    let slot2m = w + (Random.State.int rng 16 * mib2) in
    let r =
      match Random.State.int rng 10 with
      | 0 -> Page_table.map pt ~size:Page_state.S1g ~vaddr:w ~frame:0 ~perm:Pte.perm_rw
      | 1 | 2 | 3 -> Page_table.map pt ~size:Page_state.S2m ~vaddr:slot2m ~frame:0 ~perm:Pte.perm_rw
      | _ ->
        Page_table.map_4k pt
          ~vaddr:(slot2m + (Random.State.int rng 64 * 4096))
          ~frame:0 ~perm:Pte.perm_rw
    in
    ignore r
  done;
  expect_wf "random space ghost_wf" (Pt_refine.ghost_wf pt);
  pt

let test_overlap_matches_scan () =
  (* modes: 0 ends at a base, 1 starts at an end, 2 inside, 3 covers a
     base, 4 anywhere in a window *)
  let seen = Array.make_matrix 5 2 0 in
  for seed = 1 to 8 do
    let rng = Random.State.make [| 0x0e7; seed |] in
    let pt = random_space rng in
    let mappings = Array.of_list (Imap.bindings (Page_table.address_space pt)) in
    for _ = 1 to 250 do
      let size =
        match Random.State.int rng 20 with
        | 0 | 1 | 2 -> Page_state.S1g
        | n when n < 10 -> Page_state.S2m
        | _ -> Page_state.S4k
      in
      let bytes = Page_state.bytes_per size in
      let count =
        match Random.State.int rng 4 with
        | 0 | 1 -> 1
        | 2 -> 1 + Random.State.int rng 8
        | _ -> if Random.State.bool rng then 512 else 1 + Random.State.int rng 512
      in
      let base, (e : Page_table.entry) = mappings.(Random.State.int rng (Array.length mappings)) in
      let blen = Page_state.bytes_per e.Page_table.size in
      let mode = Random.State.int rng 5 in
      let va, count, size =
        match mode with
        | 0 -> (base - (count * bytes), count, size)
        | 1 -> (base + blen, count, size)
        | 2 ->
          (* a 4 KiB request sitting inside the mapping *)
          let pages = blen / 4096 in
          let off = Random.State.int rng pages in
          (base + (off * 4096), 1 + Random.State.int rng (min 512 (pages - off)), Page_state.S4k)
        | 3 -> (base - (Random.State.int rng count * bytes), count, size)
        | _ ->
          let w = windows.(Random.State.int rng 4) in
          (w + (Random.State.int rng (4 * gib / bytes) * bytes), count, size)
      in
      let hit = overlap_agrees (Printf.sprintf "seed %d mode %d" seed mode) pt ~va ~count ~size in
      let row = seen.(mode) in
      row.(Bool.to_int hit) <- row.(Bool.to_int hit) + 1
    done
  done;
  checkb "touching requests that miss" true (seen.(0).(0) > 0 && seen.(1).(0) > 0);
  checkb "inside and covering requests hit" true
    (seen.(2).(1) > 0 && seen.(2).(0) = 0 && seen.(3).(1) > 0 && seen.(3).(0) = 0);
  checkb "random requests both ways" true (seen.(4).(0) > 0 && seen.(4).(1) > 0)

let test_missing_tables_matches_oracle () =
  for seed = 1 to 8 do
    let rng = Random.State.make [| 0x7ab; seed |] in
    let pt = random_space rng in
    for _ = 1 to 100 do
      let size =
        match Random.State.int rng 3 with
        | 0 -> Page_state.S1g
        | 1 -> Page_state.S2m
        | _ -> Page_state.S4k
      in
      let bytes = Page_state.bytes_per size in
      let w = windows.(Random.State.int rng 4) + (Random.State.int rng 4 * gib) in
      let va = w + (Random.State.int rng (gib / bytes) * bytes) in
      let count = if Random.State.bool rng then 1 else 1 + Random.State.int rng 512 in
      let vaddrs = List.init count (fun i -> (va + (i * bytes), size)) in
      checkn
        (Format.asprintf "seed %d: %d x %a at 0x%x" seed count Page_state.pp_size size va)
        (Ok (Pt_oracle.missing_tables pt ~vaddrs))
        (Page_table.missing_tables pt ~vaddrs)
    done
  done

let test_step_hook_consistency () =
  (* §4.2: every concrete table write is a separate step; non-leaf
     writes never change the MMU-visible mapping, a leaf write changes
     exactly one entry. *)
  let _, alloc, pt = mk_pt () in
  let snapshot () =
    List.sort compare (Page_table.walk_concrete pt)
  in
  let prev = ref (snapshot ()) in
  let violations = ref 0 in
  Page_table.set_step_hook pt
    (Some
       (fun ~leaf ->
         let now = snapshot () in
         let changed = List.length now - List.length !prev in
         if leaf then begin
           if abs changed <> 1 then incr violations
         end
         else if now <> !prev then incr violations;
         prev := now));
  let frame = user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  ignore (expect "unmap" (Page_table.unmap pt ~vaddr:va0));
  Page_table.set_step_hook pt None;
  checki "no intermediate-state violations" 0 !violations

let test_nros_agrees_with_flat () =
  let _, alloc, pt = mk_pt ~frames:8192 () in
  for i = 0 to 19 do
    let frame = user_frame alloc in
    expect "map"
      (Page_table.map_4k pt ~vaddr:(va0 + (i * 4096)) ~frame ~perm:Pte.perm_rw)
  done;
  (match Page_alloc.alloc_2m alloc ~purpose:Page_alloc.User with
   | Some big ->
     expect "map 2m"
       (Page_table.map pt ~size:Page_state.S2m
          ~vaddr:(va0 + (4 * Phys_mem.page_size_2m))
          ~frame:big ~perm:Pte.perm_rw)
   | None -> Alcotest.fail "no 2m");
  expect_wf "flat" (Pt_refine.all pt);
  expect_wf "recursive" (Nros_pt.all pt);
  (* the recursive interpretation equals the flat hardware walk *)
  checkb "interps agree" true
    (List.sort compare (Nros_pt.interp pt)
     = List.sort compare (Page_table.walk_concrete pt))

(* ghost_wf checks each mapping against its own size, and the ranges of
   mappings of every size against each other, in one pass *)
let test_ghost_wf_per_mapping () =
  let ghost_wf mappings =
    let _, _, pt = mk_pt () in
    List.iter
      (fun (vaddr, frame, size) ->
        Page_table.Backdoor.add_mapping pt ~vaddr { Page_table.frame; size; perm = Pte.perm_rw })
      mappings;
    match Pt_refine.ghost_wf pt with Ok () -> "ok" | Error msg -> msg
  in
  let check what expected mappings = Alcotest.(check string) what expected (ghost_wf mappings) in
  let s4k = Page_state.S4k and s2m = Page_state.S2m and s1g = Page_state.S1g in
  check "aligned" "ok" [ (va0, 0x20_0000, s2m); (va0 + 0x20_0000, 0x1000, s4k) ];
  check "non-canonical" "ghost_wf: 4K mapping at non-canonical 0x800000000000"
    [ (1 lsl 47, 0, s4k) ];
  check "base" "ghost_wf: 2M mapping base 0x40001000 misaligned" [ (va0 + 0x1000, 0, s2m) ];
  check "frame" "ghost_wf: 1G mapping frame 0x200000 misaligned" [ (va0, 0x20_0000, s1g) ];
  check "overlap" "ghost_wf: ranges [0x40000000..) and [0x401ff000..) overlap"
    [ (va0, 0, s2m); (va0 + 0x1f_f000, 0x1000, s4k) ]

let test_checkers_catch_corruption () =
  let mem, alloc, pt = mk_pt () in
  let frame = user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  (* corrupt the leaf behind the ghost map's back *)
  (match Page_table.resolve pt ~vaddr:va0 with
   | Some _ ->
     let l1e =
       (* find the leaf's physical slot by walking manually *)
       let cr3 = Page_table.cr3 pt in
       let e4 = Phys_mem.read_u64 mem ~addr:(Mmu.entry_addr ~table:cr3 ~index:(Mmu.l4_index va0)) in
       let e3 = Phys_mem.read_u64 mem ~addr:(Mmu.entry_addr ~table:(Pte.addr_of e4) ~index:(Mmu.l3_index va0)) in
       let e2 = Phys_mem.read_u64 mem ~addr:(Mmu.entry_addr ~table:(Pte.addr_of e3) ~index:(Mmu.l2_index va0)) in
       Mmu.entry_addr ~table:(Pte.addr_of e2) ~index:(Mmu.l1_index va0)
     in
     Phys_mem.write_u64 mem ~addr:l1e Pte.not_present;
     Pt_oracle.check_agrees "cleared leaf" pt;
     checkb "flat refinement detects" true (Pt_refine.refinement pt <> Ok ());
     checkb "recursive refinement detects" true (Nros_pt.refinement pt <> Ok ())
   | None -> Alcotest.fail "fault")

let test_checkers_match_oracle () =
  (* each corruption on a fresh table: the table-page checkers must
     give the per-entry oracle's leaves and verdicts, messages included *)
  let slot table index = Mmu.entry_addr ~table ~index in
  let corruptions =
    (* name, (user frame, l4, l3, l2) -> (entry address, new entry from old) *)
    [
      ("huge bit at L4", fun (_, l4, _, _) ->
          (slot l4 (Mmu.l4_index va0), fun e -> Int64.logor e 0x80L));
      ("misaligned huge leaf", fun (_, _, _, l2) ->
          (slot l2 7, fun _ -> Pte.make ~addr:0x3000 ~perm:Pte.perm_rw ~huge:true));
      ("unregistered child", fun (frame, _, l3, _) ->
          (slot l3 9, fun _ -> Pte.make_table ~addr:frame));
      ("aliased table", fun (_, _, l3, l2) -> (slot l3 9, fun _ -> Pte.make_table ~addr:l2));
      ("wrong-level child", fun (_, l4, _, l2) ->
          (slot l2 (Mmu.l2_index va0), fun _ -> Pte.make_table ~addr:l4));
      ("non-present garbage", fun (_, _, _, l2) -> (slot l2 11, fun _ -> 0x1234_5000L));
    ]
  in
  List.iter
    (fun (what, corrupt) ->
      let mem, alloc, pt = mk_pt () in
      let frame = user_frame alloc in
      expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
      let read table index = Phys_mem.read_u64 mem ~addr:(slot table index) in
      let l4 = Page_table.cr3 pt in
      let l3 = Pte.addr_of (read l4 (Mmu.l4_index va0)) in
      let l2 = Pte.addr_of (read l3 (Mmu.l3_index va0)) in
      let addr, f = corrupt (frame, l4, l3, l2) in
      Phys_mem.write_u64 mem ~addr (f (Phys_mem.read_u64 mem ~addr));
      Pt_oracle.check_agrees what pt)
    corruptions

let prop_random_map_unmap_refines =
  QCheck.Test.make ~name:"refinement holds under random map/unmap sequences" ~count:40
    QCheck.(list (pair bool (int_bound 63)))
    (fun ops ->
      let _, alloc, pt = mk_pt () in
      List.iter
        (fun (do_map, slot) ->
          let vaddr = va0 + (slot * 4096) in
          if do_map then begin
            match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User with
            | Some frame ->
              (match Page_table.map_4k pt ~vaddr ~frame ~perm:Pte.perm_rw with
               | Ok () -> ()
               | Error _ -> ignore (Page_alloc.dec_ref alloc ~addr:frame))
            | None -> ()
          end
          else
            match Page_table.unmap pt ~vaddr with
            | Ok e -> ignore (Page_alloc.dec_ref alloc ~addr:e.Page_table.frame)
            | Error _ -> ())
        ops;
      Pt_oracle.check_agrees "random map/unmap" pt;
      Pt_refine.all pt = Ok () && Nros_pt.all pt = Ok ())

let prop_mixed_sizes_refine =
  (* random interleavings of 4K and 2M map/unmap keep both checkers
     green, including the size-conflict rejections along the way *)
  QCheck.Test.make ~name:"refinement holds under mixed 4K/2M traffic" ~count:25
    QCheck.(list (triple bool bool (int_bound 15)))
    (fun ops ->
      let _, alloc, pt = mk_pt ~frames:16384 () in
      List.iter
        (fun (do_map, big, slot) ->
          let vaddr =
            if big then va0 + (slot * Phys_mem.page_size_2m)
            else va0 + (slot * 4096)
          in
          if do_map then begin
            let frame =
              if big then Page_alloc.alloc_2m alloc ~purpose:Page_alloc.User
              else Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User
            in
            match frame with
            | None -> ()
            | Some frame ->
              let r =
                if big then Page_table.map pt ~size:Page_state.S2m ~vaddr ~frame ~perm:Pte.perm_rw
                else Page_table.map_4k pt ~vaddr ~frame ~perm:Pte.perm_rw
              in
              (match r with
               | Ok () -> ()
               | Error _ -> ignore (Page_alloc.dec_ref alloc ~addr:frame))
          end
          else
            match Page_table.unmap pt ~vaddr with
            | Ok e -> ignore (Page_alloc.dec_ref alloc ~addr:e.Page_table.frame)
            | Error _ -> ())
        ops;
      Pt_oracle.check_agrees "mixed sizes" pt;
      Pt_refine.all pt = Ok () && Nros_pt.all pt = Ok ()
      && Page_alloc.wf alloc = Ok ())

let () =
  Atmo_san.Runtime.arm_of_env ();
  Alcotest.run ~and_exit:false "pt"
    [
      ( "mapping",
        [
          Alcotest.test_case "map/resolve 4k" `Quick test_map_resolve_4k;
          Alcotest.test_case "map/unmap round trip" `Quick test_map_unmap_roundtrip;
          Alcotest.test_case "double map rejected" `Quick test_double_map_rejected;
          Alcotest.test_case "misaligned rejected" `Quick test_misaligned_rejected;
          Alcotest.test_case "size conflicts" `Quick test_size_conflicts;
          Alcotest.test_case "huge mappings" `Quick test_huge_mappings_resolve;
          Alcotest.test_case "update perm" `Quick test_update_perm;
          Alcotest.test_case "destroy" `Quick test_destroy_returns_tables;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "missing_tables exact" `Quick test_missing_tables_exact;
          Alcotest.test_case "a walk fault changes nothing" `Quick test_walk_fault_changes_nothing;
          Alcotest.test_case "prune empty tables" `Quick test_prune_empty_tables;
          Alcotest.test_case "missing_tables matches the oracle" `Quick
            test_missing_tables_matches_oracle;
        ] );
      ( "overlap",
        [
          Alcotest.test_case "edges" `Quick test_overlap_edges;
          Alcotest.test_case "matches the linear scan" `Quick test_overlap_matches_scan;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "step consistency" `Quick test_step_hook_consistency;
          Alcotest.test_case "nros agrees with flat" `Quick test_nros_agrees_with_flat;
          Alcotest.test_case "ghost_wf per mapping" `Quick test_ghost_wf_per_mapping;
          Alcotest.test_case "checkers catch corruption" `Quick test_checkers_catch_corruption;
          Alcotest.test_case "checkers match per-entry oracle" `Quick test_checkers_match_oracle;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_map_unmap_refines; prop_mixed_sizes_refine ] );
    ];
  Atmo_san.Runtime.exit_check ()
