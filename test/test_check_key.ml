(* The key of a page table's last clean check (Page_table's
   check_input) and the page allocator's key (its write versions): a
   table or allocator whose whole input is unchanged skips its check,
   and every other verdict and message must be what a cache-free check
   gives.  The oracle forgets every key with
   [Page_table.Backdoor.forget_check] and
   [Page_alloc.Backdoor.forget_check] and checks again. *)

open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
module Page_state = Atmo_pmem.Page_state
module Page_alloc = Atmo_pmem.Page_alloc
module Dll = Atmo_pmem.Dll
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

let forget_keys k =
  List.iter (fun (_, pt) -> Page_table.Backdoor.forget_check pt) (tables k);
  Page_alloc.Backdoor.forget_check k.Kernel.alloc

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

(* The allocator's keyed [wf], [views] and six accessors against a
   cache-free [wf] and [views]. *)
let views_equal (a : Page_alloc.views) (b : Page_alloc.views) =
  Frame_set.equal a.free_4k b.free_4k
  && Frame_set.equal a.free_2m b.free_2m
  && Frame_set.equal a.free_1g b.free_1g
  && Frame_set.equal a.merged b.merged
  && Iset.equal a.allocated b.allocated
  && Iset.equal a.mapped b.mapped

let same_frames s f =
  Iset.cardinal s = Frame_set.cardinal f && Iset.for_all (fun addr -> Frame_set.mem f addr) s

let check_allocator what a =
  let keyed_wf = result (Page_alloc.wf a) and keyed = Page_alloc.views a in
  let dense =
    [
      ("free_pages_4k", Page_alloc.free_pages_4k a);
      ("free_pages_2m", Page_alloc.free_pages_2m a);
      ("free_pages_1g", Page_alloc.free_pages_1g a);
      ("merged_pages", Page_alloc.merged_pages a);
    ]
  and allocated = Page_alloc.allocated_pages a
  and mapped = Page_alloc.mapped_pages a in
  Page_alloc.Backdoor.forget_check a;
  let fresh_wf = result (Page_alloc.wf a) and fresh = Page_alloc.views a in
  Alcotest.(check string) (what ^ ": allocator wf") fresh_wf keyed_wf;
  checkb (what ^ ": views") true (views_equal fresh keyed);
  List.iter2
    (fun (name, s) f -> checkb (what ^ ": " ^ name) true (same_frames s f))
    dense
    [ fresh.free_4k; fresh.free_2m; fresh.free_1g; fresh.merged ];
  checkb (what ^ ": allocated_pages") true (Iset.equal allocated fresh.allocated);
  checkb (what ^ ": mapped_pages") true (Iset.equal mapped fresh.mapped)

let sizes = Page_state.[| S4k; S2m; S1g |]

(* A backdoor write into a random frame's state or a random free list,
   which may break the allocator; returns its undo. *)
let plant_allocator rng a =
  let module B = Page_alloc.Backdoor in
  let managed = Page_alloc.managed_frames a in
  let first = Phys_mem.page_count (Page_alloc.mem a) - managed in
  let frame () = first + Random.State.int rng managed in
  let list () = B.free_list a sizes.(Random.State.int rng 3) in
  match Random.State.int rng 4 with
  | 0 ->
    let f = frame () in
    let addr = f * Phys_mem.page_size in
    let state = Option.get (Page_alloc.state_of a ~addr) in
    (* a merged frame's code carries the 4 KiB size *)
    let size = Option.value (Page_alloc.size_of a ~addr) ~default:Page_state.S4k in
    let planted =
      match Random.State.int rng 4 with
      | 0 -> Page_state.Free
      | 1 -> Page_state.Allocated
      | 2 -> Page_state.Mapped (Random.State.int rng 3)
      | _ -> Page_state.Merged (frame ())
    in
    B.set_frame a ~frame:f planted sizes.(Random.State.int rng 3);
    fun () -> B.set_frame a ~frame:f state size
  | 1 ->
    let l = list () and id = frame () in
    let member = Dll.mem l id in
    Dll.Backdoor.set_member l id (not member);
    fun () -> Dll.Backdoor.set_member l id member
  | 2 ->
    (* a removed member comes back at the end of its list *)
    let l = list () and id = frame () in
    if Dll.mem l id then begin
      Dll.remove l id;
      fun () -> Dll.push_back l id
    end
    else begin
      Dll.push_back l id;
      fun () -> Dll.remove l id
    end
  | _ ->
    let l = B.free_list a Page_state.S4k in
    let ids = Array.of_list (Dll.to_list l) in
    let i = Random.State.int rng (Array.length ids) in
    let at j = if j < 0 || j >= Array.length ids then -1 else ids.(j) in
    let wild = Random.State.int rng (first + managed + 2) - 1 in
    if Random.State.bool rng then begin
      Dll.Backdoor.set_next l ids.(i) wild;
      fun () -> Dll.Backdoor.set_next l ids.(i) (at (i + 1))
    end
    else begin
      Dll.Backdoor.set_prev l ids.(i) wild;
      fun () -> Dll.Backdoor.set_prev l ids.(i) (at (i - 1))
    end

(* Seeded checked transitions, checking each step's cached verdicts and
   allocator views against a cache-free evaluation; every fifth step
   also stores raw into a table page, checks, restores the page's bytes
   and checks again, then does the same with a backdoor write into the
   allocator. *)
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
      check_allocator what k.Kernel.alloc;
      if step mod 5 = 0 then begin
        let mem, page, saved = corrupt rng k in
        check_cache_free (what ^ " after a raw store") k;
        Phys_mem.blit_to mem ~addr:page saved;
        check_cache_free (what ^ " after the restore") k;
        let undo = plant_allocator rng k.Kernel.alloc in
        check_allocator (what ^ " after a backdoor write") k.Kernel.alloc;
        check_cache_free (what ^ " after a backdoor write") k;
        undo ();
        check_allocator (what ^ " after its undo") k.Kernel.alloc;
        check_cache_free (what ^ " after its undo") k
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

(* After a clean [wf] and [views], one write through each writer the
   allocator's key must see: the keyed verdict and views are the
   cache-free ones, and the write broke the allocator, so a kept clean
   verdict would show. *)
let writer_misses_key (what, write) () =
  let k = world () in
  let a = k.Kernel.alloc in
  Alcotest.(check string) "clean before" "ok" (result (Page_alloc.wf a));
  ignore (Page_alloc.views a);
  write a;
  check_allocator what a;
  checkb "the write breaks the allocator" true (Page_alloc.wf a <> Ok ())

let writers =
  let module B = Page_alloc.Backdoor in
  let free4k a = B.free_list a Page_state.S4k in
  let second a = List.nth (Dll.to_list (free4k a)) 1 in
  [
    ( "Backdoor.set_frame",
      fun a ->
        let addr = Iset.max_elt (Page_alloc.free_pages_4k a) in
        B.set_frame a ~frame:(addr / Phys_mem.page_size) Page_state.Allocated Page_state.S4k );
    ( "Dll.push_back on a list",
      fun a ->
        let addr = Iset.max_elt (Page_alloc.allocated_pages a) in
        Dll.push_back (free4k a) (addr / Phys_mem.page_size) );
    ("Dll.remove on a list", fun a -> Dll.remove (free4k a) (second a));
    ("Dll.Backdoor.set_next", fun a -> Dll.Backdoor.set_next (free4k a) (second a) (-1));
    ("Dll.Backdoor.set_prev", fun a -> Dll.Backdoor.set_prev (free4k a) (second a) (-1));
    ("Dll.Backdoor.set_member", fun a -> Dll.Backdoor.set_member (free4k a) (second a) false);
  ]

(* A failing transaction's replay is a write: two 2 MiB merges, a
   split of one of the merged blocks for a 4 KiB frame, everything
   released, the allocator checked in the middle (free2m holds the
   block left merged), then the replay splits and merges back. *)
let test_replay_misses_key () =
  let mem = Phys_mem.create ~page_count:1536 in
  let a = Page_alloc.create mem ~reserved_frames:0 in
  let fresh = Page_alloc.views a in
  let middle = ref fresh in
  let user () = Option.get (Page_alloc.alloc_4k a ~purpose:Page_alloc.User) in
  let r =
    Page_alloc.atomically a (fun () ->
        let big = List.init 2 (fun _ -> Page_alloc.alloc_2m a ~purpose:Page_alloc.User) in
        List.iter (fun b -> ignore (Page_alloc.dec_ref a ~addr:(Option.get b))) big;
        (* 512 free frames, then one split of a free 2 MiB block *)
        let small = List.init 513 (fun _ -> user ()) in
        List.iter (fun addr -> ignore (Page_alloc.dec_ref a ~addr)) small;
        Alcotest.(check string) "clean in the middle" "ok" (result (Page_alloc.wf a));
        middle := Page_alloc.views a;
        Error ())
  in
  checkb "the transaction failed" true (Result.is_error r);
  checkb "one block left merged in the middle" true
    (Frame_set.cardinal !middle.Page_alloc.free_2m = 1);
  check_allocator "after the replay" a;
  checkb "the replay restored the views" true (views_equal fresh (Page_alloc.views a))

(* Every writer of the page array moves its version, so the views are
   read again after each: on a 2 MiB machine, a kernel and a user
   claim, a share, both kinds of [dec_ref], a kernel free, a merge of
   every frame, a split for the next 4 KiB claim, and a backdoor
   write. *)
let test_page_writers () =
  let mem = Phys_mem.create ~page_count:512 in
  let a = Page_alloc.create mem ~reserved_frames:0 in
  let claim purpose = Option.get (Page_alloc.alloc_4k a ~purpose) in
  let kernel = ref 0 and user = ref 0 in
  List.iter
    (fun (what, write) ->
      let before = Page_alloc.views a in
      write ();
      checkb (what ^ " re-reads the views") true (Page_alloc.views a != before);
      check_allocator what a)
    [
      ("a kernel claim", fun () -> kernel := claim Page_alloc.Kernel);
      ("a user claim", fun () -> user := claim Page_alloc.User);
      ("inc_ref", fun () -> Page_alloc.inc_ref a ~addr:!user);
      ("dec_ref of a shared page", fun () -> ignore (Page_alloc.dec_ref a ~addr:!user));
      ("dec_ref of the last mapping", fun () -> ignore (Page_alloc.dec_ref a ~addr:!user));
      ("free_kernel_page", fun () -> Page_alloc.free_kernel_page a ~addr:!kernel);
      ("a merge", fun () -> checkb "merged" true (Page_alloc.try_merge_2m a));
      ("a split", fun () -> kernel := claim Page_alloc.Kernel);
      ( "Backdoor.set_frame",
        fun () -> Page_alloc.Backdoor.set_frame a ~frame:1 Page_state.Allocated Page_state.S4k );
    ]

(* With no write between them, two [views] are one record. *)
let test_views_shared () =
  let k = world () in
  let a = k.Kernel.alloc in
  checkb "physically equal" true (Page_alloc.views a == Page_alloc.views a)

(* An unchanged kernel re-checks its allocator for the cost of its key:
   four version compares. *)
let test_unchanged_allocator () =
  let k = world () in
  Alcotest.(check string) "clean" "ok" (result (Invariants.allocator_wf k));
  Alloc.check_at_most "allocator_wf on an unchanged kernel" ~limit:0.
    (Alloc.per_call (fun () -> ignore (Invariants.allocator_wf k)))

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
      ( "allocator",
        List.map
          (fun (what, write) ->
            Alcotest.test_case (what ^ " misses the key") `Quick (writer_misses_key (what, write)))
          writers
        @ [
            Alcotest.test_case "atomically's replay misses the key" `Quick
              test_replay_misses_key;
            Alcotest.test_case "page-array writers move the version" `Quick
              test_page_writers;
            Alcotest.test_case "views without a write are one record" `Quick test_views_shared;
          ] );
      ( "cost",
        [
          Alcotest.test_case "unchanged kernel allocation floor" `Quick test_unchanged_allocation;
          Alcotest.test_case "unchanged allocator allocation floor" `Quick test_unchanged_allocator;
        ] );
    ]
