(* The keys of the checks that re-read only what changed: a page
   table's last clean input (Page_table's check_input), the page
   allocator's write versions and write logs, the process-manager
   checks' last clean inputs (Pm_invariants), the memory checks' shared
   view (Invariants) and the kept α (Abstraction).  A check whose whole
   input is unchanged skips its work, a check after a step re-reads
   only what the step wrote, and every verdict, message and α must be
   what a cache-free evaluation gives.  The oracle forgets the table
   keys ([Page_table.Backdoor.forget_check]) and evaluates under the
   [Backdoor.cache_free] of the other four, which leave their kept
   state as it was, so the chain of keyed (and per-range) runs is never
   cut. *)

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
module Pm_invariants = Atmo_pm.Pm_invariants
module Kernel = Atmo_core.Kernel
module Invariants = Atmo_core.Invariants
module Abstraction = Atmo_core.Abstraction
module A = Atmo_spec.Abstract_state
module Syscall = Atmo_spec.Syscall
module Syscall_spec = Atmo_spec.Syscall_spec
module Catalog = Atmo_verif.Catalog
module Harness = Atmo_verif.Refine_harness

let checkb = Alcotest.(check bool)

let world_init () =
  match Catalog.build_world ~scale:3 with
  | Ok w -> w
  | Error msg -> Alcotest.failf "world: %s" msg

let world () = fst (world_init ())

let tables = Keyed.tables
let cache_free = Keyed.cache_free
let result = Keyed.result

(* Everything a key can change: {!Keyed.verdicts} and every violation
   each table's enumerator yields. *)
let verdicts k =
  let enumerated (who, pt) =
    let found = ref [] in
    Pt_refine.violations pt (fun rule page msg ->
        found :=
          Printf.sprintf "%s: %s 0x%x %s" who (Violation.rule_name rule) page msg :: !found);
    List.rev !found
  in
  Keyed.verdicts k @ List.concat_map enumerated (tables k)

(* α field by field, each compared by its bindings (no physical-equality
   shortcut). *)
let alpha_fields (a : A.t) (b : A.t) =
  let same eq m m' =
    List.equal (fun (p, x) (p', y) -> p = p' && eq x y) (Imap.bindings m) (Imap.bindings m')
  in
  [
    ("containers", same A.equal_acontainer a.A.containers b.A.containers);
    ("procs", same A.equal_aproc a.A.procs b.A.procs);
    ("threads", same A.equal_athread a.A.threads b.A.threads);
    ("endpoints", same A.equal_aendpoint a.A.endpoints b.A.endpoints);
    ("root", a.A.root = b.A.root);
    ("run_queue", a.A.run_queue = b.A.run_queue);
    ("current", a.A.current = b.A.current);
    ("free_4k", Frame_set.equal a.A.free_4k b.A.free_4k);
    ("free_2m", Frame_set.equal a.A.free_2m b.A.free_2m);
    ("free_1g", Frame_set.equal a.A.free_1g b.A.free_1g);
    ("allocated", Iset.elements a.A.allocated = Iset.elements b.A.allocated);
    ("mapped", Iset.elements a.A.mapped = Iset.elements b.A.mapped);
    ("merged", Frame_set.equal a.A.merged b.A.merged);
    ("devices", same A.equal_adevice a.A.devices b.A.devices);
  ]

let check_alpha what ~fresh kept =
  checkb (what ^ ": α equal") true (A.equal fresh kept);
  List.iter (fun (field, ok) -> checkb (what ^ ": α " ^ field) true ok) (alpha_fields fresh kept)

(* Checked twice with the keys, so a kept verdict that was not clean
   shows on the second check. *)
let check_cache_free what k =
  let cached = verdicts k in
  let again = verdicts k in
  let alpha = Abstraction.abstract k in
  let fresh, fresh_alpha = cache_free k (fun () -> (verdicts k, Abstraction.abstract k)) in
  Alcotest.(check (list string)) what fresh cached;
  Alcotest.(check (list string)) (what ^ ", checked again") fresh again;
  check_alpha what ~fresh:fresh_alpha alpha

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
   cache-free [wf] and [views], which keep nothing, so the next keyed
   run still starts from this one's. *)
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
  let fresh_wf, fresh =
    Page_alloc.Backdoor.cache_free (fun () -> (result (Page_alloc.wf a), Page_alloc.views a))
  in
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
   which may break the allocator, or a burst of writes the logs cannot
   hold, or a 2 MiB merge and split; returns its undo. *)
let plant_allocator rng a =
  let module B = Page_alloc.Backdoor in
  let managed = Page_alloc.managed_frames a in
  let first = Phys_mem.page_count (Page_alloc.mem a) - managed in
  let frame () = first + Random.State.int rng managed in
  let list () = B.free_list a sizes.(Random.State.int rng 3) in
  (* frame [f]'s state, a random one to plant over it, and the undo *)
  let overwrite f =
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
    (planted, sizes.(Random.State.int rng 3), fun () -> B.set_frame a ~frame:f state size)
  in
  match Random.State.int rng 8 with
  | 0 ->
    let f = frame () in
    let planted, size, undo = overwrite f in
    B.set_frame a ~frame:f planted size;
    undo
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
  | 3 ->
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
  | 4 ->
    (* a detached cycle: a run of the 4 KiB list cut out and closed on
       itself, every link still mirrored and the length unchanged *)
    let l = B.free_list a Page_state.S4k in
    let ids = Array.of_list (Dll.to_list l) in
    let n = Array.length ids in
    let i = 1 + Random.State.int rng (n - 3) in
    let j = i + 1 + Random.State.int rng (min 8 (n - 2 - i)) in
    let link x y =
      Dll.Backdoor.set_next l ids.(x) ids.(y);
      Dll.Backdoor.set_prev l ids.(y) ids.(x)
    in
    link (i - 1) (j + 1);
    link j i;
    fun () ->
      link (i - 1) i;
      link j (j + 1)
  | 5 ->
    (* a 2 MiB merge, split again by the failed transaction's replay *)
    ignore (Page_alloc.atomically a (fun () -> ignore (Page_alloc.try_merge_2m a); Error ()));
    Fun.id
  | 6 ->
    (* more list writes than the log holds: a flag turned over
       [Dll.log_length + 1] times *)
    let l = list () and id = frame () in
    let member = Dll.mem l id in
    for w = 0 to Dll.log_length do
      Dll.Backdoor.set_member l id (if w mod 2 = 0 then not member else member)
    done;
    fun () -> Dll.Backdoor.set_member l id member
  | _ ->
    (* more page-array writes than the log holds: one frame's state
       written [Dll.log_length + 1] times *)
    let f = frame () in
    let planted, size, undo = overwrite f in
    for _ = 0 to Dll.log_length do
      B.set_frame a ~frame:f planted size
    done;
    undo

(* Seeded checked transitions, checking each step's cached verdicts and
   allocator views against a cache-free evaluation; every fifth step
   also stores raw into a table page, checks, restores the page's bytes
   and checks again, then does the same with a backdoor write into the
   allocator ([plant_allocator]). *)
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
  let fresh = cache_free k (fun () -> result (Invariants.total_wf k)) in
  Alcotest.(check string) (what ^ ": cache-free") expected fresh;
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

(* After a clean [wf], a write that only one rule of the per-range
   check sees (each frame rule, the list-id rule, each list rule), so a
   per-range run without that rule would keep the allocator clean: the
   keyed verdict and views are the cache-free ones, and the write broke
   the allocator.  [prepare] runs before the clean check and hands the
   write its frame. *)
let per_range_rule (what, prepare, write) () =
  let k = world () in
  let a = k.Kernel.alloc in
  let f = prepare a in
  Alcotest.(check string) "clean before" "ok" (result (Page_alloc.wf a));
  ignore (Page_alloc.views a);
  write a f;
  check_allocator what a;
  checkb "the write breaks the allocator" true (Page_alloc.wf a <> Ok ())

let frame_of addr = addr / Phys_mem.page_size

(* A 2 MiB block merged from free frames: its head frame. *)
let merged a =
  checkb "merged" true (Page_alloc.try_merge_2m a);
  frame_of (Iset.min_elt (Page_alloc.free_pages_2m a))

let frame_rules =
  let module B = Page_alloc.Backdoor in
  let allocated a = frame_of (Iset.max_elt (Page_alloc.allocated_pages a)) in
  let free a = frame_of (Iset.max_elt (Page_alloc.free_pages_4k a)) in
  [
    ( "a frame's own rule",
      allocated,
      fun a f -> B.set_frame a ~frame:f (Page_state.Mapped 0) Page_state.S4k );
    ("a free frame off its list", allocated, fun a f -> B.set_frame a ~frame:f Page_state.Free Page_state.S4k);
    ("a list id against its frame", free, fun a f -> Dll.push_back (B.free_list a Page_state.S2m) f);
    ( "a superpage's bodies",
      (fun a ->
        frame_of
          (Iset.max_elt
             (Iset.filter (fun addr -> frame_of addr land 511 = 0) (Page_alloc.free_pages_4k a)))),
      fun a f ->
        Dll.remove (B.free_list a Page_state.S4k) f;
        B.set_frame a ~frame:f Page_state.Allocated Page_state.S2m );
    ( "the head covering a body",
      merged,
      fun a h -> B.set_frame a ~frame:(h + 5) Page_state.Allocated Page_state.S4k );
    ( "bodies naming a written head",
      (fun a ->
        let h = merged a in
        checkb "claimed" true (Page_alloc.alloc_2m a ~purpose:Page_alloc.Kernel <> None);
        h),
      fun a h -> B.set_frame a ~frame:h Page_state.Allocated Page_state.S4k );
  ]

(* A list of ids 0..7 in order, clean, then a write only one rule of
   [Dll.wf_since] sees: the full check fails and so does the per-range
   one. *)
let list_rule (what, write) () =
  let l = Dll.create ~capacity:16 ~name:"l" in
  for i = 0 to 7 do
    Dll.push_back l i
  done;
  Dll.start_log l;
  Alcotest.(check string) "clean before" "ok" (result (Dll.wf l));
  let v = Dll.version l in
  write l;
  checkb (what ^ ": the full check fails") true (Dll.wf l <> Ok ());
  checkb (what ^ ": the per-range check fails") false (Dll.wf_since l v (fun _ -> true))

let list_rules =
  let module D = Dll.Backdoor in
  let link l x y =
    D.set_next l x y;
    D.set_prev l y x
  in
  (* 12 spliced in between 5 and 6, every link mirrored *)
  let splice l =
    D.set_member l 12 true;
    link l 5 12;
    link l 12 6
  in
  [
    (* a back link into the list that its target does not mirror *)
    ("a back link's mirror", fun l -> D.set_prev l 2 5);
    (* the last member's forward link into the middle: every back link
       is still mirrored, and the walk still reaches the first *)
    ("the ends of a list", fun l -> D.set_next l 7 3);
    ( "a non-member still linked",
      fun l ->
        D.set_member l 3 false;
        splice l );
    ("the member count", splice);
    (* a remove through a back link moved before it: 4's predecessor
       is re-pointed at 1, so the remove links 1 to 5 and leaves 2 and
       3 a detached run that only the remove's old target names *)
    ( "a remove's old target",
      fun l ->
        D.set_prev l 4 1;
        Dll.remove l 4 );
    ( "a walk to an end",
      fun l ->
        link l 2 6;
        link l 5 3 );
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

(* The page array's log: nothing before the first keyed check, then
   each write's frames, and nothing once more writes were made than it
   holds. *)
let test_page_log () =
  let mem = Phys_mem.create ~page_count:512 in
  let a = Page_alloc.create mem ~reserved_frames:0 in
  let since v =
    let frames = ref [] in
    if Page_alloc.written_since a v (fun f -> frames := f :: !frames) then Some (List.rev !frames)
    else None
  in
  let v = Page_alloc.version a in
  let user = Option.get (Page_alloc.alloc_4k a ~purpose:Page_alloc.User) in
  checkb "no log before a check" true (since v = None);
  Alcotest.(check string) "clean" "ok" (result (Page_alloc.wf a));
  let v = Page_alloc.version a in
  Page_alloc.inc_ref a ~addr:user;
  Alcotest.(check (option (list int))) "one write" (Some [ user ]) (since v);
  for _ = 1 to Dll.log_length do
    Page_alloc.inc_ref a ~addr:user
  done;
  checkb "past the log" true (since v = None)

(* With no write between them, two [views] are one record. *)
let test_views_shared () =
  let k = world () in
  let a = k.Kernel.alloc in
  checkb "physically equal" true (Page_alloc.views a == Page_alloc.views a)

(* After one [New_endpoint] (a kernel page claimed off the 4 KiB list),
   the keyed [allocator_wf] runs per range: it walks no list and
   allocates a pinned few words. *)
let test_new_endpoint_allocator () =
  let k, init = world_init () in
  Alcotest.(check string) "clean" "ok" (result (Invariants.allocator_wf k));
  (match Kernel.step k ~thread:init (Syscall.New_endpoint { slot = 3 }) with
   | Syscall.Rptr _ -> ()
   | r -> Alcotest.failf "new endpoint: %a" Syscall.pp_ret r);
  let walks = Dll.full_walks () and r = ref (Error "not run") in
  let words = Alloc.per_call ~n:1 (fun () -> r := Invariants.allocator_wf k) in
  Alcotest.(check string) "clean after" "ok" (result !r);
  Alcotest.(check int) "no list walked" walks (Dll.full_walks ());
  Alloc.check_at_most "allocator_wf after New_endpoint" ~limit:64. words

(* An unchanged kernel re-checks its allocator for the cost of its key:
   four version compares. *)
let test_unchanged_allocator () =
  let k = world () in
  Alcotest.(check string) "clean" "ok" (result (Invariants.allocator_wf k));
  Alloc.check_at_most "allocator_wf on an unchanged kernel" ~limit:0.
    (Alloc.per_call (fun () -> ignore (Invariants.allocator_wf k)))

(* ------------------------------------------------------------------ *)
(* Neighbour rules                                                     *)

module Container = Atmo_pm.Container
module Thread = Atmo_pm.Thread
module Endpoint = Atmo_pm.Endpoint
module Static_list = Atmo_pm.Static_list
module Sched_queue = Atmo_pm.Sched_queue

(* The scale-3 world with a container tree three deep (c0 > c00 >
   c000), a child process [pc] of c0's first process [p0], a thread [tb]
   of c0's second process [p1] blocked sending on [p0]'s endpoint [e0]
   with no slot naming it, a runnable thread [tr] of [p1] with no slot,
   endpoints [e2] and [e3] of the root container in init's slots 1 and
   2, and a thread [trv] of [p1] blocked receiving on [e3]. *)
type nworld = {
  k : Kernel.t;
  init : int;
  root : int;
  c0 : int;
  c1 : int;
  c00 : int;
  c000 : int;
  p0 : int;
  p1 : int;
  pc : int;
  t0 : int;
  tb : int;
  tr : int;
  trv : int;
  e0 : int;
  e2 : int;
  e3 : int;
}

let ok what = function Ok v -> v | Error e -> Alcotest.failf "%s: %a" what Errno.pp e
let cntrs (w : nworld) = w.k.Kernel.pm.Proc_mgr.cntr_perms
let procs (w : nworld) = w.k.Kernel.pm.Proc_mgr.proc_perms
let thrds (w : nworld) = w.k.Kernel.pm.Proc_mgr.thrd_perms
let edpts (w : nworld) = w.k.Kernel.pm.Proc_mgr.edpt_perms
let push l x = match Static_list.push l x with Ok l -> l | Error `Full -> Alcotest.fail "full"
let drop l x = match Static_list.remove l ~eq:Int.equal x with Ok l -> l | Error `Absent -> l

let nworld () =
  let k, init = world_init () in
  let pm = k.Kernel.pm in
  let root = pm.Proc_mgr.root_container in
  let tops =
    Perm_map.fold
      (fun ptr (c : Container.t) acc -> if c.Container.parent = Some root then ptr :: acc else acc)
      pm.Proc_mgr.cntr_perms []
    |> List.sort compare
  in
  let c0 = List.nth tops 0 and c1 = List.nth tops 1 in
  let cpus = Iset.empty in
  let c00 = ok "c00" (Proc_mgr.new_container pm ~parent:c0 ~quota:12 ~cpus) in
  let c000 = ok "c000" (Proc_mgr.new_container pm ~parent:c00 ~quota:4 ~cpus) in
  let p0, p1 =
    match Static_list.to_list (Perm_map.borrow pm.Proc_mgr.cntr_perms ~ptr:c0).Container.procs with
    | p0 :: p1 :: _ -> (p0, p1)
    | _ -> Alcotest.fail "c0 has two processes"
  in
  let pc = ok "pc" (Proc_mgr.new_process pm ~container:c0 ~parent:(Some p0)) in
  let t0 = List.hd (Static_list.to_list (Perm_map.borrow pm.Proc_mgr.proc_perms ~ptr:p0).Process.threads) in
  let e0 = Option.get (Thread.slot (Perm_map.borrow pm.Proc_mgr.thrd_perms ~ptr:t0) 0) in
  let tb = ok "tb" (Proc_mgr.new_thread pm ~proc:p1) in
  Proc_mgr.remove_from_run_queue pm ~thread:tb;
  Perm_map.update pm.Proc_mgr.thrd_perms ~ptr:tb (fun th ->
      { th with Thread.state = Thread.Blocked_send e0; msg_buf = Some (Atmo_pm.Message.scalars_only [ 7 ]) });
  Perm_map.update pm.Proc_mgr.edpt_perms ~ptr:e0 (fun e ->
      { e with Endpoint.send_queue = push e.Endpoint.send_queue tb });
  let tr = ok "tr" (Proc_mgr.new_thread pm ~proc:p1) in
  let endpoint slot =
    match Kernel.step k ~thread:init (Syscall.New_endpoint { slot }) with
    | Syscall.Rptr e -> e
    | r -> Alcotest.failf "endpoint in slot %d: %a" slot Syscall.pp_ret r
  in
  let e2 = endpoint 1 and e3 = endpoint 2 in
  let trv = ok "trv" (Proc_mgr.new_thread pm ~proc:p1) in
  Proc_mgr.remove_from_run_queue pm ~thread:trv;
  Perm_map.update pm.Proc_mgr.thrd_perms ~ptr:trv (fun th ->
      { th with Thread.state = Thread.Blocked_recv e3 });
  Perm_map.update pm.Proc_mgr.edpt_perms ~ptr:e3 (fun e ->
      { e with Endpoint.recv_queue = push e.Endpoint.recv_queue trv });
  { k; init; root; c0; c1; c00; c000; p0; p1; pc; t0; tb; tr; trv; e0; e2; e3 }

(* The first table entry a cache-free check fails. *)
let first_failing k =
  Keyed.cache_free k (fun () ->
      List.find_map
        (fun (e : Invariants.entry) ->
          match Pm_invariants.check e k with Ok () -> None | Error _ -> Some e.Pm_invariants.name)
        Invariants.table)

(* After a clean keyed check, a plant whose first violation sits at an
   object the plant did not write, a neighbour that only its rule
   brings into the keyed run: the keyed verdicts, messages and α are
   the cache-free ones, and [entry] is the first to fail. *)
let neighbour (what, prepare, plant, entry) () =
  let w = nworld () in
  prepare w;
  Keyed.warm what w.k;
  plant w;
  Keyed.check_agrees what w.k;
  Alcotest.(check (option string)) (what ^ ": first failing entry") (Some entry) (first_failing w.k)

let nothing _ = ()
let set_cntr w ptr f = Perm_map.update (cntrs w) ~ptr f
let set_proc w ptr f = Perm_map.update (procs w) ~ptr f
let set_thrd w ptr f = Perm_map.update (thrds w) ~ptr f
let set_edpt w ptr f = Perm_map.update (edpts w) ~ptr f

(* A free frame mapped at [va] in [pt], charged to nobody. *)
let map_free w pt ~va =
  let frame = Iset.max_elt (Page_alloc.free_pages_4k w.k.Kernel.alloc) in
  ok "map" (Result.map_error (fun _ -> Errno.Einval)
    (Page_table.map_4k pt ~vaddr:va ~frame ~perm:Atmo_hw.Pte_bits.perm_rw))

let neighbours =
  let cx = ref 0 and pz = ref 0 in
  [
    ( "a container's path",
      nothing,
      (fun w -> set_cntr w w.c00 (fun c -> { c with Container.quota = c.Container.quota + 1 })),
      "pm/quota_wf" );
    ( "a container's subtree",
      nothing,
      (fun w ->
        set_cntr w w.c00 (fun c -> { c with Container.subtree = Iset.remove w.c000 c.Container.subtree })),
      "pm/subtree_wf" );
    ( "a container's processes",
      nothing,
      (fun w -> set_cntr w w.c0 (fun c -> { c with Container.procs = drop c.Container.procs w.p1 })),
      "pm/process_tree_wf" );
    ( "a dead container's endpoints",
      (fun w ->
        let pm = w.k.Kernel.pm in
        cx := ok "cx" (Proc_mgr.new_container pm ~parent:w.c0 ~quota:4 ~cpus:Iset.empty);
        set_edpt w w.e0 (fun e -> { e with Endpoint.owner_container = !cx });
        Wf_plants.recharge w.k ~container:w.c0;
        Wf_plants.recharge w.k ~container:!cx),
      (fun w ->
        let dead = Perm_map.consume (cntrs w) ~ptr:!cx in
        set_cntr w w.c0 (fun c ->
            { c with
              Container.children = drop c.Container.children !cx;
              delegated = c.Container.delegated - dead.Container.quota });
        List.iter
          (fun anc ->
            set_cntr w anc (fun c -> { c with Container.subtree = Iset.remove !cx c.Container.subtree }))
          [ w.root; w.c0 ]),
      "pm/endpoints_wf" );
    ( "a process's parent",
      nothing,
      (fun w -> set_proc w w.pc (fun p -> { p with Process.parent = None })),
      "pm/process_tree_wf" );
    ( "a process's children",
      nothing,
      (fun w -> set_proc w w.p0 (fun p -> { p with Process.children = drop p.Process.children w.pc })),
      "pm/process_tree_wf" );
    ( "a process's threads",
      nothing,
      (fun w -> set_proc w w.p0 (fun p -> { p with Process.threads = drop p.Process.threads w.t0 })),
      "pm/process_tree_wf" );
    ( "a dead process's owner",
      (fun w -> pz := ok "pz" (Proc_mgr.new_process w.k.Kernel.pm ~container:w.c1 ~parent:None)),
      (fun w ->
        (* its page freed, its page table left allocated: a leak only
           the dead process's space shows *)
        ignore (Perm_map.consume (procs w) ~ptr:!pz);
        Page_alloc.free_kernel_page w.k.Kernel.alloc ~addr:!pz),
      "pm/quota_wf" );
    ( "a process's page table",
      nothing,
      (fun w -> map_free w (Perm_map.borrow (procs w) ~ptr:w.p0).Process.pt ~va:0x4000_8000),
      "pm/quota_wf" );
    ( "a thread's process",
      nothing,
      (fun w ->
        set_thrd w w.t0 (fun th -> { th with Thread.owner_proc = w.p1 });
        set_proc w w.p1 (fun p -> { p with Process.threads = push p.Process.threads w.t0 })),
      "pm/process_tree_wf" );
    ( "a thread's blocked endpoint",
      nothing,
      (fun w ->
        set_thrd w w.tb (fun th -> { th with Thread.state = Thread.Blocked_send w.e2 });
        set_edpt w w.e2 (fun e -> { e with Endpoint.send_queue = push e.Endpoint.send_queue w.tb })),
      "pm/endpoints_wf" );
    ( "a thread's slots",
      nothing,
      (fun w -> set_thrd w w.t0 (fun th -> Thread.set_slot th 1 (Some w.e2))),
      "pm/endpoints_wf" );
    ( "a thread's closed slot",
      nothing,
      (fun w -> set_thrd w w.t0 (fun th -> Thread.set_slot th 0 None)),
      "pm/endpoints_wf" );
    ( "a dead thread's container",
      nothing,
      (fun w ->
        Proc_mgr.remove_from_run_queue w.k.Kernel.pm ~thread:w.tr;
        ignore (Perm_map.consume (thrds w) ~ptr:w.tr);
        set_proc w w.p1 (fun p -> { p with Process.threads = drop p.Process.threads w.tr })),
      "pm/quota_wf" );
    ( "a dead thread's queue entry",
      nothing,
      (fun w ->
        ignore (Perm_map.consume (thrds w) ~ptr:w.tr);
        set_proc w w.p1 (fun p -> { p with Process.threads = drop p.Process.threads w.tr })),
      "pm/scheduler_wf" );
    ( "an endpoint's send queue",
      nothing,
      (fun w -> set_edpt w w.e0 (fun e -> { e with Endpoint.send_queue = drop e.Endpoint.send_queue w.tb })),
      "pm/scheduler_wf" );
    ( "an endpoint's receive queue",
      nothing,
      (fun w -> set_edpt w w.e3 (fun e -> { e with Endpoint.recv_queue = drop e.Endpoint.recv_queue w.trv })),
      "pm/scheduler_wf" );
    ( "an endpoint's owner",
      nothing,
      (fun w -> set_edpt w w.e2 (fun e -> { e with Endpoint.owner_container = w.c1 })),
      "pm/quota_wf" );
    ( "a dead endpoint's slots",
      nothing,
      (fun w -> ignore (Perm_map.consume (edpts w) ~ptr:w.e2)),
      "pm/endpoints_wf" );
    ( "an external charge",
      nothing,
      (fun w ->
        let pm = w.k.Kernel.pm in
        Hashtbl.replace pm.Proc_mgr.external_used w.c0 (Proc_mgr.external_of pm ~container:w.c0 + 1)),
      "pm/quota_wf" );
    ( "a run queue",
      nothing,
      (fun w -> Sched_queue.push_back (Proc_mgr.queue w.k.Kernel.pm ~cpu:0) w.tb),
      "pm/scheduler_wf" );
    ( "the current thread",
      nothing,
      (fun w -> Proc_mgr.set_current w.k.Kernel.pm (Some w.tb)),
      "pm/scheduler_wf" );
    ( "the steal ledger",
      nothing,
      (fun w ->
        let pm = w.k.Kernel.pm in
        pm.Proc_mgr.steal_ledger <- (1, 0, 0xdead000) :: pm.Proc_mgr.steal_ledger),
      "pm/scheduler_wf" );
    ( "a device's DMA window",
      nothing,
      (fun w -> map_free w (Imap.find 0 w.k.Kernel.devices).Kernel.io_pt ~va:0x9800_0000),
      "kernel/mapped_consistent" );
    ( "a mapped frame's state",
      nothing,
      (fun w ->
        let a = w.k.Kernel.alloc in
        let f = Iset.min_elt (Page_alloc.mapped_pages a) / Phys_mem.page_size in
        Page_alloc.Backdoor.set_frame a ~frame:f Page_state.Allocated Page_state.S4k),
      "kernel/leak_freedom" );
    ( "a device's record",
      nothing,
      (fun w ->
        let k = w.k in
        k.Kernel.devices <-
          Imap.add 0 { (Imap.find 0 k.Kernel.devices) with Kernel.irq_pending = 3 } k.Kernel.devices),
      "kernel/irq_backlog_wf" );
  ]

(* An unchanged kernel is checked for the cost of its keys: α is the
   kept one, the spec of a failed call compares two physically equal
   states, and each obligation compares its input with that of its last
   clean run (the page tables: one registry lookup and one version
   compare per table page). *)
let test_unchanged_allocation () =
  let k, init = world_init () in
  Keyed.warm "world" k;
  let call = Syscall.Mprotect { va = 0x7000_0000; perm = Atmo_hw.Pte_bits.perm_ro } in
  let pre = Abstraction.abstract k in
  let ret = Kernel.step k ~thread:init call in
  checkb "the call fails" true (match ret with Syscall.Rerr _ -> true | _ -> false);
  let post = Abstraction.abstract k in
  checkb "α is kept across the failed call" true (pre == post);
  Alcotest.(check string) "its spec holds" "ok"
    (result (Syscall_spec.check ~pre ~post ~thread:init call ret));
  (* a failed close sweeps no interrupt route: the device table is the
     same value, so α stays the kept one *)
  let devices = k.Kernel.devices in
  (match Kernel.step k ~thread:init (Syscall.Close_endpoint { slot = 9 }) with
   | Syscall.Rerr _ -> ()
   | r -> Alcotest.failf "close of an empty slot: %a" Syscall.pp_ret r);
  checkb "the failed close leaves the device table" true (k.Kernel.devices == devices);
  checkb "α is kept across the failed close" true (Abstraction.abstract k == post);
  let limit = function
    | "kernel/allocator_wf" | "kernel/closures_disjoint" | "kernel/leak_freedom"
    | "kernel/mapped_consistent" -> 0.
    | "kernel/pm_wf" -> 16.
    | "kernel/page_tables_wf" -> 64.
    | _ -> 100.
  in
  let floors =
    ("α", 0., fun () -> ignore (Abstraction.abstract k))
    :: ("the spec of a failed call", 16., fun () ->
         ignore (Syscall_spec.check ~pre ~post ~thread:init call ret))
    :: List.map (fun (name, check) -> (name, limit name, fun () -> ignore (check k)))
         Invariants.obligations
  in
  List.iter
    (fun (what, limit, f) ->
      Alloc.check_at_most (what ^ " on an unchanged kernel") ~limit (Alloc.per_call f))
    floors

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
            Alcotest.test_case "the page array's log" `Quick test_page_log;
          ]
        @ List.map
            (fun ((what, _, _) as r) -> Alcotest.test_case ("per range: " ^ what) `Quick (per_range_rule r))
            frame_rules
        @ List.map
            (fun ((what, _) as r) -> Alcotest.test_case ("per range: " ^ what) `Quick (list_rule r))
            list_rules );
      ( "neighbour",
        List.map
          (fun ((what, _, _, _) as n) -> Alcotest.test_case what `Quick (neighbour n))
          neighbours );
      ( "cost",
        [
          Alcotest.test_case "unchanged kernel allocation floor" `Quick test_unchanged_allocation;
          Alcotest.test_case "unchanged allocator allocation floor" `Quick test_unchanged_allocator;
          Alcotest.test_case "allocator after New_endpoint floor" `Quick test_new_endpoint_allocator;
        ] );
    ]
