(* Page allocator substrate: intrusive DLLs, page states, superpage
   merge/split, allocator invariant. *)

open Atmo_util
open Atmo_pmem
module Phys_mem = Atmo_hw.Phys_mem

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let expect_wf what wf =
  match wf with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s not wf: %s" what msg

(* ------------------------------------------------------------------ *)
(* Dll                                                                 *)

let test_dll_push_pop () =
  let l = Dll.create ~capacity:8 ~name:"t" in
  Dll.push_back l 1;
  Dll.push_back l 2;
  Dll.push_front l 0;
  Alcotest.(check (list int)) "order" [ 0; 1; 2 ] (Dll.to_list l);
  checkb "mem" true (Dll.mem l 1);
  Alcotest.(check (option int)) "pop front" (Some 0) (Dll.pop_front l);
  Alcotest.(check (option int)) "pop back" (Some 2) (Dll.pop_back l);
  checki "length" 1 (Dll.length l);
  expect_wf "dll" (Dll.wf l)

let test_dll_o1_remove_middle () =
  let l = Dll.create ~capacity:8 ~name:"t" in
  List.iter (Dll.push_back l) [ 0; 1; 2; 3; 4 ];
  Dll.remove l 2;
  Alcotest.(check (list int)) "middle removed" [ 0; 1; 3; 4 ] (Dll.to_list l);
  Dll.remove l 0;
  Dll.remove l 4;
  Alcotest.(check (list int)) "ends removed" [ 1; 3 ] (Dll.to_list l);
  expect_wf "dll" (Dll.wf l)

let test_dll_misuse_raises () =
  let l = Dll.create ~capacity:4 ~name:"t" in
  Dll.push_back l 1;
  Alcotest.check_raises "double push" (Invalid_argument "Dll.push_back(t): 1 already a member")
    (fun () -> Dll.push_back l 1);
  Alcotest.check_raises "remove non-member" (Invalid_argument "Dll.remove(t): 2 not a member")
    (fun () -> Dll.remove l 2);
  Alcotest.check_raises "out of range" (Invalid_argument "Dll.push_back(t): id 9 out of range")
    (fun () -> Dll.push_back l 9)

let test_dll_empty () =
  let l = Dll.create ~capacity:4 ~name:"t" in
  checkb "empty" true (Dll.is_empty l);
  Alcotest.(check (option int)) "pop empty" None (Dll.pop_front l);
  expect_wf "dll" (Dll.wf l)

let prop_dll_random_ops =
  (* random pushes/removes keep the structure well-formed and matching a
     model list, at capacities on either side of a membership word;
     [mem] of every id and [mem_range] of every range agree with the
     model *)
  QCheck.Test.make ~name:"dll random ops match model" ~count:100
    QCheck.(pair (int_bound 5) (list (pair (int_bound 2) (int_bound 64))))
    (fun (c, ops) ->
      let cap = List.nth [ 1; 7; 8; 63; 64; 65 ] c in
      let l = Dll.create ~capacity:cap ~name:"m" in
      let model = ref [] in
      List.iter
        (fun (op, id) ->
          let id = id mod cap in
          match op with
          | 0 ->
            if not (Dll.mem l id) then begin
              Dll.push_back l id;
              model := !model @ [ id ]
            end
          | 1 ->
            if not (Dll.mem l id) then begin
              Dll.push_front l id;
              model := id :: !model
            end
          | _ ->
            if Dll.mem l id then begin
              Dll.remove l id;
              model := List.filter (fun x -> x <> id) !model
            end)
        ops;
      let member = Array.init cap (fun id -> List.mem id !model) in
      let rec all lo hi = lo >= hi || (member.(lo) && all (lo + 1) hi) in
      let ranges_agree =
        List.for_all
          (fun lo ->
            List.for_all
              (fun hi -> Dll.mem_range l ~lo ~hi = all lo hi)
              (List.init (cap - lo + 1) (( + ) lo)))
          (List.init (cap + 1) Fun.id)
      in
      Dll.wf l = Ok ()
      && Dll.to_list l = !model
      && List.for_all (fun id -> Dll.mem l id = member.(id)) (List.init cap Fun.id)
      && ranges_agree)

(* One planted fault per [Dll.wf] message, each on the list [0; 1; 2]
   of capacity 8. *)
let dll_plants =
  let module B = Dll.Backdoor in
  [
    ("forward cycle", (fun l -> B.set_next l 2 0), "t: forward traversal exceeds capacity (cycle)");
    ("linked non-member", (fun l -> B.set_member l 1 false), "t: 1 linked but not a member");
    ("wrong back link", (fun l -> B.set_prev l 2 0), "t: forward/backward traversals disagree");
    ("backward cycle", (fun l -> B.set_prev l 0 2), "t: backward traversal exceeds capacity");
    ("skipped node", (fun l -> B.set_next l 0 2), "t: length 3 but traversal found 2");
    ("unlinked member", (fun l -> B.set_member l 5 true), "t: 4 member flags but length 3");
    ("wild next link", (fun l -> B.set_next l 1 99), "t: link to 99 outside [0, 8)");
    ("wild prev link", (fun l -> B.set_prev l 2 99), "t: link to 99 outside [0, 8)");
  ]

let test_dll_plant (plant, expected) () =
  let l = Dll.create ~capacity:8 ~name:"t" in
  List.iter (Dll.push_back l) [ 0; 1; 2 ];
  expect_wf "before the plant" (Dll.wf l);
  plant l;
  Alcotest.(check (result unit string)) "wf names the fault" (Error expected) (Dll.wf l)

(* ------------------------------------------------------------------ *)
(* Page_alloc                                                          *)

(* a machine with 3 MiB of managed memory: big enough for one 2M merge *)
let mk_alloc ?(frames = 1024) ?(reserved = 0) () =
  let mem = Phys_mem.create ~page_count:frames in
  (mem, Page_alloc.create mem ~reserved_frames:reserved)

let test_alloc_free_4k () =
  let _, a = mk_alloc () in
  let before = Page_alloc.free_count_4k a in
  (match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
   | None -> Alcotest.fail "alloc failed"
   | Some addr ->
     checkb "allocated state" true (Page_alloc.state_of a ~addr = Some Page_state.Allocated);
     checki "free shrank" (before - 1) (Page_alloc.free_count_4k a);
     Page_alloc.free_kernel_page a ~addr;
     checki "free restored" before (Page_alloc.free_count_4k a));
  expect_wf "alloc" (Page_alloc.wf a)

let test_alloc_zeroes () =
  let mem, a = mk_alloc () in
  (match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
   | None -> Alcotest.fail "alloc failed"
   | Some addr ->
     Phys_mem.write_u64 mem ~addr 42L;
     Page_alloc.free_kernel_page a ~addr;
     (* Every later allocation of the same frame must be zeroed. *)
     let rec drain () =
       match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
       | Some got when got = addr ->
         Alcotest.(check int64) "reallocated page zeroed" 0L (Phys_mem.read_u64 mem ~addr)
       | Some _ -> drain ()
       | None -> Alcotest.fail "frame never came back"
     in
     drain ())

let test_alloc_oom () =
  let _, a = mk_alloc ~frames:4 () in
  let rec drain n =
    match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
    | Some _ -> drain (n + 1)
    | None -> n
  in
  checki "exactly 4 frames" 4 (drain 0);
  checkb "then OOM" true (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel = None);
  expect_wf "alloc" (Page_alloc.wf a)

let test_mapped_refcount () =
  let _, a = mk_alloc () in
  match Page_alloc.alloc_4k a ~purpose:Page_alloc.User with
  | None -> Alcotest.fail "alloc failed"
  | Some addr ->
    Alcotest.(check (option int)) "rc 1" (Some 1) (Page_alloc.ref_count a ~addr);
    Page_alloc.inc_ref a ~addr;
    Alcotest.(check (option int)) "rc 2" (Some 2) (Page_alloc.ref_count a ~addr);
    checkb "dec keeps live" true (Page_alloc.dec_ref a ~addr = `Live);
    checkb "last dec frees" true (Page_alloc.dec_ref a ~addr = `Freed);
    checkb "now free" true (Page_alloc.is_free a ~addr);
    expect_wf "alloc" (Page_alloc.wf a)

let test_merge_2m () =
  let _, a = mk_alloc ~frames:1024 () in
  checki "no 2m blocks yet" 0 (Page_alloc.free_count_2m a);
  checkb "merge succeeds" true (Page_alloc.try_merge_2m a);
  checki "one 2m block" 1 (Page_alloc.free_count_2m a);
  checki "4k list shrank by 512" (1024 - 512) (Page_alloc.free_count_4k a);
  checki "511 merged bodies" 511 (Iset.cardinal (Page_alloc.merged_pages a));
  expect_wf "alloc" (Page_alloc.wf a)

let test_alloc_2m_on_demand () =
  let _, a = mk_alloc ~frames:1024 () in
  match Page_alloc.alloc_2m a ~purpose:Page_alloc.User with
  | None -> Alcotest.fail "2m alloc failed"
  | Some addr ->
    checkb "aligned" true (addr mod Phys_mem.page_size_2m = 0);
    checkb "mapped" true (Page_alloc.state_of a ~addr = Some (Page_state.Mapped 1));
    Alcotest.(check (option Alcotest.bool)) "size is 2m" (Some true)
      (Option.map (Page_state.equal_size Page_state.S2m) (Page_alloc.size_of a ~addr));
    checki "closure covers 512 frames" 512 (Iset.cardinal (Page_alloc.frames_of_block a ~addr));
    expect_wf "alloc" (Page_alloc.wf a)

let test_split_2m_for_4k () =
  let _, a = mk_alloc ~frames:1024 () in
  (* merge everything into 2m blocks, then a 4k alloc must split one *)
  while Page_alloc.try_merge_2m a do () done;
  checki "all merged" 0 (Page_alloc.free_count_4k a);
  (match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
   | None -> Alcotest.fail "4k alloc after merge failed"
   | Some _ -> ());
  checki "split released 511 free 4k" 511 (Page_alloc.free_count_4k a);
  expect_wf "alloc" (Page_alloc.wf a)

let test_merge_respects_alignment_holes () =
  let _, a = mk_alloc ~frames:1024 () in
  (* Punch a hole in the first aligned group: merging must still find the
     second group if the machine had one; with 1024 frames and frame 0
     allocated, no full aligned group remains after the second group also
     gets a hole. *)
  let first = Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel in
  checkb "hole allocated" true (first <> None);
  (* frames 512..1023 form a complete aligned group *)
  checkb "merge finds second group" true (Page_alloc.try_merge_2m a);
  checkb "no further group" false (Page_alloc.try_merge_2m a);
  expect_wf "alloc" (Page_alloc.wf a)

let test_merge_split_1g () =
  (* 2 GiB sparse machine: enough for one aligned 1 GiB region *)
  let _, a = mk_alloc ~frames:(512 * 1024) () in
  (match Page_alloc.alloc_1g a ~purpose:Page_alloc.User with
   | None -> Alcotest.fail "1g alloc failed"
   | Some addr ->
     checkb "1g aligned" true (addr mod Phys_mem.page_size_1g = 0);
     Alcotest.(check (option Alcotest.bool)) "size is 1g" (Some true)
       (Option.map (Page_state.equal_size Page_state.S1g) (Page_alloc.size_of a ~addr));
     expect_wf "after 1g alloc" (Page_alloc.wf a);
     checkb "freed" true (Page_alloc.dec_ref a ~addr = `Freed);
     expect_wf "after 1g free" (Page_alloc.wf a));
  (* drain the 4k side so a later 4k allocation must split the free 1G
     block down through 2M — the path that re-points body frames *)
  let rec drain_4k () =
    if Page_alloc.free_count_4k a > 0 then begin
      ignore (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel);
      drain_4k ()
    end
  in
  drain_4k ();
  (match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
   | Some _ -> ()
   | None -> Alcotest.fail "split from 1g failed");
  expect_wf "after split" (Page_alloc.wf a)

let test_reserved_frames_unmanaged () =
  let _, a = mk_alloc ~frames:64 ~reserved:8 () in
  checki "managed" 56 (Page_alloc.managed_frames a);
  checkb "reserved unmanaged" true (Page_alloc.state_of a ~addr:0 = None);
  (* allocations never return reserved frames *)
  let rec drain () =
    match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
    | Some addr ->
      checkb "above reservation" true (addr >= 8 * Phys_mem.page_size);
      drain ()
    | None -> ()
  in
  drain ()

let test_spec_views_partition () =
  let _, a = mk_alloc ~frames:1024 () in
  ignore (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel);
  ignore (Page_alloc.alloc_4k a ~purpose:Page_alloc.User);
  ignore (Page_alloc.alloc_2m a ~purpose:Page_alloc.User);
  let sets =
    [
      Page_alloc.free_pages_4k a;
      Page_alloc.free_pages_2m a;
      Page_alloc.free_pages_1g a;
      Page_alloc.allocated_pages a;
      Page_alloc.mapped_pages a;
      Page_alloc.merged_pages a;
    ]
  in
  checkb "six sets partition the managed frames" true (Iset.pairwise_disjoint sets);
  checki "cover all frames" 1024 (Iset.cardinal (Iset.union_list sets));
  expect_wf "alloc" (Page_alloc.wf a)

let prop_alloc_random_traffic =
  QCheck.Test.make ~name:"allocator wf under random alloc/free traffic" ~count:60
    QCheck.(list (int_bound 9))
    (fun ops ->
      let _, a = mk_alloc ~frames:2048 () in
      let kernel_pages = ref [] in
      let user_pages = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 | 1 | 2 ->
            (match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
             | Some p -> kernel_pages := p :: !kernel_pages
             | None -> ())
          | 3 | 4 ->
            (match Page_alloc.alloc_4k a ~purpose:Page_alloc.User with
             | Some p -> user_pages := p :: !user_pages
             | None -> ())
          | 5 ->
            (match Page_alloc.alloc_2m a ~purpose:Page_alloc.User with
             | Some p -> user_pages := p :: !user_pages
             | None -> ())
          | 6 | 7 ->
            (match !kernel_pages with
             | p :: rest ->
               Page_alloc.free_kernel_page a ~addr:p;
               kernel_pages := rest
             | [] -> ())
          | 8 ->
            (match !user_pages with
             | p :: rest ->
               ignore (Page_alloc.dec_ref a ~addr:p);
               user_pages := rest
             | [] -> ())
          | _ ->
            (match !user_pages with
             | p :: _ ->
               Page_alloc.inc_ref a ~addr:p;
               ignore (Page_alloc.dec_ref a ~addr:p)
             | [] -> ()))
        ops;
      Page_alloc.wf a = Ok ())

let prop_leak_free_roundtrip =
  QCheck.Test.make ~name:"alloc/free returns allocator to initial abstract state"
    ~count:60
    QCheck.(int_bound 30)
    (fun n ->
      let _, a = mk_alloc ~frames:256 () in
      let free0 = Page_alloc.free_pages_4k a in
      let pages =
        List.filter_map
          (fun _ -> Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel)
          (List.init n Fun.id)
      in
      List.iter (fun addr -> Page_alloc.free_kernel_page a ~addr) pages;
      Iset.equal free0 (Page_alloc.free_pages_4k a))

(* One planted fault per [Page_alloc.wf] message.  The machine has 1024
   frames, the first 16 reserved: frame 16 is a kernel page, 17 a user
   page, 512 the head of a user 2 MiB block whose bodies 513..1023 are
   merged into it, and 18..511 are on the 4 KiB free list. *)
let alloc_plants =
  let module B = Page_alloc.Backdoor in
  let free4k a = B.free_list a Page_state.S4k in
  [
    ( "allocated frame on a list",
      (fun a -> Dll.push_back (free4k a) 16),
      "frame 16 on free4k list but state allocated" );
    ( "free frame of another size on a list",
      (fun a -> B.set_frame a ~frame:18 Page_state.Free Page_state.S2m),
      "frame 18 on free4k list but size 2M" );
    ( "misaligned block on a list",
      (fun a ->
        Dll.remove (free4k a) 19;
        B.set_frame a ~frame:19 Page_state.Free Page_state.S2m;
        Dll.push_back (B.free_list a Page_state.S2m) 19),
      "frame 19 on free2m list misaligned" );
    ( "reserved frame on a list",
      (* boot memory at the front of the 4 KiB list: the next allocation
         would hand it out *)
      (fun a -> Dll.push_front (free4k a) 3),
      "frame 3 on free4k list but not a managed frame" );
    ( "misaligned live head",
      (fun a -> B.set_frame a ~frame:16 Page_state.Allocated Page_state.S2m),
      "head frame 16 misaligned for size 2M" );
    ( "mapped frame without references",
      (fun a -> B.set_frame a ~frame:17 (Page_state.Mapped 0) Page_state.S4k),
      "mapped frame 17 has refcount 0" );
    ( "merged into an unmanaged head",
      (fun a -> B.set_frame a ~frame:16 (Page_state.Merged 3) Page_state.S4k),
      "merged frame 16 has unmanaged head 3" );
    ( "merged into a merged frame",
      (fun a -> B.set_frame a ~frame:600 (Page_state.Merged 513) Page_state.S4k),
      "merged frame 600 points at merged head 513" );
    ( "merged outside its head's block",
      (fun a -> B.set_frame a ~frame:16 (Page_state.Merged 17) Page_state.S4k),
      "merged frame 16 outside block of head 17 (4K)" );
    ( "free frame off its list",
      (fun a -> Dll.remove (free4k a) 300),
      "free frame 300 (4K) not on its free list" );
    ( "wild link on a list",
      (fun a -> Dll.Backdoor.set_next (free4k a) 18 4096),
      "free4k: link to 4096 outside [0, 1024)" );
    ( "live frame inside a superpage",
      (fun a -> B.set_frame a ~frame:700 Page_state.Allocated Page_state.S4k),
      "body frame 700 of head 512 is allocated" );
  ]

let test_alloc_plant (plant, expected) () =
  let _, a = mk_alloc ~frames:1024 ~reserved:16 () in
  let kernel = Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel in
  let user = Page_alloc.alloc_4k a ~purpose:Page_alloc.User in
  let big = Page_alloc.alloc_2m a ~purpose:Page_alloc.User in
  Alcotest.(check (list (option int))) "layout"
    [ Some (16 * 4096); Some (17 * 4096); Some (512 * 4096) ]
    [ kernel; user; big ];
  expect_wf "before the plant" (Page_alloc.wf a);
  plant a;
  Alcotest.(check (result unit string)) "wf names the fault" (Error expected) (Page_alloc.wf a)

(* ------------------------------------------------------------------ *)
(* The per-range list check against the full one                       *)

(* From a clean list of up to 10 of the ids 0..11, a few seeded writes
   of every kind (pushes, pops, removes and the three backdoor setters,
   links pointing anywhere in -1..12): [wf_since] passes only where
   [wf] does.  A write that raises (a wild link dereferenced) ends the
   sequence. *)
let prop_wf_since_sound =
  QCheck.Test.make ~name:"wf_since passes only where wf does" ~count:3000
    QCheck.(pair small_nat (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| n; seed |] in
      let l = Dll.create ~capacity:12 ~name:"l" in
      for _ = 1 to Random.State.int rng 11 do
        let id = Random.State.int rng 12 in
        if not (Dll.mem l id) then
          if Random.State.bool rng then Dll.push_back l id else Dll.push_front l id
      done;
      Dll.start_log l;
      let v = Dll.version l in
      let id () = Random.State.int rng 12 and link () = Random.State.int rng 14 - 1 in
      let write () =
        match Random.State.int rng 8 with
        | 0 -> let x = id () in if not (Dll.mem l x) then Dll.push_back l x
        | 1 -> let x = id () in if not (Dll.mem l x) then Dll.push_front l x
        | 2 -> let x = id () in if Dll.mem l x then Dll.remove l x
        | 3 -> ignore (Dll.pop_front l)
        | 4 ->
          let x = id () in
          Dll.Backdoor.set_next l x (link ())
        | 5 ->
          let x = id () in
          Dll.Backdoor.set_prev l x (link ())
        | 6 ->
          let x = id () in
          Dll.Backdoor.set_member l x (Random.State.bool rng)
        | _ -> ignore (Dll.pop_back l)
      in
      (try
         for _ = 1 to 1 + Random.State.int rng 6 do
           write ()
         done
       with Invalid_argument _ -> ());
      (not (Dll.wf_since l v (fun _ -> true))) || Dll.wf l = Ok ())

(* ------------------------------------------------------------------ *)
(* Frame_set against an Iset oracle                                    *)

let dense ~lo ~hi frames =
  let b = Frame_set.draft ~lo ~hi in
  List.iter (fun f -> Frame_set.set_range b ~lo:f ~hi:(f + 1)) frames;
  Frame_set.freeze b

let addrs frames = Iset.of_list (List.map (fun f -> f * Frame_set.page_size) frames)

(* frames [f, f + n) for each (f, n), clipped at [hi]; runs overlap *)
let dense_runs ~lo ~hi runs =
  let b = Frame_set.draft ~lo ~hi in
  List.iter (fun (f, n) -> Frame_set.set_range b ~lo:f ~hi:(min hi (f + n))) runs;
  Frame_set.freeze b

let run_frames ~hi runs =
  List.concat_map (fun (f, n) -> List.init (min hi (f + n) - f) (( + ) f)) runs

let prop_frame_set_oracle =
  (* frames in [64, 192), each set built over two ranges that both
     cover them but start at different frames *)
  QCheck.Test.make ~name:"frame set agrees with an Iset oracle" ~count:200
    QCheck.(quad (int_bound 64) (int_bound 64) (list (int_bound 127)) (list (int_bound 127)))
    (fun (d1, d2, xs, ys) ->
      let xs = List.map (( + ) 64) xs and ys = List.map (( + ) 64) ys in
      let a = dense ~lo:(64 - d1) ~hi:(192 + d2) xs in
      let a' = dense ~lo:(64 - d2) ~hi:(192 + d1) xs in
      let b = dense ~lo:(64 - d2) ~hi:(192 + d1) ys in
      let ox = addrs xs and oy = addrs ys in
      (* runs of up to 40 frames from [xs], lengths from [ys] *)
      let runs =
        List.mapi (fun i x -> (x, match List.nth_opt ys i with Some y -> y mod 41 | None -> 1)) xs
      in
      let r = dense_runs ~lo:(64 - d1) ~hi:(192 + d2) runs
      and o_runs = addrs (run_frames ~hi:(192 + d2) runs) in
      let page = Frame_set.page_size in
      let mem_agrees f =
        Frame_set.mem a (f * page) = Iset.mem (f * page) ox
        && (not (Frame_set.mem a ((f * page) + 1)))
        && not (Frame_set.mem a ((f * page) + 8))
      in
      Frame_set.cardinal a = Iset.cardinal ox
      && Iset.equal (Frame_set.to_iset a) ox
      && Frame_set.cardinal r = Iset.cardinal o_runs
      && Iset.equal (Frame_set.to_iset r) o_runs
      && List.for_all mem_agrees (List.init 260 (fun i -> i - 2))
      && (not (Frame_set.mem a (-page)))
      && (not (Frame_set.mem a (max_int land lnot (page - 1))))
      && Frame_set.equal a a'
      && Frame_set.equal a' a
      && Frame_set.equal a b = Iset.equal ox oy
      && Frame_set.equal b a = Iset.equal ox oy
      && Frame_set.equal (dense ~lo:(64 - d1) ~hi:(192 + d2) ys) a = Iset.equal ox oy
      && Frame_set.equal (dense ~lo:0 ~hi:0 []) (dense ~lo:d1 ~hi:(d1 + d2) [])
      (* turning over the frames in one set and not the other *)
      && Frame_set.flip a [] == a
      && (let moved = Iset.union (Iset.diff ox oy) (Iset.diff oy ox) in
          let f = Frame_set.flip a (List.map (fun addr -> addr / page) (Iset.elements moved)) in
          Frame_set.equal f b && Frame_set.cardinal f = Iset.cardinal oy
          && Iset.equal (Frame_set.to_iset f) oy)
      (* the sorted-list builders, from scratch and over a kept set *)
      && Iset.equal (Iset.of_sorted_over ox (Iset.elements oy)) oy
      && Iset.equal (Iset.of_sorted_over o_runs (Iset.elements ox)) ox
      && Iset.of_sorted_over ox (Iset.elements ox) == ox)

(* ------------------------------------------------------------------ *)
(* Dense views on an allocator that can hold 1 GiB                     *)

let views_equal (a : Page_alloc.views) (b : Page_alloc.views) =
  Frame_set.equal a.free_4k b.free_4k
  && Frame_set.equal a.free_2m b.free_2m
  && Frame_set.equal a.free_1g b.free_1g
  && Frame_set.equal a.merged b.merged
  && Iset.equal a.allocated b.allocated
  && Iset.equal a.mapped b.mapped

(* The six state sets, frame by frame from [state_of] and [size_of]. *)
let frame_oracle a =
  let sets = Array.make 6 Iset.empty in
  let add k addr = sets.(k) <- Iset.add addr sets.(k) in
  for i = 0 to Phys_mem.page_count (Page_alloc.mem a) - 1 do
    let addr = i * Phys_mem.page_size in
    match Page_alloc.state_of a ~addr with
    | None -> ()
    | Some Page_state.Free ->
      (match Page_alloc.size_of a ~addr with
       | Some Page_state.S4k -> add 0 addr
       | Some Page_state.S2m -> add 1 addr
       | Some Page_state.S1g -> add 2 addr
       | None -> Alcotest.failf "free frame %d has no size" i)
    | Some Page_state.Allocated -> add 3 addr
    | Some (Page_state.Mapped _) -> add 4 addr
    | Some (Page_state.Merged _) -> add 5 addr
  done;
  Array.to_list sets

let prop_views_match_frames =
  (* random 4K/2M/1G traffic, frees and merges on 2^18 frames (one
     aligned gigabyte): after every step each page-state change has
     emitted an allocator event; a transaction that claims blocks
     (merging and splitting on the way), releases them and fails leaves
     the views exactly as it found them; at the end the dense views and
     the six accessors equal the sets built frame by frame from
     [state_of]/[size_of], which partition the managed frames *)
  QCheck.Test.make ~name:"dense views match per-frame states" ~count:6
    QCheck.(list_of_size Gen.(int_range 1 30) (int_bound 10))
    (fun ops ->
      let mem = Phys_mem.create ~page_count:(512 * 512) in
      let a = Page_alloc.create mem ~reserved_frames:0 in
      let kernel = ref [] and user = ref [] in
      let pop l f = match !l with p :: rest -> l := rest; f p | [] -> () in
      let keep l = function Some p -> l := p :: !l | None -> () in
      let silent_change = ref false and undo_failed = ref false in
      List.iter
        (fun op ->
          let before = Page_alloc.views a and events = Mutation.count "pmem/alloc" in
          (match op with
           | 0 | 1 -> keep kernel (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel)
           | 2 -> keep user (Page_alloc.alloc_4k a ~purpose:Page_alloc.User)
           | 3 -> keep user (Page_alloc.alloc_2m a ~purpose:Page_alloc.User)
           | 4 -> keep user (Page_alloc.alloc_1g a ~purpose:Page_alloc.User)
           | 5 -> pop kernel (fun addr -> Page_alloc.free_kernel_page a ~addr)
           | 6 -> pop user (fun addr -> ignore (Page_alloc.dec_ref a ~addr))
           | 7 -> ignore (Page_alloc.try_merge_2m a)
           | 8 -> ignore (Page_alloc.try_merge_1g a)
           | 9 -> pop user (fun addr -> Page_alloc.inc_ref a ~addr; user := addr :: addr :: !user)
           | _ ->
             let r =
               Page_alloc.atomically a (fun () ->
                   let got =
                     List.filter_map Fun.id
                       [ Page_alloc.alloc_2m a ~purpose:Page_alloc.User;
                         Page_alloc.alloc_4k a ~purpose:Page_alloc.User;
                         Page_alloc.alloc_1g a ~purpose:Page_alloc.User ]
                   in
                   List.iter (fun addr -> ignore (Page_alloc.dec_ref a ~addr)) got;
                   Error ())
             in
             ignore (r : (unit, unit) result);
             if not (views_equal before (Page_alloc.views a)) then undo_failed := true);
          if
            (not (views_equal before (Page_alloc.views a)))
            && Mutation.count "pmem/alloc" = events
          then silent_change := true)
        ops;
      let v = Page_alloc.views a in
      let dense_sets =
        [ Frame_set.to_iset v.free_4k; Frame_set.to_iset v.free_2m; Frame_set.to_iset v.free_1g;
          v.allocated; v.mapped; Frame_set.to_iset v.merged ]
      in
      let accessors =
        [ Page_alloc.free_pages_4k a; Page_alloc.free_pages_2m a; Page_alloc.free_pages_1g a;
          Page_alloc.allocated_pages a; Page_alloc.mapped_pages a; Page_alloc.merged_pages a ]
      in
      let oracle = frame_oracle a in
      (not !silent_change) && (not !undo_failed)
      && List.for_all2 Iset.equal dense_sets oracle
      && List.for_all2 Iset.equal accessors oracle
      && Iset.pairwise_disjoint oracle
      && Iset.cardinal (Iset.union_list oracle) = Page_alloc.managed_frames a
      && Page_alloc.wf a = Ok ())

(* From a clean allocator after seeded traffic, more traffic and then
   a few seeded backdoor writes: frame states, list memberships and
   links.  The keyed [wf] and [views], which run per range from the
   clean run when the logs allow, equal the full ones.  Nothing is
   claimed after a plant, so the sanitizer's shadow of the allocator
   never sees a corrupted list hand out a frame. *)
let prop_keyed_alloc_matches_full =
  QCheck.Test.make ~name:"keyed allocator check matches full" ~count:1000
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let sizes = Page_state.[| S4k; S2m; S1g |] in
      let mem = Phys_mem.create ~page_count:2048 in
      let a = Page_alloc.create mem ~reserved_frames:(8 * Random.State.int rng 3) in
      let first = 2048 - Page_alloc.managed_frames a in
      let live = ref [] in
      let purpose () = if Random.State.bool rng then Page_alloc.User else Page_alloc.Kernel in
      let claim r = Option.iter (fun x -> live := x :: !live) r in
      let free () =
        match !live with
        | x :: rest ->
          live := rest;
          if Page_alloc.ref_count a ~addr:x = None then Page_alloc.free_kernel_page a ~addr:x
          else ignore (Page_alloc.dec_ref a ~addr:x)
        | [] -> ()
      in
      let traffic n =
        for _ = 1 to Random.State.int rng n do
          match Random.State.int rng 5 with
          | 0 | 1 -> claim (Page_alloc.alloc_4k a ~purpose:(purpose ()))
          | 2 -> claim (Page_alloc.alloc_2m a ~purpose:(purpose ()))
          | 3 -> ignore (Page_alloc.try_merge_2m a)
          | _ -> free ()
        done
      in
      traffic 40;
      expect_wf "after the traffic" (Page_alloc.wf a);
      ignore (Page_alloc.views a);
      traffic 8;
      let frame () = first + Random.State.int rng (2048 - first) and any () = Random.State.int rng 2048 in
      let list () = Page_alloc.Backdoor.free_list a sizes.(Random.State.int rng 3) in
      for _ = 0 to Random.State.int rng 4 do
        try
          match Random.State.int rng 5 with
          | 0 | 1 ->
            let f = frame () in
            let state =
              match Random.State.int rng 4 with
              | 0 -> Page_state.Free
              | 1 -> Page_state.Allocated
              | 2 -> Page_state.Mapped (Random.State.int rng 3)
              | _ -> Page_state.Merged (if Random.State.bool rng then f land lnot 511 else any ())
            in
            Page_alloc.Backdoor.set_frame a ~frame:f state sizes.(Random.State.int rng 3)
          | 2 ->
            let l = list () and x = any () in
            if Dll.mem l x then Dll.remove l x else Dll.push_back l x
          | 3 ->
            let l = list () in
            let x = any () in
            Dll.Backdoor.set_member l x (Random.State.bool rng)
          | _ ->
            let l = list () in
            let x = any () in
            Dll.Backdoor.set_next l x (Random.State.int rng 2050 - 1)
        with Invalid_argument _ -> ()
      done;
      let keyed = Page_alloc.wf a and views = Page_alloc.views a in
      let full, full_views = Page_alloc.Backdoor.cache_free (fun () -> (Page_alloc.wf a, Page_alloc.views a)) in
      keyed = full && views_equal views full_views)

let () =
  Atmo_san.Runtime.arm_of_env ();
  Alcotest.run ~and_exit:false "pmem"
    [
      ( "dll",
        [
          Alcotest.test_case "push/pop" `Quick test_dll_push_pop;
          Alcotest.test_case "O(1) middle removal" `Quick test_dll_o1_remove_middle;
          Alcotest.test_case "misuse raises" `Quick test_dll_misuse_raises;
          Alcotest.test_case "empty" `Quick test_dll_empty;
        ]
        @ List.map
            (fun (name, plant, expected) ->
              Alcotest.test_case ("wf rejects " ^ name) `Quick (test_dll_plant (plant, expected)))
            dll_plants );
      ( "page_alloc",
        [
          Alcotest.test_case "alloc/free 4k" `Quick test_alloc_free_4k;
          Alcotest.test_case "allocations zeroed" `Quick test_alloc_zeroes;
          Alcotest.test_case "oom" `Quick test_alloc_oom;
          Alcotest.test_case "mapped refcount" `Quick test_mapped_refcount;
          Alcotest.test_case "merge to 2m" `Quick test_merge_2m;
          Alcotest.test_case "alloc 2m merges on demand" `Quick test_alloc_2m_on_demand;
          Alcotest.test_case "split 2m for 4k" `Quick test_split_2m_for_4k;
          Alcotest.test_case "merge skips holed groups" `Quick test_merge_respects_alignment_holes;
          Alcotest.test_case "merge/split 1g" `Quick test_merge_split_1g;
          Alcotest.test_case "reserved frames unmanaged" `Quick test_reserved_frames_unmanaged;
          Alcotest.test_case "spec views partition" `Quick test_spec_views_partition;
        ]
        @ List.map
            (fun (name, plant, expected) ->
              Alcotest.test_case ("wf rejects " ^ name) `Quick (test_alloc_plant (plant, expected)))
            alloc_plants );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_dll_random_ops; prop_alloc_random_traffic; prop_leak_free_roundtrip;
            prop_frame_set_oracle; prop_views_match_frames; prop_wf_since_sound;
            prop_keyed_alloc_matches_full ] );
    ];
  Atmo_san.Runtime.exit_check ()
