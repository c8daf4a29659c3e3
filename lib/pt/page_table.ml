open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
module Mmu = Atmo_hw.Mmu
module Tlb = Atmo_hw.Tlb
module Pte = Atmo_hw.Pte_bits
module Page_state = Atmo_pmem.Page_state
module Page_alloc = Atmo_pmem.Page_alloc

type entry = {
  frame : int;
  size : Page_state.size;
  perm : Pte.perm;
}

let equal_entry a b =
  a.frame = b.frame
  && Page_state.equal_size a.size b.size
  && Pte.equal_perm a.perm b.perm

let pp_entry ppf e =
  Format.fprintf ppf "0x%x/%a:%a" e.frame Page_state.pp_size e.size Pte.pp_perm e.perm

type error =
  | Already_mapped
  | Not_mapped
  | Misaligned
  | Non_canonical
  | Conflict
  | Oom
  | Walk_fault

let pp_error ppf e =
  Format.pp_print_string ppf
    (match e with
     | Already_mapped -> "already mapped"
     | Not_mapped -> "not mapped"
     | Misaligned -> "misaligned"
     | Non_canonical -> "non-canonical address"
     | Conflict -> "size conflict"
     | Oom -> "out of memory"
     | Walk_fault -> "table past the end of memory")

(* The input of a table's last clean check: the address space and the
   page closure (compared by identity), the registry's pairs in
   [tables] order, and the write version of each registered page. *)
type check_input = {
  in_space : entry Imap.t;
  in_closure : Iset.t;
  in_tables : (int * int) array;
  in_versions : int array;
}

type t = {
  mem : Phys_mem.t;
  alloc : Page_alloc.t;
  cr3 : int;
  table_levels : (int, int) Hashtbl.t;  (* table page addr -> level *)
  (* The keys of [table_levels] as a persistent set, maintained where
     table pages are registered and freed so [page_closure] is O(1). *)
  mutable closure : Iset.t;
  (* The ghost address space: virtual base -> mapping, each entry
     carrying its own size. *)
  mutable space : entry Imap.t;
  mutable step_hook : (leaf:bool -> unit) option;
  (* Published with one field write, so checks racing on other domains
     read either key whole. *)
  mutable clean_check : check_input option;
}

(* Structural changes on the mutation stream, for the incremental
   verifier's dirty tracker: unlike the per-instance [step_hook] (which
   counts concrete PTE stores for cost models), this fires once per
   successful structural change to ANY page table — map/unmap/
   update_perm/create/destroy/prune — after bumping the always-on
   [map_id] counter the stale-proof lint audits against. *)
type Mutation.event += Pt_changed

let map_id = "pt"
let muts = Mutation.counter Mutation.Pt map_id

let note () = if Mutation.tick muts then Mutation.emit Mutation.Pt Pt_changed

let cr3 t = t.cr3
let mem t = t.mem

let tables t = Hashtbl.fold (fun a l acc -> (a, l) :: acc) t.table_levels []
let table_level t ~addr = Hashtbl.find_opt t.table_levels addr

let set_step_hook t h = t.step_hook <- h

let write_entry t ~table ~index v ~leaf =
  Phys_mem.write_u64 t.mem ~addr:(Mmu.entry_addr ~table ~index) v;
  match t.step_hook with None -> () | Some f -> f ~leaf

let create mem alloc =
  match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.Kernel with
  | None -> Error Oom
  | Some root ->
    (* The root frame may be a recycled cr3 of an address space that was
       dropped without [destroy]; make sure no cached translations tagged
       with this ASID survive into the new space. *)
    Tlb.flush_asid mem ~cr3:root;
    let table_levels = Hashtbl.create 64 in
    Hashtbl.replace table_levels root 4;
    note ();
    Ok
      {
        mem;
        alloc;
        cr3 = root;
        table_levels;
        closure = Iset.singleton root;
        space = Imap.empty;
        step_hook = None;
        clean_check = None;
      }

(* A table past the end of memory on one of the kernel's walks: a walk
   fault, as in [walk_concrete] and [Mmu.walk].  Each walker below
   returns [Error Walk_fault] for it, where the load would raise. *)
exception Past_memory

(* Every entry the kernel's walks read, in a table known to be in
   memory: the root, which is allocated, or one reached by {!descend}. *)
let read_entry t ~table ~index = Phys_mem.read_u64 t.mem ~addr:(Mmu.entry_addr ~table ~index)

(* The table a present non-leaf entry points at, tested once as the
   walk reaches it.  A walk reaches a table past memory only through an
   entry it did not write, so the fault comes before the walk's first
   write: a table allocated on the way down is in memory. *)
let descend t e =
  let table = Pte.addr_of e in
  if not (Phys_mem.contains t.mem table) then raise_notrace Past_memory;
  table

(* Fetch (or allocate on demand) the next-level table under
   [table.(index)].  [Error Conflict] if a huge leaf already occupies the
   slot. *)
let next_table t ~table ~index ~level =
  let e = read_entry t ~table ~index in
  if Pte.is_present e then
    if Pte.is_huge e then Error Conflict else Ok (descend t e)
  else
    match Page_alloc.alloc_4k t.alloc ~purpose:Page_alloc.Kernel with
    | None -> Error Oom
    | Some page ->
      Hashtbl.replace t.table_levels page (level - 1);
      t.closure <- Iset.add page t.closure;
      write_entry t ~table ~index (Pte.make_table ~addr:page) ~leaf:false;
      Ok page

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let aligned vaddr frame size =
  let mask = Page_state.bytes_per size - 1 in
  vaddr land mask = 0 && frame land mask = 0

let check_addr vaddr frame size =
  if not (Mmu.canonical vaddr) then Error Non_canonical
  else if not (aligned vaddr frame size) then Error Misaligned
  else Ok ()

(* The level whose entries are leaves of [size], and a virtual
   address's index into a table of [level]. *)
let leaf_level (size : Page_state.size) = match size with S4k -> 1 | S2m -> 2 | S1g -> 3

let level_index ~level va =
  match level with
  | 4 -> Mmu.l4_index va
  | 3 -> Mmu.l3_index va
  | 2 -> Mmu.l2_index va
  | _ -> Mmu.l1_index va

(* A leaf slot must be empty.  Above L1, a present non-huge entry there
   means finer-grained mappings exist underneath. *)
let leaf_slot_free t ~table ~index ~level =
  let e = read_entry t ~table ~index in
  if not (Pte.is_present e) then Ok ()
  else if level = 1 || Pte.is_huge e then Error Already_mapped
  else Error Conflict

let install t ~size ~vaddr ~frame ~perm =
  let* () = check_addr vaddr frame size in
  let leaf = leaf_level size in
  (* the table of [level] translating [vaddr], allocated on demand *)
  let rec table_at level table =
    if level = leaf then Ok table
    else
      let* next = next_table t ~table ~index:(level_index ~level vaddr) ~level in
      table_at (level - 1) next
  in
  let* table = table_at 4 t.cr3 in
  let index = level_index ~level:leaf vaddr in
  let* () = leaf_slot_free t ~table ~index ~level:leaf in
  write_entry t ~table ~index (Pte.make ~addr:frame ~perm ~huge:(leaf > 1)) ~leaf:true;
  (* Defensive: the slot was non-present, but a negative result must
     never linger if caching policy ever changes (one invlpg for a
     4 KiB page). *)
  Tlb.shoot_range t.mem ~cr3:t.cr3 ~vaddr ~bytes:(Page_state.bytes_per size);
  t.space <- Imap.add vaddr { frame; size; perm } t.space;
  note ();
  Ok ()

let map t ~size ~vaddr ~frame ~perm =
  match install t ~size ~vaddr ~frame ~perm with
  | r -> r
  | exception Past_memory -> Error Walk_fault

let map_4k t ~vaddr ~frame ~perm = map t ~size:Page_state.S4k ~vaddr ~frame ~perm

(* Locate the leaf slot of the mapping whose virtual base is [vaddr]:
   (table, index, entry record).  The leaf is the first huge entry
   below L4, or the L1 entry, and [vaddr] must be its base. *)
let find_leaf t ~vaddr =
  let rec at level table =
    let index = level_index ~level vaddr in
    let e = read_entry t ~table ~index in
    if not (Pte.is_present e) then Error Not_mapped
    else if level = 1 || (level < 4 && Pte.is_huge e) then begin
      let size : Page_state.size = match level with 1 -> S4k | 2 -> S2m | _ -> S1g in
      if vaddr land (Page_state.bytes_per size - 1) <> 0 then Error Misaligned
      else Ok (table, index, { frame = Pte.addr_of e; size; perm = Pte.perm_of e })
    end
    else at (level - 1) (descend t e)
  in
  if not (Mmu.canonical vaddr) then Error Non_canonical
  else match at 4 t.cr3 with r -> r | exception Past_memory -> Error Walk_fault

let clear_leaf t ~vaddr (table, index, entry) =
  write_entry t ~table ~index Pte.not_present ~leaf:true;
  (* The shootdown point: every page the dying mapping covered must leave
     the TLB before the caller can reuse the frame. *)
  Tlb.shoot_range t.mem ~cr3:t.cr3 ~vaddr ~bytes:(Page_state.bytes_per entry.size);
  t.space <- Imap.remove vaddr t.space;
  note ();
  entry

let unmap t ~vaddr =
  let* leaf = find_leaf t ~vaddr in
  Ok (clear_leaf t ~vaddr leaf)

(* Every leaf is found before the first is cleared, so a walk fault or
   a missing leaf leaves the table as it was. *)
let unmap_all t ~vaddrs f =
  let rec locate acc = function
    | [] -> Ok (List.rev acc)
    | vaddr :: rest ->
      (match find_leaf t ~vaddr with
       | Ok leaf -> locate ((vaddr, leaf) :: acc) rest
       | Error e -> Error e)
  in
  match locate [] vaddrs with
  | Error _ as e -> e
  | Ok leaves ->
    List.iter (fun (vaddr, leaf) -> f (clear_leaf t ~vaddr leaf)) leaves;
    Ok ()

let update_perm t ~vaddr ~perm =
  let* table, index, entry = find_leaf t ~vaddr in
  let huge = entry.size <> Page_state.S4k in
  write_entry t ~table ~index (Pte.make ~addr:entry.frame ~perm ~huge) ~leaf:true;
  (* Permission changes are as dangerous as unmaps: a stale writable
     entry would outlive an mprotect to read-only. *)
  Tlb.shoot_range t.mem ~cr3:t.cr3 ~vaddr ~bytes:(Page_state.bytes_per entry.size);
  t.space <- Imap.add vaddr { entry with perm } t.space;
  note ();
  Ok ()

let resolve t ~vaddr = Mmu.resolve t.mem ~cr3:t.cr3 ~vaddr
let resolve_cold t ~vaddr = Mmu.walk t.mem ~cr3:t.cr3 ~vaddr

let address_space t = t.space

let mapped_frames t = Imap.fold (fun _ e acc -> Iset.add e.frame acc) t.space Iset.empty

(* Ranges in [space] are pairwise disjoint, so of the mappings based
   below [hi] only the one with the greatest base can reach up into
   [vaddr, hi): any other ends at or below that base. *)
let overlaps t ~vaddr ~bytes =
  let hi = vaddr + bytes in
  match Imap.find_last_opt (fun base -> base < hi) t.space with
  | None -> false
  | Some (base, e) -> vaddr < base + Page_state.bytes_per e.size

let page_closure t = t.closure

type ghost = { pt : t; seen_space : entry Imap.t; seen_closure : Iset.t }

let ghost t = { pt = t; seen_space = t.space; seen_closure = t.closure }
let ghost_unchanged g = g.pt.space == g.seen_space && g.pt.closure == g.seen_closure

let destroy t =
  (* Address-space teardown: drop the whole ASID from the TLB registry
     before the table pages go back to the allocator. *)
  Tlb.flush_asid t.mem ~cr3:t.cr3;
  let still_mapped = mapped_frames t in
  Hashtbl.iter (fun addr _ -> Page_alloc.free_kernel_page t.alloc ~addr) t.table_levels;
  Hashtbl.reset t.table_levels;
  t.closure <- Iset.empty;
  t.space <- Imap.empty;
  note ();
  still_mapped

(* One walk per mapping, from the root down to the table level its size
   needs; once a slot is empty (or holds a huge leaf) every table below
   it is missing.  A missing table is named by its level and the virtual
   prefix it translates, so mappings sharing a new table count it once. *)
let missing_tables t ~vaddrs =
  let counted = ref [] in
  let need level va =
    let key = ((va asr (12 + (9 * level))) lsl 2) lor level in
    if not (List.mem key !counted) then counted := key :: !counted
  in
  match
    List.iter
      (fun (va, size) ->
        let lowest = leaf_level size in
        (* the table of [level] translating [va] exists at [table] *)
        let rec walk level table =
          if level > lowest then begin
            let e = read_entry t ~table ~index:(level_index ~level va) in
            if Pte.is_present e && (level = 4 || not (Pte.is_huge e)) then
              walk (level - 1) (descend t e)
            else
              for l = level - 1 downto lowest do
                need l va
              done
          end
        in
        walk 4 t.cr3)
      vaddrs
  with
  | () -> Ok (List.length !counted)
  | exception Past_memory -> Error Walk_fault

let prune_empty_tables t ~keep =
  let read table index =
    Phys_mem.read_u64 t.mem ~addr:(Mmu.entry_addr ~table ~index)
  in
  let table_is_empty table =
    let rec go i = i > 511 || ((not (Pte.is_present (read table i))) && go (i + 1)) in
    go 0
  in
  let freed = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    (* find empty prunable tables *)
    let empties =
      Hashtbl.fold
        (fun addr _level acc ->
          if addr <> t.cr3 && (not (Iset.mem addr keep)) && table_is_empty addr then
            Iset.add addr acc
          else acc)
        t.table_levels Iset.empty
    in
    if not (Iset.is_empty empties) then begin
      progress := true;
      (* clear the parent slots pointing at them *)
      Hashtbl.iter
        (fun table level ->
          if level > 1 then
            for i = 0 to 511 do
              let e = read table i in
              if
                Pte.is_present e
                && (not (Pte.is_huge e))
                && Iset.mem (Pte.addr_of e) empties
              then write_entry t ~table ~index:i Pte.not_present ~leaf:false
            done)
        t.table_levels;
      Iset.iter
        (fun addr ->
          Hashtbl.remove t.table_levels addr;
          t.closure <- Iset.remove addr t.closure;
          Page_alloc.free_kernel_page t.alloc ~addr;
          incr freed)
        empties
    end
  done;
  if !freed > 0 then note ();
  !freed

let check_input t =
  let in_tables = Array.of_list (tables t) in
  {
    in_space = t.space;
    in_closure = t.closure;
    in_tables;
    in_versions = Array.map (fun (addr, _) -> Phys_mem.version t.mem ~addr) in_tables;
  }

let record_clean_check t input = t.clean_check <- Some input

(* Same registry pairs (same count, each present) and every page at its
   recorded version; one ranged read per page, none allocating. *)
let rec tables_unchanged t k i =
  i = Array.length k.in_tables
  ||
  let addr, level = k.in_tables.(i) in
  (match Hashtbl.find t.table_levels addr with
   | l -> l = level
   | exception Not_found -> false)
  && Phys_mem.unchanged t.mem ~addr ~version:k.in_versions.(i)
  && tables_unchanged t k (i + 1)

let unchanged_since_clean_check t =
  match t.clean_check with
  | None -> false
  | Some k ->
    k.in_space == t.space
    && k.in_closure == t.closure
    && Array.length k.in_tables = Hashtbl.length t.table_levels
    && tables_unchanged t k 0

module Backdoor = struct
  let forget_check t = t.clean_check <- None

  type part = Space | Closure | Table_level | Extra_table

  let add_mapping t ~vaddr e = t.space <- Imap.add vaddr e t.space

  (* a mapping no writer made, at a canonical 1 GiB-aligned base *)
  let stray_va = 0x7f00_0000_0000

  let drift t = function
    | Space ->
      add_mapping t ~vaddr:stray_va { frame = 0; size = Page_state.S4k; perm = Pte.perm_ro }
    | Closure -> t.closure <- Iset.add stray_va t.closure
    | Table_level -> Hashtbl.replace t.table_levels t.cr3 3
    | Extra_table -> Hashtbl.replace t.table_levels 0 1
end

(* Walk the concrete tables from cr3, one table-page read per table
   page: every present leaf becomes a [(virtual base, entry)] pair.  A
   table past the end of memory is a walk fault, with no leaf below. *)
let walk_concrete t =
  let acc = ref [] in
  let leaf vbase e size =
    acc := (vbase, { frame = Pte.addr_of e; size; perm = Pte.perm_of e }) :: !acc
  in
  let table addr f =
    if Phys_mem.contains t.mem addr then
      Phys_mem.iter_table t.mem ~addr (fun i e -> if Pte.is_present e then f i e)
  in
  table t.cr3 (fun i4 e4 ->
      table (Pte.addr_of e4) (fun i3 e3 ->
          if Pte.is_huge e3 then leaf (Mmu.va_of_indices ~l4:i4 ~l3:i3 ~l2:0 ~l1:0) e3 Page_state.S1g
          else
            table (Pte.addr_of e3) (fun i2 e2 ->
                if Pte.is_huge e2 then
                  leaf (Mmu.va_of_indices ~l4:i4 ~l3:i3 ~l2:i2 ~l1:0) e2 Page_state.S2m
                else
                  table (Pte.addr_of e2) (fun i1 e1 ->
                      leaf (Mmu.va_of_indices ~l4:i4 ~l3:i3 ~l2:i2 ~l1:i1) e1 Page_state.S4k))));
  !acc
