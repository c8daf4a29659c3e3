open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
module Mmu = Atmo_hw.Mmu
module Pte = Atmo_hw.Pte_bits
module Page_state = Atmo_pmem.Page_state

let err fmt = Format.kasprintf (fun s -> Error s) fmt
let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let entry_of_translation (tr : Mmu.translation) : Page_table.entry =
  let size =
    if tr.size = Phys_mem.page_size then Page_state.S4k
    else if tr.size = Phys_mem.page_size_2m then Page_state.S2m
    else Page_state.S1g
  in
  { frame = tr.frame; size; perm = tr.perm }

let refinement pt =
  let abstract = Page_table.address_space pt in
  let concrete = Page_table.walk_concrete pt in
  (* Direction 1: every concrete leaf is in the abstract map with an
     equal value. *)
  let* () =
    List.fold_left
      (fun acc (va, e) ->
        let* () = acc in
        match Imap.find_opt va abstract with
        | None -> err "refinement: MMU maps 0x%x but abstract map does not" va
        | Some a ->
          if Page_table.equal_entry a e then Ok ()
          else
            err "refinement: 0x%x maps to %a (MMU) vs %a (abstract)" va
              Page_table.pp_entry e Page_table.pp_entry a)
      (Ok ()) concrete
  in
  (* Direction 2: equal domains, so nothing abstract is missing from the
     hardware view.  The walk never yields a virtual base twice, so after
     direction 1 equal sizes mean equal domains. *)
  if List.length concrete = Imap.cardinal abstract then Ok ()
  else
    let cdom = List.fold_left (fun s (va, _) -> Iset.add va s) Iset.empty concrete in
    match Iset.choose_opt (Iset.diff (Imap.dom abstract) cdom) with
    | Some va -> err "refinement: abstract maps 0x%x but MMU faults" va
    | None -> Ok ()

let mmu_probe pt ~vaddrs =
  let abstract = Page_table.address_space pt in
  let lookup va =
    (* Find the mapping (of any size) whose range covers [va]. *)
    let covers base (e : Page_table.entry) =
      va >= base && va < base + Page_state.bytes_per e.size
    in
    Imap.fold
      (fun base e acc -> if covers base e then Some (base, e) else acc)
      abstract None
  in
  List.fold_left
    (fun acc va ->
      let* () = acc in
      (* Probe cold: the checker must see the real tables, not a cached
         translation that a planted bug failed to shoot down. *)
      match (Page_table.resolve_cold pt ~vaddr:va, lookup va) with
      | None, None -> Ok ()
      | Some _, None -> err "probe: MMU resolves 0x%x but abstract map faults" va
      | None, Some _ -> err "probe: abstract map covers 0x%x but MMU faults" va
      | Some tr, Some (base, e) ->
        let got = entry_of_translation tr in
        if Page_table.equal_entry got e && tr.Mmu.paddr = e.frame + (va - base) then
          Ok ()
        else
          err "probe: 0x%x resolves to %a vs abstract %a" va Page_table.pp_entry got
            Page_table.pp_entry e)
    (Ok ()) vaddrs

let structure pt =
  let mem = Page_table.mem pt in
  let registry = Page_table.tables pt in
  let level_of ~addr = Page_table.table_level pt ~addr in
  let* () =
    match level_of ~addr:(Page_table.cr3 pt) with
    | Some 4 -> Ok ()
    | Some l -> err "structure: root registered at level %d" l
    | None -> err "structure: root not registered"
  in
  (* Count inbound references to each table page while validating every
     present entry of every registered table; the first bad entry, in
     registry then index order, is the verdict. *)
  let inbound = Hashtbl.create 64 in
  let bad = ref None in
  let fail fmt = Format.kasprintf (fun s -> bad := Some s) fmt in
  List.iter
    (fun (table, level) ->
      if Option.is_none !bad then
        Phys_mem.iter_table mem ~addr:table (fun i e ->
            if Option.is_none !bad && Pte.is_present e then
              if Pte.is_huge e then begin
                if level = 3 || level = 2 then begin
                  let size = if level = 3 then Phys_mem.page_size_1g else Phys_mem.page_size_2m in
                  if Pte.addr_of e mod size <> 0 then
                    fail "structure: huge leaf at L%d[%d] misaligned frame 0x%x" level i
                      (Pte.addr_of e)
                end
                else fail "structure: huge bit at level %d" level
              end
              else if level > 1 then begin
                (* L1 present entries are 4K leaves *)
                let child = Pte.addr_of e in
                match level_of ~addr:child with
                | Some cl when cl = level - 1 ->
                  Hashtbl.replace inbound child
                    (1 + Option.value ~default:0 (Hashtbl.find_opt inbound child))
                | Some cl ->
                  fail "structure: L%d[%d] points to table 0x%x of level %d" level i child cl
                | None -> fail "structure: L%d[%d] points to unregistered page 0x%x" level i child
              end))
    registry;
  let* () = match !bad with None -> Ok () | Some msg -> Error msg in
  (* Exactly-one-parent: rules out sharing and cycles in one flat pass. *)
  List.fold_left
    (fun acc (table, _) ->
      let* () = acc in
      let refs = Option.value ~default:0 (Hashtbl.find_opt inbound table) in
      if table = Page_table.cr3 pt then
        if refs = 0 then Ok () else err "structure: root has %d inbound refs" refs
      else if refs = 1 then Ok ()
      else err "structure: table 0x%x has %d inbound refs" table refs)
    (Ok ()) registry

let ghost_wf pt =
  let check_map name m size =
    Imap.fold
      (fun va (e : Page_table.entry) acc ->
        let* () = acc in
        if not (Mmu.canonical va) then err "ghost_wf: %s maps non-canonical 0x%x" name va
        else if va land (Page_state.bytes_per size - 1) <> 0 then
          err "ghost_wf: %s base 0x%x misaligned" name va
        else if e.frame land (Page_state.bytes_per size - 1) <> 0 then
          err "ghost_wf: %s frame 0x%x misaligned" name e.frame
        else if not (Page_state.equal_size e.size size) then
          err "ghost_wf: %s entry at 0x%x has size %a" name va Page_state.pp_size e.size
        else Ok ())
      m (Ok ())
  in
  let* () = check_map "mapping_4k" (Page_table.mapping_4k pt) Page_state.S4k in
  let* () = check_map "mapping_2m" (Page_table.mapping_2m pt) Page_state.S2m in
  let* () = check_map "mapping_1g" (Page_table.mapping_1g pt) Page_state.S1g in
  (* The incrementally-maintained unified view must equal the union of
     the per-size ghost maps it caches. *)
  let* () =
    if
      Imap.equal Page_table.equal_entry
        (Page_table.address_space pt)
        (Page_table.address_space_recomputed pt)
    then Ok ()
    else err "ghost_wf: unified address-space cache diverged from the ghost maps"
  in
  (* Pairwise disjointness of virtual ranges across all sizes: in base
     order, adjacent ranges must not overlap. *)
  let rec adjacent b1 e1 ranges =
    match ranges () with
    | Seq.Nil -> Ok ()
    | Seq.Cons ((b2, (e : Page_table.entry)), rest) ->
      if e1 > b2 then err "ghost_wf: ranges [0x%x..) and [0x%x..) overlap" b1 b2
      else adjacent b2 (b2 + Page_state.bytes_per e.size) rest
  in
  let* () = adjacent min_int min_int (Imap.to_seq (Page_table.address_space pt)) in
  (* The maintained closure must equal the table registry it caches. *)
  let registry =
    List.fold_left (fun s (addr, _) -> Iset.add addr s) Iset.empty (Page_table.tables pt)
  in
  if Iset.equal (Page_table.page_closure pt) registry then Ok ()
  else err "ghost_wf: cached page closure diverged from the table registry"

let closure_disjoint pt =
  let closure = Page_table.page_closure pt in
  let mapped = Page_table.mapped_frames pt in
  if Iset.disjoint closure mapped then Ok ()
  else
    match Iset.choose_opt (Iset.inter closure mapped) with
    | Some f -> err "closure: table page 0x%x is also mapped" f
    | None -> Ok ()

let obligations =
  [
    ("pt/refinement", refinement);
    ("pt/structure", structure);
    ("pt/ghost_wf", ghost_wf);
    ("pt/closure_disjoint", closure_disjoint);
  ]

let all pt =
  List.fold_left
    (fun acc (_, check) ->
      let* () = acc in
      check pt)
    (Ok ()) obligations
