open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
module Mmu = Atmo_hw.Mmu
module Pte = Atmo_hw.Pte_bits
module Page_state = Atmo_pmem.Page_state
module V = Violation

(* Each obligation below is an enumerator: it hands every violation it
   finds to the sink [v], in the order the first-failure forms at the
   end report them. *)

let refinement pt v =
  let abstract = Page_table.address_space pt in
  let concrete = Page_table.walk_concrete pt in
  (* Direction 1: every concrete leaf is in the abstract map with an
     equal value. *)
  let clean = ref true in
  List.iter
    (fun (va, (e : Page_table.entry)) ->
      match Imap.find_opt va abstract with
      | None ->
        clean := false;
        V.report v V.Ill_formed e.frame "refinement: MMU maps 0x%x but abstract map does not" va
      | Some a ->
        if not (Page_table.equal_entry a e) then begin
          clean := false;
          V.report v V.Ill_formed e.frame "refinement: 0x%x maps to %a (MMU) vs %a (abstract)"
            va Page_table.pp_entry e Page_table.pp_entry a
        end)
    concrete;
  (* Direction 2: equal domains, so nothing abstract is missing from the
     hardware view.  The walk never yields a virtual base twice, so after
     a clean direction 1 equal sizes mean equal domains. *)
  if not (!clean && List.length concrete = Imap.cardinal abstract) then begin
    let cdom = List.fold_left (fun s (va, _) -> Iset.add va s) Iset.empty concrete in
    Imap.iter
      (fun va (a : Page_table.entry) ->
        if not (Iset.mem va cdom) then
          V.report v V.Ill_formed a.frame "refinement: abstract maps 0x%x but MMU faults" va)
      abstract
  end

let structure pt v =
  let mem = Page_table.mem pt in
  let registry = Page_table.tables pt in
  let level_of ~addr = Page_table.table_level pt ~addr in
  let root = Page_table.cr3 pt in
  match level_of ~addr:root with
  | Some l when l <> 4 -> V.report v V.Pt_bad_level root "structure: root registered at level %d" l
  | None -> V.report v V.Pt_bad_level root "structure: root not registered"
  | Some _ ->
    (* Count inbound references to each table page while validating
       every present entry of every registered table, in registry then
       index order.  Reserved bits are the last clause: entries carrying
       them are kept aside and reported after the reference counts. *)
    let inbound = Hashtbl.create 64 in
    let reserved = ref [] in
    List.iter
      (fun (table, level) ->
        Phys_mem.iter_table mem ~addr:table (fun i e ->
            if Pte.is_present e then begin
              let frame = Pte.addr_of e in
              if Pte.is_huge e then begin
                if level = 3 || level = 2 then begin
                  let size = if level = 3 then Phys_mem.page_size_1g else Phys_mem.page_size_2m in
                  if frame mod size <> 0 then
                    V.report v V.Pt_misaligned_superpage frame
                      "structure: huge leaf at L%d[%d] misaligned frame 0x%x" level i frame
                end
                else V.report v V.Malformed_pte frame "structure: huge bit at level %d" level
              end
              else if level > 1 then begin
                (* L1 present entries are 4K leaves *)
                match level_of ~addr:frame with
                | Some cl when cl = level - 1 ->
                  Hashtbl.replace inbound frame
                    (1 + Option.value ~default:0 (Hashtbl.find_opt inbound frame))
                | Some cl ->
                  V.report v V.Pt_bad_level frame
                    "structure: L%d[%d] points to table 0x%x of level %d" level i frame cl
                | None ->
                  V.report v V.Pt_bad_level frame
                    "structure: L%d[%d] points to unregistered page 0x%x" level i frame
              end;
              if Pte.has_reserved e then reserved := (table, level, i, e) :: !reserved
            end))
      registry;
    (* Exactly-one-parent: rules out sharing and cycles in one flat pass. *)
    List.iter
      (fun (table, _) ->
        let refs = Option.value ~default:0 (Hashtbl.find_opt inbound table) in
        if table = root then begin
          if refs <> 0 then V.report v V.Pt_bad_level table "structure: root has %d inbound refs" refs
        end
        else if refs <> 1 then
          V.report v V.Pt_bad_level table "structure: table 0x%x has %d inbound refs" table refs)
      registry;
    List.iter
      (fun (table, level, i, e) ->
        V.report v V.Malformed_pte (Pte.addr_of e)
          "structure: reserved bits set in L%d[%d] of table 0x%x (0x%Lx)" level i table e)
      (List.rev !reserved)

let ghost_wf pt v =
  (* One pass in base order: each entry's base and frame are canonical
     and aligned to the entry's own size, and adjacent ranges do not
     overlap, so the ranges of all mappings are pairwise disjoint. *)
  let rec adjacent b1 e1 ranges =
    match ranges () with
    | Seq.Nil -> ()
    | Seq.Cons ((va, (e : Page_table.entry)), rest) ->
      let bytes = Page_state.bytes_per e.size in
      if not (Mmu.canonical va) then
        V.report v V.Ill_formed e.frame "ghost_wf: %a mapping at non-canonical 0x%x"
          Page_state.pp_size e.size va
      else if va land (bytes - 1) <> 0 then
        V.report v V.Ill_formed e.frame "ghost_wf: %a mapping base 0x%x misaligned"
          Page_state.pp_size e.size va
      else if e.frame land (bytes - 1) <> 0 then
        V.report v V.Ill_formed e.frame "ghost_wf: %a mapping frame 0x%x misaligned"
          Page_state.pp_size e.size e.frame;
      if e1 > va then
        V.report v V.Ill_formed e.frame "ghost_wf: ranges [0x%x..) and [0x%x..) overlap" b1 va;
      adjacent va (va + bytes) rest
  in
  adjacent min_int min_int (Imap.to_seq (Page_table.address_space pt));
  (* The maintained closure must equal the table registry it caches. *)
  let registry =
    List.fold_left (fun s (addr, _) -> Iset.add addr s) Iset.empty (Page_table.tables pt)
  in
  if not (Iset.equal (Page_table.page_closure pt) registry) then
    V.report v V.Ill_formed (-1) "ghost_wf: cached page closure diverged from the table registry"

let closure_disjoint pt v =
  let closure = Page_table.page_closure pt in
  let mapped = Page_table.mapped_frames pt in
  if not (Iset.disjoint closure mapped) then
    Iset.iter
      (fun f -> V.report v V.Ill_formed f "closure: table page 0x%x is also mapped" f)
      (Iset.inter closure mapped)

(* A table whose whole input equals that of its last clean check is
   clean again, and only clean verdicts are kept.  The input is taken
   before the check, so a store during it leaves a key that misses. *)
let violations pt v =
  if not (Page_table.unchanged_since_clean_check pt) then begin
    let input = Page_table.check_input pt in
    let clean = ref true in
    let v rule page msg =
      clean := false;
      v rule page msg
    in
    refinement pt v;
    structure pt v;
    ghost_wf pt v;
    closure_disjoint pt v;
    if !clean then Page_table.record_clean_check pt input
  end

(* The first-failure form of each obligation: cache-free, so the
   flat-vs-recursive comparison times checkers. *)
let refinement = V.first refinement
let structure = V.first structure
let ghost_wf = V.first ghost_wf
let closure_disjoint = V.first closure_disjoint
let all = V.first violations

let obligations =
  [
    ("pt/refinement", refinement);
    ("pt/structure", structure);
    ("pt/ghost_wf", ghost_wf);
    ("pt/closure_disjoint", closure_disjoint);
  ]
