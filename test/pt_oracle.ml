(* The per-entry page-table walk and the flat refinement/structure
   checks written over it: one [Phys_mem.read_u64] per table entry.
   Kept as the oracle for [Page_table.walk_concrete] and
   [Pt_refine.refinement]/[Pt_refine.structure], which read a whole
   table page at a time through [Phys_mem.iter_table]: on any table
   state, both must give the same leaves in the same order and the same
   verdict with the same message.

   Also the linear forms of two mmap-path queries: [mmap_overlaps], the
   scan of every live mapping for every requested page that
   [Page_table.overlaps] replaces, and [missing_tables], the
   per-position count that [Page_table.missing_tables] replaces. *)

open Atmo_util
open Atmo_pt
module Phys_mem = Atmo_hw.Phys_mem
module Mmu = Atmo_hw.Mmu
module Pte = Atmo_hw.Pte_bits
module Page_state = Atmo_pmem.Page_state

let err fmt = Format.kasprintf (fun s -> Error s) fmt
let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let read pt table index = Phys_mem.read_u64 (Page_table.mem pt) ~addr:(Mmu.entry_addr ~table ~index)

(* A present non-leaf entry the walk descends through: one whose table
   lies in memory.  Past the end of memory the walk faults, and no leaf
   lies below the entry. *)
let descends pt e = Pte.is_present e && Phys_mem.contains (Page_table.mem pt) (Pte.addr_of e)

let walk_concrete pt =
  let acc = ref [] in
  let emit vbase frame size perm =
    acc := (vbase, { Page_table.frame; size; perm }) :: !acc
  in
  for i4 = 0 to 511 do
    let e4 = read pt (Page_table.cr3 pt) i4 in
    if descends pt e4 then begin
      let l3 = Pte.addr_of e4 in
      for i3 = 0 to 511 do
        let e3 = read pt l3 i3 in
        if Pte.is_present e3 then
          if Pte.is_huge e3 then
            emit
              (Mmu.va_of_indices ~l4:i4 ~l3:i3 ~l2:0 ~l1:0)
              (Pte.addr_of e3) Page_state.S1g (Pte.perm_of e3)
          else if descends pt e3 then begin
            let l2 = Pte.addr_of e3 in
            for i2 = 0 to 511 do
              let e2 = read pt l2 i2 in
              if Pte.is_present e2 then
                if Pte.is_huge e2 then
                  emit
                    (Mmu.va_of_indices ~l4:i4 ~l3:i3 ~l2:i2 ~l1:0)
                    (Pte.addr_of e2) Page_state.S2m (Pte.perm_of e2)
                else if descends pt e2 then begin
                  let l1 = Pte.addr_of e2 in
                  for i1 = 0 to 511 do
                    let e1 = read pt l1 i1 in
                    if Pte.is_present e1 then
                      emit
                        (Mmu.va_of_indices ~l4:i4 ~l3:i3 ~l2:i2 ~l1:i1)
                        (Pte.addr_of e1) Page_state.S4k (Pte.perm_of e1)
                  done
                end
            done
          end
      done
    end
  done;
  !acc

let refinement pt =
  let abstract = Page_table.address_space pt in
  let concrete = walk_concrete pt in
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
  let cdom = List.fold_left (fun s (va, _) -> Iset.add va s) Iset.empty concrete in
  let adom = Imap.dom abstract in
  if Iset.equal cdom adom then Ok ()
  else
    match Iset.choose_opt (Iset.diff adom cdom) with
    | Some va -> err "refinement: abstract maps 0x%x but MMU faults" va
    | None ->
      (match Iset.choose_opt (Iset.diff cdom adom) with
       | Some va -> err "refinement: MMU maps 0x%x not in abstract map" va
       | None -> Ok ())

let structure pt =
  let registry = Page_table.tables pt in
  let level_of ~addr = Page_table.table_level pt ~addr in
  let* () =
    match level_of ~addr:(Page_table.cr3 pt) with
    | Some 4 -> Ok ()
    | Some l -> err "structure: root registered at level %d" l
    | None -> err "structure: root not registered"
  in
  let inbound = Hashtbl.create 64 in
  let* () =
    List.fold_left
      (fun acc (table, level) ->
        let* () = acc in
        let rec entries i acc =
          let* () = acc in
          if i > 511 then Ok ()
          else
            let e = read pt table i in
            let next =
              if not (Pte.is_present e) then Ok ()
              else if Pte.is_huge e then
                if level = 3 || level = 2 then
                  let size =
                    if level = 3 then Phys_mem.page_size_1g else Phys_mem.page_size_2m
                  in
                  if Pte.addr_of e mod size <> 0 then
                    err "structure: huge leaf at L%d[%d] misaligned frame 0x%x" level i
                      (Pte.addr_of e)
                  else Ok ()
                else err "structure: huge bit at level %d" level
              else if level = 1 then Ok ()
              else begin
                let child = Pte.addr_of e in
                match level_of ~addr:child with
                | Some cl when cl = level - 1 ->
                  Hashtbl.replace inbound child
                    (1 + Option.value ~default:0 (Hashtbl.find_opt inbound child));
                  Ok ()
                | Some cl ->
                  err "structure: L%d[%d] points to table 0x%x of level %d" level i child cl
                | None ->
                  err "structure: L%d[%d] points to unregistered page 0x%x" level i child
              end
            in
            entries (i + 1) next
        in
        entries 0 (Ok ()))
      (Ok ()) registry
  in
  let* () =
    List.fold_left
      (fun acc (table, _) ->
        let* () = acc in
        let refs = Option.value ~default:0 (Hashtbl.find_opt inbound table) in
        if table = Page_table.cr3 pt then
          if refs = 0 then Ok () else err "structure: root has %d inbound refs" refs
        else if refs = 1 then Ok ()
        else err "structure: table 0x%x has %d inbound refs" table refs)
      (Ok ()) registry
  in
  (* last, reserved bits: a present entry sets only the bits this
     kernel programs (P, R/W, U/S, PS, NX and the frame address) *)
  let programmed =
    List.fold_left Int64.logor Pte.addr_mask [ 0x1L; 0x2L; 0x4L; 0x80L; Int64.min_int ]
  in
  List.fold_left
    (fun acc (table, level) ->
      let* () = acc in
      let rec entries i =
        if i > 511 then Ok ()
        else
          let e = read pt table i in
          if Pte.is_present e && Int64.logand e (Int64.lognot programmed) <> 0L then
            err "structure: reserved bits set in L%d[%d] of table 0x%x (0x%Lx)" level i table e
          else entries (i + 1)
      in
      entries 0)
    (Ok ()) registry

let pp_verdict ppf = function
  | Ok () -> Format.pp_print_string ppf "ok"
  | Error msg -> Format.pp_print_string ppf msg

(* Fail the current test unless the table-page checkers agree with this
   oracle on [pt]: same leaves in the same order, same verdicts. *)
let check_agrees what pt =
  if Page_table.walk_concrete pt <> walk_concrete pt then
    Alcotest.failf "%s: walk_concrete leaves differ from the per-entry walk" what;
  List.iter
    (fun (name, fast, slow) ->
      let f = fast pt and s = slow pt in
      if f <> s then
        Alcotest.failf "%s: %s says %a, the per-entry oracle %a" what name pp_verdict f
          pp_verdict s)
    [
      ("refinement", Pt_refine.refinement, refinement);
      ("structure", Pt_refine.structure, structure);
    ]

(* Does an mmap of [count] pages of [size] at [va] touch a live
   mapping?  Every requested page against every mapping. *)
let mmap_overlaps pt ~va ~count ~size =
  let bytes = Page_state.bytes_per size in
  let space = Page_table.address_space pt in
  List.exists
    (fun v ->
      Imap.exists
        (fun base (e : Page_table.entry) ->
          v < base + Page_state.bytes_per e.Page_table.size && base < v + bytes)
        space)
    (List.init count (fun i -> va + (i * bytes)))

(* Table pages a batch of mappings would add: each needed table named
   by (target level, l4, l3, l2), probed from the root, counted once. *)
let missing_tables pt ~vaddrs =
  let seen = Hashtbl.create 16 in
  let exists (level, l4, l3, l2) =
    let e4 = read pt (Page_table.cr3 pt) l4 in
    if not (Pte.is_present e4) then false
    else if level = 3 then true
    else
      let e3 = read pt (Pte.addr_of e4) l3 in
      if (not (Pte.is_present e3)) || Pte.is_huge e3 then false
      else if level = 2 then true
      else
        let e2 = read pt (Pte.addr_of e3) l2 in
        Pte.is_present e2 && not (Pte.is_huge e2)
  in
  List.fold_left
    (fun acc (va, (size : Page_state.size)) ->
      let l4 = Mmu.l4_index va and l3 = Mmu.l3_index va and l2 = Mmu.l2_index va in
      let positions =
        match size with
        | S1g -> [ (3, l4, 0, 0) ]
        | S2m -> [ (3, l4, 0, 0); (2, l4, l3, 0) ]
        | S4k -> [ (3, l4, 0, 0); (2, l4, l3, 0); (1, l4, l3, l2) ]
      in
      List.fold_left
        (fun acc pos ->
          if Hashtbl.mem seen pos || exists pos then acc
          else begin
            Hashtbl.replace seen pos ();
            acc + 1
          end)
        acc positions)
    0 vaddrs
