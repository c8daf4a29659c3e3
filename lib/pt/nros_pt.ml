open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
module Pte = Atmo_hw.Pte_bits
module Page_state = Atmo_pmem.Page_state

let err fmt = Format.kasprintf (fun s -> Error s) fmt
let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let size_at_level = function
  | 3 -> Some Page_state.S1g
  | 2 -> Some Page_state.S2m
  | _ -> None

(* Virtual base of slot [i] of a [level] table covering [vbase]
   (sign-extended in the upper half of the L4). *)
let slot_base ~level ~vbase i =
  let shift = 12 + (9 * (level - 1)) in
  if level = 4 && i land 0x100 <> 0 then vbase lor (i lsl shift) lor (-1 lsl 48)
  else vbase lor (i lsl shift)

(* The present entries of one table page.  A table past the end of
   memory is a walk fault with no entries below it. *)
let iter_table mem ~table f =
  if Phys_mem.contains mem table then Phys_mem.iter_table mem ~addr:table f

(* Recursive interpretation of the subtree rooted at [table] (a table
   page of [level]) covering the virtual range starting at [vbase].
   This is the hierarchical definition: a node's interpretation is the
   union of its children's, derived afresh on every call. *)
let rec interp_node mem ~table ~level ~vbase =
  let acc = ref [] in
  iter_table mem ~table (fun i e ->
      let vslot = slot_base ~level ~vbase i in
      if not (Pte.is_present e) then ()
      else if level = 1 then
        acc :=
          (vslot, Page_table.{ frame = Pte.addr_of e; size = Page_state.S4k; perm = Pte.perm_of e })
          :: !acc
      else if Pte.is_huge e then
        match size_at_level level with
        | Some size ->
          acc := (vslot, Page_table.{ frame = Pte.addr_of e; size; perm = Pte.perm_of e }) :: !acc
        | None -> () (* malformed huge bit; caught by [structure] *)
      else acc := interp_node mem ~table:(Pte.addr_of e) ~level:(level - 1) ~vbase:vslot @ !acc);
  !acc

let interp pt =
  interp_node (Page_table.mem pt) ~table:(Page_table.cr3 pt) ~level:4 ~vbase:0

(* Frames used by the subtree itself (its table pages), recomputed
   recursively — the hierarchical analogue of page_closure. *)
let rec closure_node mem ~table ~level =
  let acc = ref (Iset.singleton table) in
  iter_table mem ~table (fun _ e ->
      if Pte.is_present e && (not (Pte.is_huge e)) && level > 1 then
        acc := Iset.union !acc (closure_node mem ~table:(Pte.addr_of e) ~level:(level - 1)));
  !acc

(* Hierarchical refinement, as the recursive-ownership proof structures
   it: every node's interpretation must equal the union of its
   children's interpretations, each child's interpretation must fall
   inside the child's slot range, and children are verified recursively.
   Since the interpretation is defined by recursion, establishing this
   at a node re-derives each child's interpretation (once for the range
   check, once inside the node's own derivation) — the repeated
   unrolling cost the flat design avoids.  The first failing slot, in
   index order, is the verdict. *)
let rec verify_node mem ~table ~level ~vbase =
  let shift = 12 + (9 * (level - 1)) in
  let result = ref (Ok ()) in
  iter_table mem ~table (fun i e ->
      match !result with
      | Error _ -> ()
      | Ok () ->
        if Pte.is_present e && (not (Pte.is_huge e)) && level > 1 then
          result :=
            (let lo = slot_base ~level ~vbase i in
             let child = Pte.addr_of e in
             let* () = verify_node mem ~table:child ~level:(level - 1) ~vbase:lo in
             (* re-derive the child's interpretation for the range check *)
             let hi = lo + (1 lsl shift) in
             List.fold_left
               (fun acc (va, _) ->
                 let* () = acc in
                 if (va >= lo && va < hi) || level = 4 then Ok ()
                 else err "nros: child of L%d[%d] interprets 0x%x outside its range" level i va)
               (Ok ())
               (interp_node mem ~table:child ~level:(level - 1) ~vbase:lo)));
  let* () = !result in
  (* the node's own interpretation must be internally duplicate-free
     (derived afresh: the third derivation of each subtree) *)
  let own = interp_node mem ~table ~level ~vbase in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) own in
  let rec no_dup = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then err "nros: node 0x%x interprets 0x%x twice" table a else no_dup rest
    | _ -> Ok ()
  in
  no_dup sorted

let refinement pt =
  let mem = Page_table.mem pt in
  let* () = verify_node mem ~table:(Page_table.cr3 pt) ~level:4 ~vbase:0 in
  let derived =
    List.fold_left (fun m (va, e) -> Imap.add va e m) Imap.empty (interp pt)
  in
  let abstract = Page_table.address_space pt in
  if Imap.equal Page_table.equal_entry derived abstract then Ok ()
  else
    let ddom = Imap.dom derived and adom = Imap.dom abstract in
    (match Iset.choose_opt (Iset.diff adom ddom) with
     | Some va -> err "nros refinement: abstract maps 0x%x, derivation faults" va
     | None ->
       (match Iset.choose_opt (Iset.diff ddom adom) with
        | Some va -> err "nros refinement: derivation maps 0x%x, abstract faults" va
        | None ->
          let bad =
            Imap.fold
              (fun va e acc ->
                match acc with
                | Some _ -> acc
                | None ->
                  (match Imap.find_opt va abstract with
                   | Some a when not (Page_table.equal_entry a e) -> Some va
                   | _ -> None))
              derived None
          in
          (match bad with
           | Some va -> err "nros refinement: values differ at 0x%x" va
           | None -> Ok ())))

(* Recursive structural well-formedness: a node is wf iff its entries are
   locally sound (reserved bits clear included), its children are
   recursively wf, and the children's closures (recomputed here) are
   pairwise disjoint and exclude this node.  The first failing slot, in index order, is the verdict; every
   child's closure is derived even past it, as the disjointness check
   quantifies over all siblings. *)
let rec node_wf mem ~table ~level =
  let result = ref (Ok ()) in
  let closures = ref [] in
  let check f = match !result with Ok () -> result := f () | Error _ -> () in
  iter_table mem ~table (fun i e ->
      if Pte.is_present e then begin
        if Pte.is_huge e then
          check (fun () ->
              match size_at_level level with
              | Some size ->
                if Pte.addr_of e mod Page_state.bytes_per size <> 0 then
                  err "nros structure: misaligned huge leaf at L%d[%d]" level i
                else Ok ()
              | None -> err "nros structure: huge bit at level %d" level)
        else if level > 1 then begin
          let child = Pte.addr_of e in
          check (fun () ->
              if Phys_mem.contains mem child then Ok ()
              else err "nros structure: L%d[%d] points past memory at 0x%x" level i child);
          check (fun () -> node_wf mem ~table:child ~level:(level - 1));
          let sub = closure_node mem ~table:child ~level:(level - 1) in
          check (fun () ->
              if Iset.mem table sub then err "nros structure: cycle through table 0x%x" table
              else Ok ());
          closures := sub :: !closures
        end;
        if Pte.has_reserved e then
          check (fun () -> err "nros structure: reserved bits set at L%d[%d]" level i)
      end);
  let* () = !result in
  if Iset.pairwise_disjoint !closures then Ok ()
  else err "nros structure: sibling subtrees of 0x%x share table pages" table

let structure pt =
  node_wf (Page_table.mem pt) ~table:(Page_table.cr3 pt) ~level:4

let obligations =
  [ ("nros_pt/refinement", refinement); ("nros_pt/structure", structure) ]

let all pt =
  List.fold_left
    (fun acc (_, check) ->
      let* () = acc in
      check pt)
    (Ok ()) obligations
