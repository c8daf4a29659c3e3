type translation = {
  paddr : int;
  frame : int;
  size : int;
  perm : Pte_bits.perm;
}

(* Walk memory references feed a registry counter (handle cached once;
   [Metrics.reset] zeroes it in place) instead of the old module-local
   ref, so [atmo trace] surfaces it and per-instance consumers can diff
   it around a region of interest. *)
let walk_loads = Atmo_obs.Metrics.counter "mmu/walk_loads"

let canonical va =
  let top = va asr 47 in
  top = 0 || top = -1

let l4_index va = (va lsr 39) land 0x1ff
let l3_index va = (va lsr 30) land 0x1ff
let l2_index va = (va lsr 21) land 0x1ff
let l1_index va = (va lsr 12) land 0x1ff

let va_of_indices ~l4 ~l3 ~l2 ~l1 =
  let raw = (l4 lsl 39) lor (l3 lsl 30) lor (l2 lsl 21) lor (l1 lsl 12) in
  (* sign-extend bit 47 to keep the address canonical *)
  if l4 land 0x100 <> 0 then raw lor (-1 lsl 48) else raw

let entry_addr ~table ~index =
  if index < 0 || index > 511 then invalid_arg "Mmu.entry_addr: index";
  table + (index * 8)

let load mem ~table ~index =
  Atmo_obs.Metrics.Counter.incr walk_loads;
  Atmo_obs.Sink.emit_pte_touch ~table ~index ();
  Phys_mem.read_u64 mem ~addr:(entry_addr ~table ~index)

(* Intersection of permissions along the walk: hardware allows an access
   only if every level grants it. *)
let meet (a : Pte_bits.perm) (b : Pte_bits.perm) : Pte_bits.perm =
  {
    write = a.write && b.write;
    user = a.user && b.user;
    execute = a.execute && b.execute;
  }

(* A present non-leaf entry whose table lies past the end of memory is
   a walk fault: one bounds check per table descended, before its
   load. *)
let past_memory mem e = not (Phys_mem.contains mem (Pte_bits.addr_of e))

let walk mem ~cr3 ~vaddr =
  if not (canonical vaddr) then None
  else
    let e4 = load mem ~table:cr3 ~index:(l4_index vaddr) in
    if (not (Pte_bits.is_present e4)) || past_memory mem e4 then None
    else
      let p4 = Pte_bits.perm_of e4 in
      let e3 = load mem ~table:(Pte_bits.addr_of e4) ~index:(l3_index vaddr) in
      if not (Pte_bits.is_present e3) then None
      else if Pte_bits.is_huge e3 then
        let frame = Pte_bits.addr_of e3 in
        let off = vaddr land (Phys_mem.page_size_1g - 1) in
        Some
          {
            paddr = frame + off;
            frame;
            size = Phys_mem.page_size_1g;
            perm = meet p4 (Pte_bits.perm_of e3);
          }
      else if past_memory mem e3 then None
      else
        let p3 = meet p4 (Pte_bits.perm_of e3) in
        let e2 = load mem ~table:(Pte_bits.addr_of e3) ~index:(l2_index vaddr) in
        if not (Pte_bits.is_present e2) then None
        else if Pte_bits.is_huge e2 then
          let frame = Pte_bits.addr_of e2 in
          let off = vaddr land (Phys_mem.page_size_2m - 1) in
          Some
            {
              paddr = frame + off;
              frame;
              size = Phys_mem.page_size_2m;
              perm = meet p3 (Pte_bits.perm_of e2);
            }
        else if past_memory mem e2 then None
        else
          let p2 = meet p3 (Pte_bits.perm_of e2) in
          let e1 = load mem ~table:(Pte_bits.addr_of e2) ~index:(l1_index vaddr) in
          if not (Pte_bits.is_present e1) then None
          else
            let frame = Pte_bits.addr_of e1 in
            let off = vaddr land (Phys_mem.page_size - 1) in
            Some
              {
                paddr = frame + off;
                frame;
                size = Phys_mem.page_size;
                perm = meet p2 (Pte_bits.perm_of e1);
              }

let resolve mem ~cr3 ~vaddr =
  let r =
    if not (Tlb.enabled ()) then walk mem ~cr3 ~vaddr
    else begin
      let tlb = Tlb.space mem ~cr3 in
      match Tlb.lookup tlb ~vaddr with
      | Some (frame, size, perm) ->
        Atmo_obs.Sink.emit_tlb_hit ~vaddr ();
        (* same reconstruction as the walk's leaf cases, so a hit is
           bit-identical to the walk it replaces *)
        Some { paddr = frame + (vaddr land (size - 1)); frame; size; perm }
      | None ->
        Atmo_obs.Sink.emit_tlb_miss ~vaddr ();
        let sid = Atmo_obs.Span.begin_ Atmo_obs.Span.Mmu_fill in
        let r = walk mem ~cr3 ~vaddr in
        (match r with
         | Some tr -> Tlb.insert tlb ~vaddr ~frame:tr.frame ~size:tr.size ~perm:tr.perm
         | None -> ());
        if sid <> 0 then Atmo_obs.Span.end_ sid;
        r
    end
  in
  if Atmo_obs.Sink.tracing_tag Atmo_obs.Event.tag_mmu_walk then
    Atmo_obs.Sink.emit_mmu_walk ~vaddr ~ok:(r <> None) ();
  r

let read_u64 mem ~cr3 ~vaddr =
  match resolve mem ~cr3 ~vaddr with
  | None -> None
  | Some tr -> Some (Phys_mem.read_u64 mem ~addr:tr.paddr)

let write_u64 mem ~cr3 ~vaddr v =
  match resolve mem ~cr3 ~vaddr with
  | None -> false
  | Some tr ->
    if not tr.perm.write then false
    else begin
      Phys_mem.write_u64 mem ~addr:tr.paddr v;
      true
    end
