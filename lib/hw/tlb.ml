module Metrics = Atmo_obs.Metrics

(* Geometry: a direct-mapped-with-ways array, 64 sets x 4 ways per
   address space.  256 entries is deliberately small (real L2 TLBs hold
   1-2K): evictions must happen in the simulation so the replacement
   path is exercised, and a full-capacity sweep stays cheap enough to
   use as a range-invalidation fallback. *)
let sets = 64
let ways = 4
let capacity = sets * ways

(* A slot caches one walk result keyed by the exact 4 KiB virtual page
   probed, even when the backing mapping is a 2 MiB / 1 GiB superpage:
   [frame] is the superpage base and [size] its extent, so the physical
   address is rebuilt as [frame + (vaddr land (size - 1))], exactly the
   walker's formula.  [vpn = -1] marks an empty slot. *)
type slot = {
  mutable vpn : int;
  mutable frame : int;
  mutable size : int;
  mutable perm : Pte_bits.perm;
}

type counters = {
  hits : Metrics.Counter.t;
  misses : Metrics.Counter.t;
  evictions : Metrics.Counter.t;
  flushes : Metrics.Counter.t;
  invlpgs : Metrics.Counter.t;
}

let mk_counters prefix =
  {
    hits = Metrics.counter (prefix ^ "/hits");
    misses = Metrics.counter (prefix ^ "/misses");
    evictions = Metrics.counter (prefix ^ "/evictions");
    flushes = Metrics.counter (prefix ^ "/flushes");
    invlpgs = Metrics.counter (prefix ^ "/invlpgs");
  }

let cpu_counters = mk_counters "tlb"
let io_counters = mk_counters "iotlb"

type t = {
  mem : Phys_mem.t;
  asid : int;
  slots : slot array;  (* sets * ways, flat: set s occupies [s*ways, ...) *)
  rr : int array;  (* per-set round-robin replacement pointer *)
  mutable live : int;
  c : counters;
}

let no_perm : Pte_bits.perm = { write = false; user = false; execute = false }

let create mem ~asid ~kind =
  {
    mem;
    asid;
    slots =
      Array.init capacity (fun _ -> { vpn = -1; frame = 0; size = 0; perm = no_perm });
    rr = Array.make sets 0;
    live = 0;
    c = (match kind with `Cpu -> cpu_counters | `Io -> io_counters);
  }

let mem t = t.mem
let asid t = t.asid
let live t = t.live

(* [vaddr lsr 12] is injective on page bases (a logical shift keeps the
   sign bits of canonical high-half addresses as tag bits), and
   [vpn lsl 12] restores the exact page base including the sign. *)
let vpn_of vaddr = vaddr lsr 12
let vbase_of vpn = vpn lsl 12

(* Fold superpage-stride bits into the set index so runs of 4 KiB pages,
   2 MiB steps and 1 GiB steps all spread across sets. *)
let set_of vpn = (vpn lxor (vpn lsr 9) lxor (vpn lsr 18)) land (sets - 1)

(* The probe under every lookup: the index of the slot caching
   [vaddr]'s page, or -1, bumping the hit/miss counters.  Returns an
   int so a hit allocates nothing; the slot accessors below read it. *)
let rec probe_ways t vpn base w =
  if w >= ways then begin
    Metrics.Counter.incr t.c.misses;
    -1
  end
  else if t.slots.(base + w).vpn = vpn then begin
    Metrics.Counter.incr t.c.hits;
    base + w
  end
  else probe_ways t vpn base (w + 1)

let probe t ~vaddr =
  let vpn = vpn_of vaddr in
  probe_ways t vpn (set_of vpn * ways) 0

let slot_frame t i = t.slots.(i).frame
let slot_size t i = t.slots.(i).size
let slot_perm t i = t.slots.(i).perm

let lookup t ~vaddr =
  let i = probe t ~vaddr in
  if i < 0 then None
  else
    let s = t.slots.(i) in
    Some (s.frame, s.size, s.perm)

let insert t ~vaddr ~frame ~size ~perm =
  let vpn = vpn_of vaddr in
  let base = set_of vpn * ways in
  (* reuse a matching or empty way; otherwise evict round-robin *)
  let rec pick w best =
    if w >= ways then best
    else
      let s = t.slots.(base + w) in
      if s.vpn = vpn then w
      else pick (w + 1) (if best < 0 && s.vpn = -1 then w else best)
  in
  let way =
    match pick 0 (-1) with
    | -1 ->
      let set = set_of vpn in
      let w = t.rr.(set) in
      t.rr.(set) <- (w + 1) mod ways;
      Metrics.Counter.incr t.c.evictions;
      t.live <- t.live - 1;
      w
    | w -> w
  in
  let s = t.slots.(base + way) in
  if s.vpn <> vpn then t.live <- t.live + 1;
  s.vpn <- vpn;
  s.frame <- frame;
  s.size <- size;
  s.perm <- perm

let kill t s =
  if s.vpn <> -1 then begin
    s.vpn <- -1;
    t.live <- t.live - 1
  end

let invalidate_page t ~vaddr =
  Metrics.Counter.incr t.c.invlpgs;
  let vpn = vpn_of vaddr in
  let base = set_of vpn * ways in
  for w = 0 to ways - 1 do
    let s = t.slots.(base + w) in
    if s.vpn = vpn then kill t s
  done

let flush t =
  Metrics.Counter.incr t.c.flushes;
  Atmo_obs.Sink.emit_tlb_flush ~asid:t.asid ~entries:t.live ();
  Array.iter (fun s -> s.vpn <- -1) t.slots;
  t.live <- 0

(* Precise invlpg per covered page when the span is small; past the
   precision threshold (a 2 MiB unmap already covers 512 pages, more
   than the whole array) a full flush of the address space is cheaper,
   exactly as real kernels fall back to writing cr3. *)
let precise_limit = 64

let invalidate_range t ~vaddr ~bytes =
  if bytes > 0 then begin
    let pages = (bytes + Phys_mem.page_size - 1) / Phys_mem.page_size in
    if pages > precise_limit then flush t
    else
      for i = 0 to pages - 1 do
        invalidate_page t ~vaddr:(vaddr + (i * Phys_mem.page_size))
      done
  end

let invalidate_frames t ~lo ~hi =
  if t.live > 0 then begin
    let killed = ref 0 in
    Array.iter
      (fun s -> if s.vpn <> -1 && s.frame < hi && lo < s.frame + s.size then begin
           kill t s;
           incr killed
         end)
      t.slots;
    if !killed > 0 then Metrics.Counter.incr t.c.flushes
  end

let entries t =
  Array.fold_left
    (fun acc s ->
      if s.vpn = -1 then acc else (vbase_of s.vpn, s.frame, s.size, s.perm) :: acc)
    [] t.slots

(* ------------------------------------------------------------------ *)
(* CPU-side registry: one cache per (memory, cr3) pair, found by the
   MMU on every resolve and by the page-table code at every shootdown
   point.  The ASID is the cr3 value itself — distinct roots can never
   alias, which is the isolation property the ASID-tagging tests pin. *)

let enabled_flag = ref true
let enabled () = !enabled_flag

let spaces : (int, t) Hashtbl.t = Hashtbl.create 64

(* uids are small (one per Phys_mem.create); cr3 is a physical address
   well below 2^40 for any simulated memory, so the packed key fits. *)
let key mem ~cr3 = (Phys_mem.uid mem lsl 40) + cr3

let space mem ~cr3 =
  let k = key mem ~cr3 in
  match Hashtbl.find_opt spaces k with
  | Some t -> t
  | None ->
    let t = create mem ~asid:cr3 ~kind:`Cpu in
    Hashtbl.replace spaces k t;
    t

let space_opt mem ~cr3 = Hashtbl.find_opt spaces (key mem ~cr3)
let iter_spaces f = Hashtbl.iter (fun _ t -> f t) spaces

let shoot_range mem ~cr3 ~vaddr ~bytes =
  match space_opt mem ~cr3 with
  | None -> ()
  | Some t -> invalidate_range t ~vaddr ~bytes

let flush_asid mem ~cr3 =
  match Hashtbl.find_opt spaces (key mem ~cr3) with
  | None -> ()
  | Some t ->
    flush t;
    Hashtbl.remove spaces (key mem ~cr3)

let shoot_frames mem ~lo ~hi =
  let uid = Phys_mem.uid mem in
  Hashtbl.iter
    (fun _ t -> if Phys_mem.uid t.mem = uid then invalidate_frames t ~lo ~hi)
    spaces

let clear () =
  Hashtbl.iter (fun _ t -> Array.iter (fun s -> s.vpn <- -1) t.slots) spaces;
  Hashtbl.reset spaces

let set_enabled b =
  if b <> !enabled_flag then begin
    (* both edges drop every cached translation so an enable/disable
       toggle can never smuggle state across the boundary *)
    clear ();
    enabled_flag := b
  end

(* ------------------------------------------------------------------ *)
(* Counter snapshots                                                   *)

type stats = { hits : int; misses : int; evictions : int; flushes : int; invlpgs : int }

let stats_of (c : counters) : stats =
  {
    hits = Metrics.Counter.value c.hits;
    misses = Metrics.Counter.value c.misses;
    evictions = Metrics.Counter.value c.evictions;
    flushes = Metrics.Counter.value c.flushes;
    invlpgs = Metrics.Counter.value c.invlpgs;
  }

let cpu_stats () = stats_of cpu_counters
let io_stats () = stats_of io_counters
