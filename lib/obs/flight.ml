(* Per-CPU flight-recorder rings.

   The whole recorder lives in one flat byte arena, mirroring the
   byte-accurate layout of [Atmo_sim.Ring] over simulated physical
   memory: each CPU owns a contiguous region

     [head:u64][tail:u64][dropped:u64][slot 0][slot 1]...

   head/tail are free-running counters masked by (slots-1) for the slot
   index; all recorder state is stored in the arena (the OCaml record
   only caches the geometry), so a decoder handed the raw bytes can
   reconstruct the stream exactly. *)

type t = {
  arena : Bytes.t;
  cpus : int;
  slots : int;
  slot_size : int;
  (* Lossless per-CPU drop tally, outside the arena.  The in-arena
     [dropped] word is part of the decoder-visible ring state and is
     wiped by [clear] along with everything else; accounting that
     feeds benchmark output must never itself be droppable, so it
     lives here and survives clears for the lifetime of the
     recorder. *)
  lifetime_dropped : int array;
}

let header_bytes = 24

let ring_bytes t = header_bytes + (t.slots * t.slot_size)
let cpu_base t cpu = cpu * ring_bytes t

let create ~cpus ~slots ~slot_size =
  if cpus <= 0 then invalid_arg "Flight.create: cpus <= 0";
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Flight.create: slots must be a positive power of two";
  if slot_size <= 0 then invalid_arg "Flight.create: slot_size <= 0";
  let t =
    { arena = Bytes.empty; cpus; slots; slot_size;
      lifetime_dropped = Array.make cpus 0 }
  in
  let total = cpus * ring_bytes t in
  { t with arena = Bytes.make total '\000' }

let cpus t = t.cpus
let slots t = t.slots
let slot_size t = t.slot_size
let size_bytes t = Bytes.length t.arena

let check_cpu t cpu =
  if cpu < 0 || cpu >= t.cpus then invalid_arg "Flight: cpu out of range"

(* Hot-path u64 accessors: one native 8-byte load or store per word,
   little-endian in the arena on every host (byte-swapped on a
   big-endian one).  Semantically [Bytes.get_int64_le] /
   [Bytes.set_int64_le (Int64.of_int v)]; spelled with the unchecked
   primitives because callers only pass offsets [reserve] or the
   geometry handed out, and because [Int64.of_int]/[Int64.to_int]
   applied straight to a primitive stay unboxed whatever the inliner
   decides.  The conversions match the stdlib's bit for bit (sign
   extension from bit 62 on store, bit 63 dropped on load); the
   accessor-oracle and encode-oracle tests in test_obs pin both. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let load_u64 b addr =
  if Sys.big_endian then Int64.to_int (bswap64 (get64u b addr))
  else Int64.to_int (get64u b addr)

let store_u64 b addr v =
  if Sys.big_endian then set64u b addr (bswap64 (Int64.of_int v))
  else set64u b addr (Int64.of_int v)

let read_u64 t addr = load_u64 t.arena addr
let write_u64 t addr v = store_u64 t.arena addr v

let head t ~cpu = read_u64 t (cpu_base t cpu)
let tail t ~cpu = read_u64 t (cpu_base t cpu + 8)
let dropped t ~cpu = read_u64 t (cpu_base t cpu + 16)
let set_head t ~cpu v = write_u64 t (cpu_base t cpu) v
let set_tail t ~cpu v = write_u64 t (cpu_base t cpu + 8) v
let set_dropped t ~cpu v = write_u64 t (cpu_base t cpu + 16) v

let length t ~cpu =
  check_cpu t cpu;
  head t ~cpu - tail t ~cpu

let slot_addr t ~cpu idx =
  cpu_base t cpu + header_bytes + ((idx land (t.slots - 1)) * t.slot_size)

(* Overwrite-oldest: a full ring advances the tail over the victim slot
   and counts it dropped; a flight recorder never refuses an event. *)
let push t ~cpu payload =
  check_cpu t cpu;
  let h = head t ~cpu in
  if h - tail t ~cpu >= t.slots then begin
    set_tail t ~cpu (tail t ~cpu + 1);
    set_dropped t ~cpu (dropped t ~cpu + 1);
    t.lifetime_dropped.(cpu) <- t.lifetime_dropped.(cpu) + 1
  end;
  let addr = slot_addr t ~cpu h in
  let len = min (Bytes.length payload) t.slot_size in
  Bytes.fill t.arena addr t.slot_size '\000';
  Bytes.blit payload 0 t.arena addr len;
  set_head t ~cpu (h + 1)

(* The zero-allocation emit path: advance the cursor (with the same
   overwrite-oldest drop accounting as [push]) and hand back the arena
   offset of the claimed slot; the caller writes all [slot_size] bytes
   in place, so the victim slot is not zeroed first. *)
let reserve t ~cpu =
  let base = cpu_base t cpu in
  let h = load_u64 t.arena base in
  let tl = load_u64 t.arena (base + 8) in
  if h - tl >= t.slots then begin
    store_u64 t.arena (base + 8) (tl + 1);
    store_u64 t.arena (base + 16) (load_u64 t.arena (base + 16) + 1);
    t.lifetime_dropped.(cpu) <- t.lifetime_dropped.(cpu) + 1
  end;
  store_u64 t.arena base (h + 1);
  base + header_bytes + ((h land (t.slots - 1)) * t.slot_size)

let arena t = t.arena

let slot_offset t ~cpu idx =
  check_cpu t cpu;
  slot_addr t ~cpu idx

let to_list t ~cpu =
  check_cpu t cpu;
  let tl = tail t ~cpu and h = head t ~cpu in
  let rec go i acc =
    if i >= h then List.rev acc
    else
      go (i + 1) (Bytes.sub t.arena (slot_addr t ~cpu i) t.slot_size :: acc)
  in
  go tl []

let lifetime_dropped t ~cpu =
  check_cpu t cpu;
  t.lifetime_dropped.(cpu)

let total_dropped t = Array.fold_left ( + ) 0 t.lifetime_dropped

let clear t =
  Bytes.fill t.arena 0 (Bytes.length t.arena) '\000'
