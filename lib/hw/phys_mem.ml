module Mutation = Atmo_util.Mutation

type t = {
  uid : int;
  page_count : int;
  frames : (int, Bytes.t) Hashtbl.t;
}

let page_size = 4096
let page_size_2m = 512 * page_size
let page_size_1g = 512 * page_size_2m

(* Physical accesses on the mutation stream (the sanitizer's feed):
   with no [Access] subscriber each access costs the one guard, and no
   event is built. *)
type access_op = Read | Write | Zero

type Mutation.event += Access of { mem : t; op : access_op; addr : int; len : int }

let observed () = Mutation.wants Mutation.Access
let access mem op addr len = Mutation.emit Mutation.Access (Access { mem; op; addr; len })

let uid_counter = ref 0

let create ~page_count =
  if page_count <= 0 then invalid_arg "Phys_mem.create: page_count <= 0";
  incr uid_counter;
  { uid = !uid_counter; page_count; frames = Hashtbl.create 1024 }

let uid t = t.uid

let page_count t = t.page_count
let size_bytes t = t.page_count * page_size
let contains t addr = addr >= 0 && addr < size_bytes t
let page_base addr = addr land lnot (page_size - 1)
let page_index addr = addr / page_size
let addr_of_index i = i * page_size
let is_page_aligned addr = addr land (page_size - 1) = 0

let check_bounds t addr len what =
  if addr < 0 || addr + len > size_bytes t then
    invalid_arg (Printf.sprintf "Phys_mem.%s: address 0x%x out of bounds" what addr)

(* Frames are materialised lazily and zero-filled, like RAM from a boot
   allocator.  Reads of untouched frames return zero without allocating. *)
let frame_of t addr =
  let idx = page_index addr in
  match Hashtbl.find t.frames idx with
  | b -> b
  | exception Not_found ->
    let b = Bytes.make page_size '\000' in
    Hashtbl.replace t.frames idx b;
    b

let frame_opt t addr = Hashtbl.find_opt t.frames (page_index addr)

let read_u64 t ~addr =
  check_bounds t addr 8 "read_u64";
  if addr land 7 <> 0 then invalid_arg "Phys_mem.read_u64: unaligned";
  if observed () then access t Read addr 8;
  match frame_opt t addr with
  | None -> 0L
  | Some b -> Bytes.get_int64_le b (addr land (page_size - 1))

let write_u64 t ~addr v =
  check_bounds t addr 8 "write_u64";
  if addr land 7 <> 0 then invalid_arg "Phys_mem.write_u64: unaligned";
  if observed () then access t Write addr 8;
  Bytes.set_int64_le (frame_of t addr) (addr land (page_size - 1)) v

let iter_table t ~addr f =
  check_bounds t addr page_size "iter_table";
  if addr land (page_size - 1) <> 0 then invalid_arg "Phys_mem.iter_table: unaligned";
  if observed () then access t Read addr page_size;
  match frame_opt t addr with
  | None -> ()
  | Some b ->
    for index = 0 to (page_size / 8) - 1 do
      let e = Bytes.get_int64_le b (index * 8) in
      if e <> 0L then f index e
    done

let read_u8 t ~addr =
  check_bounds t addr 1 "read_u8";
  if observed () then access t Read addr 1;
  match frame_opt t addr with
  | None -> 0
  | Some b -> Char.code (Bytes.get b (addr land (page_size - 1)))

let write_u8 t ~addr v =
  check_bounds t addr 1 "write_u8";
  if observed () then access t Write addr 1;
  Bytes.set (frame_of t addr) (addr land (page_size - 1)) (Char.chr (v land 0xff))

(* Dropping the frame is observationally identical to zero-filling it
   (untouched frames read as zero) and keeps the simulation sparse even
   when superpages are zeroed. *)
let zero_page t ~addr =
  check_bounds t addr page_size "zero_page";
  if addr land (page_size - 1) <> 0 then invalid_arg "Phys_mem.zero_page: unaligned";
  if observed () then access t Zero addr page_size;
  Hashtbl.remove t.frames (page_index addr)

(* Frame-by-frame copy loops, top-level so a copy allocates nothing
   beyond the frames it materialises. *)
let rec copy_in t ~addr src ~off ~len o =
  if o < len then begin
    let a = addr + o in
    let in_frame = a land (page_size - 1) in
    let chunk = min (len - o) (page_size - in_frame) in
    Bytes.blit src (off + o) (frame_of t a) in_frame chunk;
    copy_in t ~addr src ~off ~len (o + chunk)
  end

let rec copy_out t ~addr ~len dst ~off o =
  if o < len then begin
    let a = addr + o in
    let in_frame = a land (page_size - 1) in
    let chunk = min (len - o) (page_size - in_frame) in
    (match Hashtbl.find t.frames (page_index a) with
     | b -> Bytes.blit b in_frame dst (off + o) chunk
     | exception Not_found -> Bytes.fill dst (off + o) chunk '\000');
    copy_out t ~addr ~len dst ~off (o + chunk)
  end

let write_bytes t ~addr src ~off ~len =
  check_bounds t addr len "blit_to";
  if len > 0 && observed () then access t Write addr len;
  copy_in t ~addr src ~off ~len 0

let read_bytes t ~addr ~len dst ~off =
  check_bounds t addr len "blit_from";
  if len > 0 && observed () then access t Read addr len;
  copy_out t ~addr ~len dst ~off 0

let blit_to t ~addr src = write_bytes t ~addr src ~off:0 ~len:(Bytes.length src)

let blit_from t ~addr ~len =
  let dst = Bytes.create len in
  read_bytes t ~addr ~len dst ~off:0;
  dst

let touched_frames t = Hashtbl.length t.frames
